"""Command-line surface: world generation, teach/repeat/replay runs, metric
analysis, and a built-in selftest. Exit codes: 0 success, 2 config error,
3 mission abort (safety/localization), 4 I/O error or malformed input file."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import (ConfigError, GlobalConfig, load_config, load_world_spec,
                     save_config, save_world_spec)
from .controller import Pose2D, Status
from .csvio import CsvFormatError, write_csv
from .geom import FRAME_MAP, transform_cloud
from .icp import DegenerateRegistration, RegistrationFailure
from .mapping import MapLoadError, PersistenceError, compute_normals
from .mission import TeachAbort, load_database, localize
from .npcd import NpcdError
from .prior import PriorCoverageError
from .runner import (read_scan_log, run_repeat, run_replay, run_teach,
                     save_run_log)
from .simworld import WorldParams, generate_world
from .trajectory import Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4


_OPTIONS = {
    "--config": dict(type=Path, default=None,
                     help="YAML config file (defaults used when omitted)"),
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--out-dir": dict(type=Path, required=True),
}


def _add_options(p, *names):
    """Add the shared options ``names``; a command declares only those it
    reads, so argparse rejects the rest."""
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trailnav")
    sub = ap.add_subparsers(dest="command", required=True)

    world = sub.add_parser("world", help="world utilities")
    world_sub = world.add_subparsers(dest="world_command", required=True)
    wg = world_sub.add_parser("gen", help="write a world spec file")
    _add_options(wg, "--config", "--seed", "--out-dir")
    wg.add_argument("--trail-length", type=float, default=200.0)
    wg.add_argument("--trail-width", type=float, default=4.5)
    wg.add_argument("--tree-density", type=float, default=0.03)

    teach = sub.add_parser("teach", help="run a scripted teach pass")
    _add_options(teach, "--config", "--seed", "--out-dir")
    teach.add_argument("--world", type=Path, default=None,
                       help="world spec file (generated when omitted)")
    teach.add_argument("--log-scans", action="store_true",
                       help="write each raw scan to OUT_DIR/scans as it is "
                       "simulated, plus imu/odom for replay")

    rep = sub.add_parser("repeat", help="autonomous repeat of a database")
    _add_options(rep, "--config", "--seed", "--out-dir")
    rep.add_argument("--db", type=Path, required=True)
    rep.add_argument("--world", type=Path, required=True)
    rep.add_argument("--reverse", action="store_true")
    rep.add_argument("--start-x", type=float, default=0.0)
    rep.add_argument("--start-y", type=float, default=0.0)
    rep.add_argument("--start-theta", type=float, default=0.0)

    replay = sub.add_parser("replay", help="run logged scans through the pipeline")
    _add_options(replay, "--config", "--out-dir")
    replay.add_argument("--scans", type=Path, required=True)

    an = sub.add_parser("analyze", help="evaluation metrics")
    an_sub = an.add_subparsers(dest="analyze_command", required=True)

    ct = an_sub.add_parser("cross-track")
    _add_options(ct, "--out-dir")
    ct.add_argument("--executed", type=Path, required=True)
    ct.add_argument("--reference", type=Path, required=True)

    cb = an_sub.add_parser("curvature-bins")
    _add_options(cb, "--out-dir")
    cb.add_argument("--cross-track", type=Path, nargs="+", required=True)

    ov = an_sub.add_parser("overlap")
    _add_options(ov, "--config", "--out-dir")
    ov.add_argument("--db", type=Path, required=True)
    ov.add_argument("--scans", type=Path, required=True)
    ov.add_argument("--threshold", type=float, default=0.5)

    pe = an_sub.add_parser("perturbation")
    _add_options(pe, "--config", "--out-dir")
    pe.add_argument("--db", type=Path, required=True)
    pe.add_argument("--scans", type=Path, required=True)
    pe.add_argument("--scan-index", type=int, default=0)

    sub.add_parser("selftest", help="run the built-in oracle checks")

    return ap


def _load_cfg(args) -> GlobalConfig:
    cfg = load_config(args.config) if args.config else GlobalConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _world_from_args(args, cfg: GlobalConfig):
    if args.world:
        return generate_world(*load_world_spec(args.world))
    return generate_world(cfg.seed, WorldParams())


def _cmd_world_gen(args) -> int:
    cfg = _load_cfg(args)
    try:
        params = WorldParams(trail_length=args.trail_length,
                             trail_width=args.trail_width,
                             tree_density=args.tree_density)
    except ValueError as exc:
        raise ConfigError(f"world gen: {exc}") from exc
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_world_spec(args.out_dir / "world_spec.txt", cfg.seed, params)
    save_config(cfg, args.out_dir / "config_used.yaml")
    print(f"wrote {args.out_dir / 'world_spec.txt'}")
    return EXIT_OK


def _cmd_teach(args) -> int:
    cfg = _load_cfg(args)
    world = _world_from_args(args, cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    line = world.params.resolved_centerline()
    scans = args.out_dir / "scans" if args.log_scans else None
    result = run_teach(world, cfg, waypoints=list(line[1:]),
                       out_dir=args.out_dir / "db",
                       start=Pose2D(line[0][0], line[0][1],
                                    float(np.arctan2(*(line[1] - line[0])[::-1]))),
                       scan_log_dir=scans)
    result.truth.save_csv(args.out_dir / "truth.csv")
    save_config(cfg, args.out_dir / "config_used.yaml")
    print(f"database written to {result.db_dir} "
          f"({result.state.map.point_count()} map points, "
          f"{len(result.state.trajectory)} reference poses)")
    return EXIT_OK


def _cmd_repeat(args) -> int:
    cfg = _load_cfg(args)
    world = _world_from_args(args, cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_repeat(world, args.db, cfg,
                        start=Pose2D(args.start_x, args.start_y,
                                     args.start_theta),
                        reverse=args.reverse)
    if not result.init.success:
        print(f"localization initialization failed: {result.init.reason}",
              file=sys.stderr)
        return EXIT_ABORT
    save_run_log(args.out_dir / "run_log.csv", result.log_rows)
    if result.executed is not None:
        result.executed.save_csv(args.out_dir / "executed.csv")
    save_config(cfg, args.out_dir / "config_used.yaml")
    print(f"repeat finished with status {result.status.value} "
          f"after {len(result.log_rows)} ticks")
    if result.status is not Status.GOAL_REACHED:
        return EXIT_ABORT
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = _load_cfg(args)
    db = run_replay(args.scans, cfg, args.out_dir / "db")
    print(f"replayed database written to {db}")
    return EXIT_OK


def _require_rows(where, rows: int, needed: int, use: str) -> None:
    if rows < needed:
        raise CsvFormatError(f"{where}: {rows} rows; {use} needs at least "
                             f"{needed}")


def _cmd_cross_track(args) -> int:
    executed = Trajectory.load_csv(args.executed)
    reference = Trajectory.load_csv(args.reference)
    _require_rows(args.executed, len(executed), 2, "an executed trajectory")
    _require_rows(args.reference, len(reference), analysis.CURVATURE_WINDOW,
                  "a reference's curvature fit")
    series = analysis.cross_track_series(executed, reference)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    series.save_csv(args.out_dir / "cross_track.csv")
    print(f"median cross-track error {np.median(series.eps_ct):.4f} m "
          f"over {len(series)} samples")
    return EXIT_OK


def _cmd_curvature_bins(args) -> int:
    series = analysis.CrossTrackSeries.load_csv(*args.cross_track)
    _require_rows(", ".join(map(str, args.cross_track)), len(series), 1,
                  "curvature binning")
    stats = analysis.bin_by_curvature(series)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stats.save_csv(args.out_dir / "bins.csv")
    print(f"wrote {args.out_dir / 'bins.csv'}")
    return EXIT_OK


def _registered_scans(args, cfg: GlobalConfig, vmap, trajectory, only=None):
    """Register each logged scan in the database map ``vmap`` from the run's
    logged prior as the log is read, or only the one at index ``only``,
    reading the log no further. Scans left empty by the input filters are
    skipped. Yields (index, T_hat, scan_in_map)."""
    log = read_scan_log(args.scans, cfg.prior.beta, trajectory.positions[0])
    if vmap.registration_reference() is None:
        raise RegistrationFailure("map has no usable normals")
    for i, (scan, window) in enumerate(log):
        if only in (None, i):
            result = localize(vmap, scan, window, cfg.registration)
            if result is not None:
                yield i, result.T_hat, result.reading_in_map
        if only is not None and i >= only:
            return


def _cmd_overlap(args) -> int:
    cfg = _load_cfg(args)
    vmap, trajectory = load_database(args.db)
    ids, pcts = [], []
    for i, _, scan_g in _registered_scans(args, cfg, vmap, trajectory):
        ids.append(i)
        pcts.append(analysis.scan_overlap(scan_g, vmap, args.threshold))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(args.out_dir / "overlap.csv", ["scan_id", "pct"], zip(ids, pcts))
    print(f"mean overlap {np.mean(pcts):.1f}% over {len(ids)} scans")
    return EXIT_OK


def _cmd_perturbation(args) -> int:
    cfg = _load_cfg(args)
    vmap, trajectory = load_database(args.db)
    found = next(_registered_scans(args, cfg, vmap, trajectory,
                                   only=args.scan_index), None)
    if found is None:
        print(f"scan index {args.scan_index} not found", file=sys.stderr)
        return EXIT_IO
    _, t_hat, scan_g = found
    scan_l = transform_cloud(scan_g, t_hat.inverse())
    map_l = transform_cloud(vmap.registration_reference()[0], t_hat.inverse())
    offsets, errors, std = analysis.perturbation_uncertainty(
        scan_l, map_l, cfg.registration)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(args.out_dir / "perturbation.csv", ["offset", "error"],
              zip(offsets, errors))
    print(f"perturbation std {std:.4f} over {np.isfinite(errors).sum()} offsets")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    """Fast built-in oracle checks covering the core numeric paths."""
    from .controller import (ControllerConfig, FrenetState, compute_command)
    from .geom import FRAME_LIDAR, PointCloud, RigidTransform
    from .icp import RegistrationConfig, register
    from .npcd import read_npcd, write_npcd
    import tempfile

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    ctrl = ControllerConfig()
    f0 = FrenetState(x_t=0.0, x_n=0.0, theta_e=0.0, d_g=100.0)
    c0 = compute_command(f0, ctrl)
    check("controller on-path zero steering", abs(c0.omega) < 1e-12)
    f1 = FrenetState(x_t=0.0, x_n=10.0, theta_e=0.0, d_g=100.0)
    check("controller omega clamp", compute_command(f1, ctrl).omega == -1.0)
    check("controller v_x clamp low",
          compute_command(FrenetState(0, 0, 0, d_g=0.2), ctrl).v_x == 0.5)

    rng = np.random.default_rng(0)
    ground = rng.uniform(-10, 10, (2000, 2))
    pts = np.column_stack([ground, np.zeros(len(ground))])
    wall_x = np.column_stack([np.full(500, 5.0), rng.uniform(-10, 10, 500),
                              rng.uniform(0, 3, 500)])
    wall_y = np.column_stack([rng.uniform(-10, 10, 500), np.full(500, 5.0),
                              rng.uniform(0, 3, 500)])
    ref = PointCloud(np.vstack([pts, wall_x, wall_y]), FRAME_MAP)
    ref = compute_normals(ref, 15,
                          viewpoints=np.tile([0.0, 0.0, 1.0], (len(ref), 1)))
    reading = PointCloud(ref.points.copy(), FRAME_LIDAR)
    prior = RigidTransform.from_yaw(0.03, [0.2, -0.1, 0.05], "L", "G")
    res = register(reading, ref, prior,
                   RegistrationConfig(eta_s=1.0, rng_seed=0))
    err = np.linalg.norm(res.T_hat.translation) + abs(res.T_hat.yaw)
    check("icp recovers identity from offset prior", err < 0.02)
    rp = res.T_hat.rotation
    check("icp yaw-only correction",
          abs(rp[2, 0]) < 1e-12 and abs(rp[2, 1]) < 1e-12)

    with tempfile.TemporaryDirectory() as td:
        cloud = PointCloud(rng.normal(size=(100, 3)), FRAME_LIDAR,
                           timestamps=np.sort(rng.random(100)))
        write_npcd(Path(td) / "t.npcd", cloud)
        back = read_npcd(Path(td) / "t.npcd")
        check("npcd round trip bit-exact",
              np.array_equal(cloud.points, back.points) and
              np.array_equal(cloud.timestamps, back.timestamps))

    vals = rng.random(1001)
    check("quantile oracle agreement",
          abs(analysis.quantile_brute_force(vals, 0.25) -
              float(np.percentile(vals, 25))) < 1e-12)

    if failures:
        print(f"{len(failures)} selftest check(s) failed", file=sys.stderr)
        return 1
    print("all selftest checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "world":
            return _cmd_world_gen(args)
        if args.command == "teach":
            return _cmd_teach(args)
        if args.command == "repeat":
            return _cmd_repeat(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "analyze":
            return {"cross-track": _cmd_cross_track,
                    "curvature-bins": _cmd_curvature_bins,
                    "overlap": _cmd_overlap,
                    "perturbation": _cmd_perturbation}[args.analyze_command](args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TeachAbort, RegistrationFailure, DegenerateRegistration,
            PriorCoverageError) as exc:
        print(f"mission abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (OSError, MapLoadError, NpcdError, PersistenceError,
            CsvFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
