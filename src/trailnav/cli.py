"""Command-line surface: teach/repeat/replay runs and metric analysis.
Exit codes: 0 success, 2 config error, 3 mission abort
(safety/localization), 4 I/O error or malformed input file."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, GlobalConfig, load_config, save_config
from .controller import Pose2D, Status
from .csvio import CsvFormatError, write_csv
from .geom import transform_cloud
from .icp import RegistrationFailure
from .mapping import MapLoadError, PersistenceError
from .mission import TeachAbort, load_database, localize, next_anchor
from .npcd import NpcdError
from .prior import PriorCoverageError, dead_reckon
from .runner import (RUN_LOG_HEADER, read_scan_log, run_repeat, run_replay,
                     run_teach)
from .simworld import generate_world
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


def _add_command(sub, name, run, *options, **kwargs):
    """The sub-command ``name``, which ``main`` executes as ``run(args)``,
    with the shared ``options``; a command declares only those it reads, so
    argparse rejects the rest."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trailnav")
    sub = ap.add_subparsers(dest="command", required=True)

    teach = _add_command(sub, "teach", _cmd_teach, "--config", "--seed",
                         "--out-dir", help="run a scripted teach pass")
    teach.add_argument("--log-scans", action="store_true",
                       help="write each raw scan to OUT_DIR/scans as it is "
                       "simulated, plus imu/odom for replay")

    rep = _add_command(sub, "repeat", _cmd_repeat, "--config", "--seed",
                       "--out-dir", help="autonomous repeat of a database")
    rep.add_argument("--db", type=Path, required=True)
    rep.add_argument("--reverse", action="store_true")
    rep.add_argument("--start-x", type=float, default=0.0)
    rep.add_argument("--start-y", type=float, default=0.0)
    rep.add_argument("--start-theta", type=float, default=0.0)

    replay = _add_command(sub, "replay", _cmd_replay, "--config", "--out-dir",
                          help="run logged scans through the pipeline")
    replay.add_argument("--scans", type=Path, required=True)

    an = sub.add_parser("analyze", help="evaluation metrics")
    an_sub = an.add_subparsers(dest="analyze_command", required=True)

    ct = _add_command(an_sub, "cross-track", _cmd_cross_track, "--out-dir")
    ct.add_argument("--executed", type=Path, required=True)
    ct.add_argument("--reference", type=Path, required=True)

    cb = _add_command(an_sub, "curvature-bins", _cmd_curvature_bins,
                      "--out-dir")
    cb.add_argument("--cross-track", type=Path, nargs="+", required=True)

    ov = _add_command(an_sub, "overlap", _cmd_overlap, "--config", "--out-dir")
    ov.add_argument("--db", type=Path, required=True)
    ov.add_argument("--scans", type=Path, required=True)
    ov.add_argument("--threshold", type=float, default=0.5)

    pe = _add_command(an_sub, "perturbation", _cmd_perturbation, "--config",
                      "--out-dir")
    pe.add_argument("--db", type=Path, required=True)
    pe.add_argument("--scans", type=Path, required=True)
    pe.add_argument("--scan-index", type=int, default=0)

    return ap


def _load_cfg(args) -> GlobalConfig:
    cfg = load_config(args.config) if args.config else GlobalConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _cmd_teach(args) -> int:
    cfg = _load_cfg(args)
    world = generate_world(cfg.seed, cfg.world)
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
    world = generate_world(cfg.seed, cfg.world)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_repeat(world, args.db, cfg,
                        start=Pose2D(args.start_x, args.start_y,
                                     args.start_theta),
                        reverse=args.reverse)
    if not result.init.success:
        print(f"localization initialization failed: {result.init.reason}",
              file=sys.stderr)
        return EXIT_ABORT
    write_csv(args.out_dir / "run_log.csv", RUN_LOG_HEADER, result.log_rows)
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


def _registered_scans(args, cfg: GlobalConfig, vmap, only=None):
    """Register each logged scan in the database map ``vmap`` as the log is
    read, each prior window anchored as the logged run anchored it: scan 0 at
    the logged start, every later one at ``mission.next_anchor``. With
    ``only``, stop after that index, reading the log no further. Scans left
    empty by the input filters yield nothing. Yields (index, T_hat,
    scan_in_map)."""
    anchor, scans = read_scan_log(args.scans)
    for i, (scan, stamp, samples) in enumerate(scans):
        window = dead_reckon(anchor, stamp, *samples, cfg.prior.beta)
        result = localize(vmap, scan, window, cfg.registration)
        anchor = next_anchor(result, window)
        if result is not None and only in (None, i):
            yield i, result.T_hat, result.reading_in_map
        if i == only:
            return


def _cmd_overlap(args) -> int:
    cfg = _load_cfg(args)
    vmap, _ = load_database(args.db)
    ids, pcts = [], []
    for i, _, scan_g in _registered_scans(args, cfg, vmap):
        ids.append(i)
        pcts.append(analysis.scan_overlap(scan_g, vmap, args.threshold))
    if not ids:
        raise CsvFormatError(f"{args.scans / 'scans.csv'}: no logged scan "
                             f"registered")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(args.out_dir / "overlap.csv", ["scan_id", "pct"], zip(ids, pcts))
    print(f"mean overlap {np.mean(pcts):.1f}% over {len(ids)} scans")
    return EXIT_OK


def _cmd_perturbation(args) -> int:
    cfg = _load_cfg(args)
    vmap, _ = load_database(args.db)
    found = (next(_registered_scans(args, cfg, vmap, only=args.scan_index),
                  None) if args.scan_index >= 0 else None)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TeachAbort, RegistrationFailure, PriorCoverageError) as exc:
        print(f"mission abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (OSError, MapLoadError, NpcdError, PersistenceError,
            CsvFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
