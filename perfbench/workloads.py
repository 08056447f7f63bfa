"""The benchmark's two closed-loop workloads and their output checks.

Both take their inputs from the seed alone: the world is fixed per workload,
and the seed drives the lidar noise and foliage draws (``GlobalConfig.seed``)
and, for the laps, each lap's start offset.

A traced run runs the timed work twice, untraced and then traced, on the same
inputs; ``Run.overhead_s`` is the difference of their mean ticks.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from trailnav.config import GlobalConfig
from trailnav.controller import Pose2D, Status
from trailnav.mission import TeachAbort
from trailnav.runner import run_repeat, run_teach
from trailnav.simworld import LidarParams, WorldParams, generate_world

import oracles
from harness import Probe, Tracer, speed_factor

# teach_forest_default: setup is world generation plus the first ticks, which
# grow the map from empty; the timed ticks follow in the same run_teach call.
TEACH_WARMUP_TICKS = 2
TEACH_MIN_TICKS = 16
TEACH_TICK_S = 1.5          # rough tick time; turns --seconds into ticks

# repeat_laps_small: a 40 m straight, a left quarter turn of radius 10 m and
# another 40 m straight, taught at 1.5 m/s and repeated lap after lap.
LAPS_WORLD_SEED = 4
LAP_SCAN_SEED_BASE = 10_000
LAP_START_OFFSET = 0.01     # m, uniform in each of x and y

# Limits of the output checks; README.md says where each comes from.
CROSS_TRACK_MEDIAN_LIMIT = 0.15
CROSS_TRACK_MAX_LIMIT = 1.0
UNIT_NORMAL_TOL = 1e-9


@dataclass
class Run:
    """One workload run: its timings, what it attempted, and its checks."""

    probe: Probe
    period: float                       # simulated seconds per tick
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    digest: str = ""
    tracer: Tracer | None = None
    # Traced runs: mean timed tick of the untraced pass, and traced minus
    # untraced mean tick; seconds at the reference speed.
    untraced_tick_s: float | None = None
    overhead_s: float | None = None


def small_config(seed: int) -> GlobalConfig:
    """The acceptance tests' "small" config: 8x200 beams, 20 m, 2.5 Hz,
    voxel edge 10 m, insertion distance 0.18 m."""
    cfg = GlobalConfig(seed=seed)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=200, rate=2.5,
                                max_range=20.0, range_noise_sd=0.01)
    cfg.registration.r = 20.0
    cfg.mapping.r = 20.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.18
    return cfg


def laps_path() -> np.ndarray:
    straight = np.column_stack([np.linspace(0.0, 40.0, 9), np.zeros(9)])
    a = np.linspace(-np.pi / 2, 0.0, 9)[1:]
    turn = np.column_stack([40.0 + 10.0 * np.cos(a), 10.0 + 10.0 * np.sin(a)])
    up = np.column_stack([np.full(8, 50.0), np.linspace(15.0, 50.0, 8)])
    return np.vstack([straight, turn, up])


def laps_world(path):
    """Forest around the path, cropped to 15 m beyond it in x, 20 m in y."""
    return generate_world(LAPS_WORLD_SEED, WorldParams(
        trail_length=float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum()),
        tree_density=0.05, trail_width=4.5,
        extent=(path[:, 0].min() - 15.0, path[:, 0].max() + 15.0,
                path[:, 1].min() - 20.0, path[:, 1].max() + 20.0),
        centerline=[tuple(p) for p in path]))


def map_arrays(vmap):
    """Points and normals of every voxel, local or spilled, in key order."""
    pts, normals = [], []
    for key in sorted(vmap.all_keys()):
        chunk = vmap.voxels[key] if key in vmap.voxels else vmap._read_chunk(key)
        pts.append(chunk.points)
        normals.append(chunk.normals)
    return np.vstack(pts), np.vstack(normals)


def pose_array(poses) -> np.ndarray:
    return np.array([[*p.translation, p.yaw] for p in poses])


def check_map(pts, normals, rho: float, problems: list) -> None:
    """The insertion gate leaves no two map points within rho of each other,
    and every normal is finite and of unit length."""
    close = cKDTree(pts).query_pairs(rho)
    if close:
        problems.append(f"{len(close)} map point pairs within rho={rho} m")
    finite = np.isfinite(normals).all(axis=1)
    if not finite.all():
        problems.append(f"{int((~finite).sum())} map points lack a normal")
    off = np.abs(np.linalg.norm(normals[finite], axis=1) - 1.0)
    if len(off) and off.max() > UNIT_NORMAL_TOL:
        problems.append(f"normal length off by {off.max():.2e}")


def _mean_tick(probe: Probe) -> float:
    """Mean timed tick, in seconds at the reference speed."""
    return (probe.wall_s("timed", "end") * probe.factor("timed")
            / probe.tick_count["timed"])


def teach_forest_default(seed: int, seconds: int, traced: bool) -> Run:
    """Closed-loop run_teach at the default config on the default world."""
    timed_ticks = max(TEACH_MIN_TICKS, math.ceil(seconds / TEACH_TICK_S))
    run = _teach_pass(seed, timed_ticks, Probe(TEACH_WARMUP_TICKS))
    if traced:
        probe = Probe(TEACH_WARMUP_TICKS)
        traced_run = _teach_pass(seed, timed_ticks, probe, Tracer(probe))
        traced_run.untraced_tick_s = _mean_tick(run.probe)
        traced_run.overhead_s = _mean_tick(probe) - traced_run.untraced_tick_s
        if traced_run.digest != run.digest:
            traced_run.problems.append("tracing changed the outputs")
        run = traced_run
    return run


def _teach_pass(seed, timed_ticks, probe, tracer=None) -> Run:
    cfg = GlobalConfig(seed=seed)
    run = Run(probe, 1.0 / cfg.sim.lidar.rate, attempted=timed_ticks,
              tracer=tracer)
    with probe.installed(), (tracer.active() if tracer
                             else contextlib.nullcontext()):
        probe.start()
        world = generate_world(0, WorldParams())
        try:
            res = run_teach(world, cfg,
                            waypoints=[(world.params.trail_length, 0.0)],
                            v_teach=1.0,
                            max_ticks=TEACH_WARMUP_TICKS + timed_ticks)
        except TeachAbort as exc:
            res = None
            run.failed = run.attempted
            run.problems.append(str(exc))
        probe.mark("end")
    if res is None:
        return run

    registered = pose_array(res.state.raw_poses)
    truth = res.truth.positions
    if len(registered) != len(truth):
        run.problems.append(f"{len(registered)} registered poses for "
                            f"{len(truth)} ticks")
    else:
        err = np.linalg.norm(registered[:, :3] - truth, axis=1)
        run.notes.append(f"registered pose error: max {err.max():.4f} m, "
                         f"limit rho = {cfg.mapping.rho} m")
        if err.max() > cfg.mapping.rho:
            run.problems.append(f"registered pose {int(err.argmax())} is "
                                f"{err.max():.3f} m from the true pose")
    pts, normals = map_arrays(res.state.map)
    check_map(pts, normals, cfg.mapping.rho, run.problems)
    run.notes.append(f"map: {len(pts)} points")
    run.digest = oracles.digest(pts, normals, registered)
    return run


def repeat_laps_small(seed: int, seconds: int, traced: bool) -> Run:
    """Teach the laps path once (setup), then repeat it lap after lap from
    the saved database until ``seconds`` of timed work have passed."""
    cfg = small_config(seed)
    probe = Probe()
    tracer = Tracer(probe) if traced else None
    run = Run(probe, 1.0 / cfg.sim.lidar.rate, tracer=tracer)
    db_dir = Path(tempfile.mkdtemp(prefix="laps-db-"))
    offsets = np.random.default_rng([seed, 1])
    laps = []
    # Mean tick per lap by tracing, at the reference speed of the kernel
    # runs made during that lap (falling back to the whole timed part's).
    tick_s = {False: [], True: []}

    def lap(start, tracing):
        t0, n0, k0 = probe.clock(), probe.ticks, len(probe.kernel_s["timed"])
        with tracer.active() if tracing else contextlib.nullcontext():
            rr = run_repeat(world, db_dir, cfg, start=start, max_ticks=2000,
                            scan_seed_base=LAP_SCAN_SEED_BASE + 1000 * len(laps))
        runs = probe.kernel_s["timed"][k0:] or probe.kernel_s["timed"]
        tick_s[tracing].append((probe.clock() - t0) * speed_factor(runs)
                               / (probe.ticks - n0))
        return rr

    with probe.installed(), _removed(db_dir):
        probe.start()
        with tracer.active() if traced else contextlib.nullcontext():
            path = laps_path()
            world = laps_world(path)
            taught = run_teach(world, cfg, waypoints=[tuple(p) for p in path[1:]],
                               out_dir=db_dir, v_teach=1.5, max_ticks=2000)
        probe.start_timed()
        while not laps or probe.clock() - probe.marks["timed"] < seconds:
            start = Pose2D(*offsets.uniform(-LAP_START_OFFSET,
                                            LAP_START_OFFSET, 2), 0.0)
            plain = lap(start, False) if traced else None
            laps.append(lap(start, traced))
            if plain is not None and _lap_positions(plain) != \
                    _lap_positions(laps[-1]):
                run.problems.append("tracing changed the outputs")
        probe.mark("end")
    if traced:
        run.untraced_tick_s = statistics.fmean(tick_s[False])
        run.overhead_s = statistics.fmean(tick_s[True]) - run.untraced_tick_s

    teach_xy = taught.truth.positions[:, :2]
    digest_parts = [*map_arrays(taught.state.map),
                    pose_array(taught.state.raw_poses)]
    for i, rr in enumerate(laps):
        run.attempted += 1 + (rr.mission.scan_count if rr.mission else 0)
        interventions = rr.mission.intervention_count if rr.mission else 0
        run.failed += interventions
        if not (rr.init.success and rr.status is Status.GOAL_REACHED):
            run.failed += 1
            run.problems.append(f"lap {i}: init {rr.init.success} "
                                f"({rr.init.reason}), status {rr.status}")
            continue
        dist = oracles.point_to_polyline(rr.truth.positions[:, :2], teach_xy)
        med, worst = float(np.median(dist)), float(dist.max())
        run.notes.append(f"lap {i}: {rr.mission.scan_count} ticks, cross-track "
                         f"median {med:.4f} m, max {worst:.4f} m")
        if med >= CROSS_TRACK_MEDIAN_LIMIT or worst >= CROSS_TRACK_MAX_LIMIT:
            run.problems.append(f"lap {i}: cross-track median {med:.3f} m, "
                                f"max {worst:.3f} m")
        digest_parts.append(rr.executed.positions)
    if run.failed:
        run.problems.append(f"{run.failed} failed operations")
    run.digest = oracles.digest(*digest_parts)
    return run


@contextlib.contextmanager
def _removed(path: Path):
    """Delete the directory tree at ``path`` on exit."""
    try:
        yield
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _lap_positions(rr) -> str:
    return oracles.digest(rr.executed.positions) if rr.executed else ""


WORKLOADS = {
    "teach_forest_default": teach_forest_default,
    "repeat_laps_small": repeat_laps_small,
}
