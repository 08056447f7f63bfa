#!/usr/bin/env python3
"""Teach a path through a procedural forest, then repeat it autonomously.

Generates a seeded world with two constant-curvature bends, drives the teach
pass with the scripted waypoint follower, stores the map + reference
trajectory, runs a repeat mission, and reports cross-track statistics.

Usage:
    python3 scripts/teach_repeat_demo.py --out-dir out/demo [--seed 4]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from trailnav.analysis import bin_by_curvature, cross_track_series
from trailnav.config import GlobalConfig, save_config
from trailnav.controller import Pose2D
from trailnav.runner import run_repeat, run_teach, save_run_log
from trailnav.simworld import LidarParams, WorldParams, generate_world


def demo_path():
    """~120 m: straight, left 0.1 1/m bend, straight, right bend, straight."""
    def arc(cx, cy, r, a0, a1, n):
        a = np.linspace(a0, a1, n)
        return np.column_stack([cx + r * np.cos(a), cy + r * np.sin(a)])

    parts = [np.column_stack([np.linspace(0, 35, 8), np.zeros(8)]),
             arc(35, 10, 10, -np.pi / 2, 0.0, 7)[1:],
             np.column_stack([np.full(6, 45.0), np.linspace(10, 35, 6)])[1:],
             arc(55, 35, 10, np.pi, np.pi / 2, 7)[1:],
             np.column_stack([np.linspace(55, 90, 8), np.full(8, 45.0)])[1:]]
    return np.vstack(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out/demo"))
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--v-repeat", type=float, default=None,
                    help="override nominal repeat speed (m/s)")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cfg = GlobalConfig(seed=args.seed)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=200, rate=2.5,
                                max_range=20.0, range_noise_sd=0.01)
    cfg.registration.r = 20.0
    cfg.mapping.r = 20.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.18
    if args.v_repeat is not None:
        cfg.path_following.v_nom = args.v_repeat
    save_config(cfg, args.out_dir / "config_used.yaml")

    path = demo_path()
    world = generate_world(args.seed, WorldParams(
        trail_length=125.0, tree_density=0.05, trail_width=4.5,
        extent=(-15.0, 105.0, -20.0, 60.0),
        centerline=[tuple(p) for p in path]))

    print("teaching ...")
    t0 = time.perf_counter()
    res = run_teach(world, cfg, waypoints=[tuple(p) for p in path[1:]],
                    out_dir=args.out_dir / "db", v_teach=1.0, max_ticks=2000)
    traj = res.state.trajectory
    print(f"  taught {traj.total_length():.1f} m "
          f"({len(traj)} reference poses, "
          f"{res.state.map.point_count()} map points) "
          f"in {time.perf_counter() - t0:.1f}s")

    print("repeating ...")
    t0 = time.perf_counter()
    rr = run_repeat(world, res.db_dir, cfg, start=Pose2D(0.1, 0.1, 0.02),
                    max_ticks=2000)
    elapsed = time.perf_counter() - t0
    print(f"  status={rr.status.name if rr.status else 'init failed'} "
          f"in {elapsed:.1f}s "
          f"(init overlap {rr.init.overlap:.1f}%)")
    if rr.status is None:
        raise SystemExit(f"initialization failed: {rr.init.reason}")

    save_run_log(args.out_dir / "repeat_log.csv", rr.log_rows)
    series = cross_track_series(rr.executed, rr.mission.trajectory)
    series.save_csv(args.out_dir / "cross_track.csv")
    bin_by_curvature(series).save_csv(args.out_dir / "bins.csv")
    print(f"  cross-track: median {np.median(series.eps_ct):.3f} m, "
          f"p90 {np.percentile(series.eps_ct, 90):.3f} m, "
          f"max {series.eps_ct.max():.3f} m")
    print(f"outputs in {args.out_dir}")


if __name__ == "__main__":
    main()
