#!/usr/bin/env python3
"""Environment-degradation studies: snow accumulation and corridor degeneracy.

Study A — snow accumulation. Teaches a trail that crosses an open snowfield
dotted with low bushes and passes a building, applies heterogeneous snow
accumulation (ground fully raised, foliage shells slightly displaced), then
compares repeat-phase localization bootstraps between the unchanged and the
accumulated world at an open-ground and a building-adjacent start area.

Study B — corridor degeneracy. Measures the longitudinal perturbation
uncertainty of a single scan registered against a dense reference in a long
tree-walled corridor versus a four-way intersection of corridors.

Usage:
    python3 scripts/degradation_study.py --out-dir out/degradation
"""

import argparse
from pathlib import Path

import numpy as np

from trailnav.analysis import perturbation_uncertainty
from trailnav.config import GlobalConfig
from trailnav.controller import Pose2D
from trailnav.csvio import write_csv
from trailnav.geom import PointCloud
from trailnav.mapping import compute_normals
from trailnav.mission import load_database
from trailnav.runner import initialize_at_rest, run_teach
from trailnav.simworld import (LidarParams, Trees, WorldParams,
                               accumulate_snow, generate_world, simulate_lidar)

SNOW_DEPTH = 0.3
SNOW_FACTORS = {"ground": 1.0, "vegetation": 0.2}


def add_bushes(world, rng, x_range, n=120):
    """Low shrubs flanking the trail; 0.3 m of snow buries them entirely."""
    bx = rng.uniform(x_range[0], x_range[1], n)
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    by = side * rng.uniform(2.6, 9.0, n)
    bz = np.asarray(world.ground.sample(bx, by), dtype=float)
    t = world.trees
    world.trees = Trees(
        xy=np.vstack([t.xy, np.column_stack([bx, by])]),
        trunk_radius=np.concatenate([t.trunk_radius, np.full(n, 0.05)]),
        trunk_top=np.concatenate([t.trunk_top, bz + 0.02]),
        base_z=np.concatenate([t.base_z, bz]),
        foliage_center=np.vstack([t.foliage_center,
                                  np.column_stack([bx, by, bz])]),
        foliage_radius=np.concatenate([t.foliage_radius, np.full(n, 0.23)]))
    return world


def snow_study(out_dir: Path):
    cfg = GlobalConfig(seed=0)
    cfg.sim.lidar = LidarParams(beams=16, azimuth_steps=360, rate=5.0,
                                max_range=15.0, range_noise_sd=0.0)
    cfg.registration.r = 15.0
    cfg.mapping.r = 15.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.15

    params = WorldParams(trail_length=50.0, tree_density=0.05,
                         terrain_amplitude=0.0,
                         extent=(-25.0, 75.0, -30.0, 30.0),
                         clearing_center=(25.0, 0.0), clearing_radius=18.0,
                         buildings=[(45.0, 6.0, 8.0, 5.0, 4.0)])
    clean = add_bushes(generate_world(11, params),
                       np.random.default_rng(99), (12.0, 38.0))
    print("teaching in the unchanged world ...")
    res = run_teach(clean, cfg, waypoints=[(50.0, 0.0)],
                    out_dir=out_dir / "db", v_teach=1.0, max_ticks=2000)
    vmap, traj = load_database(res.db_dir)
    print(f"  taught {traj.total_length():.1f} m")
    snowy = accumulate_snow(clean, SNOW_DEPTH, SNOW_FACTORS)

    def init_at(world, x, y, seed):
        return initialize_at_rest(world, vmap, cfg, Pose2D(x, y, 0.0), seed)

    rows = []
    for area, x, y in (("open-ground", 25.0, 0.0), ("building", 44.0, 0.5)):
        for wname, world in (("unchanged", clean), ("accumulated", snowy)):
            r = init_at(world, x, y, 777)
            rows.append((area, wname, r.success, round(r.overlap, 2),
                         r.reason))
            print(f"  {area:12s} {wname:12s} success={str(r.success):5s} "
                  f"overlap={r.overlap:5.1f}%  {r.reason}")
    write_csv(out_dir / "snow_init.csv",
              ["start_area", "world", "success", "overlap_pct", "reason"], rows)

    sweep = []
    for wname, world in (("unchanged", clean), ("accumulated", snowy)):
        for i, x in enumerate(np.linspace(22.0, 28.0, 5)):
            sweep.append((wname, round(x, 1),
                          round(init_at(world, x, 0.0, 800 + i).overlap, 2)))
    write_csv(out_dir / "snow_overlap_sweep.csv", ["world", "x", "overlap_pct"],
              sweep)
    for wname in ("unchanged", "accumulated"):
        vals = [s[2] for s in sweep if s[0] == wname]
        print(f"  open-ground overlap, {wname}: mean {np.mean(vals):.2f}%")


def corridor_study(out_dir: Path):
    def build(kind):
        params = WorldParams(trail_length=80.0, tree_density=0.06,
                             extent=(-40.0, 40.0, -40.0, 40.0),
                             centerline=[(-40.0, 0.0), (40.0, 0.0)],
                             terrain_amplitude=0.2)
        w = generate_world(0, params)
        if kind == "intersection":
            keep = np.abs(w.trees.xy[:, 0]) > 2.25 + w.trees.trunk_radius
            t = w.trees
            w.trees = Trees(xy=t.xy[keep], trunk_radius=t.trunk_radius[keep],
                            trunk_top=t.trunk_top[keep],
                            base_z=t.base_z[keep],
                            foliage_center=t.foliage_center[keep],
                            foliage_radius=t.foliage_radius[keep])
        return w

    lp = LidarParams(beams=16, azimuth_steps=600, rate=10.0, max_range=40.0,
                     range_noise_sd=0.01)
    lp_ref = LidarParams(beams=24, azimuth_steps=900, rate=10.0,
                         max_range=40.0, range_noise_sd=0.01)
    for kind in ("corridor", "intersection"):
        world = build(kind)
        scan = simulate_lidar(world, Pose2D(0.0, 0.0, 0.0), lp, seed=3)
        ref = simulate_lidar(world, Pose2D(0.0, 0.0, 0.0), lp_ref, seed=4)
        map_l = compute_normals(PointCloud(ref.points, "L"), 15,
                                viewpoints=np.zeros(3))
        offs, errs, std = perturbation_uncertainty(
            PointCloud(scan.points, "L"), map_l)
        write_csv(out_dir / f"perturbation_{kind}.csv", ["offset_m", "error"],
                  zip(offs, errs))
        print(f"  {kind:12s} profile std {std:10.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out/degradation"))
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    print("== study A: snow accumulation ==")
    snow_study(args.out_dir)
    print("== study B: corridor degeneracy ==")
    corridor_study(args.out_dir)
    print(f"outputs in {args.out_dir}")


if __name__ == "__main__":
    main()
