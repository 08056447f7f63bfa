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

The functions below are the one definition of these scenes and their
measurements; the acceptance criteria on degeneracy and snow accumulation
call them too.

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
START_AREAS = (("open-ground", 25.0, 0.0), ("building", 44.0, 0.5))
SWEEP_X = np.linspace(22.0, 28.0, 5)    # open-ground start poses, y = 0
CENTERLINES = {
    "corridor": [(-40.0, 0.0), (40.0, 0.0)],
    # crosses itself at the origin: a second corridor along y
    "intersection": [(-40.0, 0.0), (0.0, 0.0), (0.0, 40.0), (0.0, -40.0),
                     (0.0, 0.0), (40.0, 0.0)],
}


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


def snow_scenes():
    """The snow study's config and its worlds, ``{"unchanged": ...,
    "accumulated": ...}``: noise-free exact geometry, so the only degradation
    is the changed surfaces."""
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
    return cfg, {"unchanged": clean,
                 "accumulated": accumulate_snow(clean, SNOW_DEPTH,
                                                SNOW_FACTORS)}


def teach_snowfield(cfg, world, out_dir):
    """Teach the trail in ``world``; returns the saved (map, trajectory)."""
    res = run_teach(world, cfg, waypoints=[(50.0, 0.0)], out_dir=out_dir,
                    v_teach=1.0, max_ticks=2000)
    return load_database(res.db_dir)


def start_area_inits(cfg, vmap, worlds):
    """Localization bootstrap at each start area in each world, keyed
    ``(area, world name)``."""
    return {(area, name): initialize_at_rest(world, vmap, cfg,
                                             Pose2D(x, y, 0.0), 777)
            for area, x, y in START_AREAS for name, world in worlds.items()}


def overlap_sweep(cfg, vmap, worlds):
    """Bootstrap overlap (%) at each ``SWEEP_X`` start, per world name."""
    return {name: [initialize_at_rest(world, vmap, cfg, Pose2D(x, 0.0, 0.0),
                                      800 + i).overlap
                   for i, x in enumerate(SWEEP_X)]
            for name, world in worlds.items()}


def degeneracy_world(kind):
    """The ``"corridor"`` or ``"intersection"`` forest of study B."""
    return generate_world(0, WorldParams(
        trail_length=80.0, tree_density=0.06, extent=(-40.0, 40.0, -40.0, 40.0),
        centerline=CENTERLINES[kind], terrain_amplitude=0.2))


def perturbation_profile(world):
    """(offsets, errors, std) of one scan at the origin, perturbed along x,
    against a denser reference scan from the same pose."""
    lp = LidarParams(beams=16, azimuth_steps=600, rate=10.0, max_range=40.0,
                     range_noise_sd=0.01)
    lp_ref = LidarParams(beams=24, azimuth_steps=900, rate=10.0,
                         max_range=40.0, range_noise_sd=0.01)
    at_origin = [[0.0], [0.0], [0.0], [0.0]]   # (stamp, x, y, yaw), at rest
    scan = simulate_lidar(world, at_origin, lp, seed=3)
    ref = simulate_lidar(world, at_origin, lp_ref, seed=4)
    map_l = compute_normals(PointCloud(ref.points, "L"), 15,
                            viewpoints=np.zeros(3))
    return perturbation_uncertainty(PointCloud(scan.points, "L"), map_l)


def snow_study(out_dir: Path):
    cfg, worlds = snow_scenes()
    print("teaching in the unchanged world ...")
    vmap, traj = teach_snowfield(cfg, worlds["unchanged"], out_dir / "db")
    print(f"  taught {traj.total_length():.1f} m")

    rows = []
    for (area, name), r in start_area_inits(cfg, vmap, worlds).items():
        rows.append((area, name, r.success, round(r.overlap, 2), r.reason))
        print(f"  {area:12s} {name:12s} success={str(r.success):5s} "
              f"overlap={r.overlap:5.1f}%  {r.reason}")
    write_csv(out_dir / "snow_init.csv",
              ["start_area", "world", "success", "overlap_pct", "reason"], rows)

    sweep = overlap_sweep(cfg, vmap, worlds)
    write_csv(out_dir / "snow_overlap_sweep.csv", ["world", "x", "overlap_pct"],
              [(name, round(x, 1), round(overlap, 2))
               for name, overlaps in sweep.items()
               for x, overlap in zip(SWEEP_X, overlaps)])
    for name, overlaps in sweep.items():
        print(f"  open-ground overlap, {name}: mean {np.mean(overlaps):.2f}%")


def corridor_study(out_dir: Path):
    for kind in CENTERLINES:
        offs, errs, std = perturbation_profile(degeneracy_world(kind))
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
