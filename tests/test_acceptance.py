"""End-to-end acceptance suite.

Each test covers one numbered system-level requirement and prints a single
``CRITERION n ... PASS/FAIL`` line with the measured values (run pytest with
``-s`` or ``-rA`` to see the lines for passing tests; a failing criterion
reproduces its measurements in the assertion message).

The closed-loop tests teach a path once per module (shared fixtures) and then
run one or more repeat missions against the stored database; everything is
seeded and deterministic.
"""

import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from trailnav.analysis import (CrossTrackSeries, bin_by_curvature,
                               cross_track_series, perturbation_uncertainty)
from trailnav.config import GlobalConfig
from trailnav.controller import (Command, ControllerConfig, FrenetState,
                                 Pose2D, Status, compute_command)
from trailnav.geom import (FRAME_LIDAR, FRAME_MAP, PointCloud, RigidTransform,
                           build_index)
from trailnav.icp import (MatchSet, RegistrationConfig, apply_input_filters,
                          gather_reference, point_to_plane_error, register)
from trailnav.mapping import (MappingConfig, VoxelMap, compute_normals,
                              insert_scan, load_map, retile, save_map)
from trailnav.mission import TeachState, level_anchor, teach_step
from trailnav.prior import dead_reckon, deskew
from trailnav.runner import _sense, _sensor_anchor, run_repeat, run_teach
from trailnav.simworld import (CLASS_BUILDING, CLASS_SNOWFALL, LidarParams,
                               RobotState, WorldParams, apply_snowfall,
                               generate_world, simulate_lidar)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from degradation_study import (degeneracy_world, overlap_sweep,  # noqa: E402
                               perturbation_profile, snow_scenes,
                               start_area_inits, teach_snowfield)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print("\n" + line)
    assert ok, line


def _small_cfg(seed=0):
    """Downscaled sensor/map settings so closed-loop runs finish quickly;
    registration and controller behavior parameters keep their defaults."""
    cfg = GlobalConfig(seed=seed)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=200, rate=2.5,
                                max_range=20.0, range_noise_sd=0.01)
    cfg.registration.r = 20.0
    cfg.mapping.r = 20.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.18
    return cfg


def _arc_pts(cx, cy, r, a0, a1, n):
    a = np.linspace(a0, a1, n)
    return np.column_stack([cx + r * np.cos(a), cy + r * np.sin(a)])


# -- criteria 1 and 3: registration recovery, yaw-only correction --------------


def _trunk_points(rng, centers, n_per=40, radius=0.2, height=4.0):
    pts = []
    for cx, cy in centers:
        az = rng.uniform(0, 2 * np.pi, n_per)
        z = rng.uniform(0.2, height, n_per)
        pts.append(np.column_stack([cx + radius * np.cos(az),
                                    cy + radius * np.sin(az), z]))
    return np.vstack(pts) if pts else np.zeros((0, 3))


def _make_scene(kind, rng):
    """Synthetic forest scenes: a tree-walled corridor, a four-way
    intersection of corridors, and scattered open woodland."""
    ground = rng.uniform(-18, 18, (2500, 2))
    pts = [np.column_stack([ground, np.zeros(len(ground))])]
    if kind == "corridor":
        n = 30
        cx = rng.uniform(-18, 18, 2 * n)
        cy = np.concatenate([rng.uniform(2.5, 6.0, n),
                             rng.uniform(-6.0, -2.5, n)])
        pts.append(_trunk_points(rng, np.column_stack([cx, cy])))
    elif kind == "intersection":
        n = 15
        for ax in range(4):
            u = rng.uniform(3.0, 16.0, n) * (1 if ax % 2 == 0 else -1)
            v = rng.uniform(2.5, 6.0, n) * (1 if ax < 2 else -1)
            cols = [u, v] if ax % 2 == 0 else [v, u]
            pts.append(_trunk_points(rng, np.column_stack(cols)))
    else:  # open woodland
        c = rng.uniform(-16, 16, (40, 2))
        c = c[np.linalg.norm(c, axis=1) > 3.0]
        pts.append(_trunk_points(rng, c))
    cloud = PointCloud(np.vstack(pts), FRAME_MAP)
    return compute_normals(cloud, 15,
                           viewpoints=np.tile([0.0, 0.0, 1.3],
                                              (len(cloud), 1)))


@pytest.fixture(scope="module")
def recovery_runs():
    """50 seeded scenes, perturbations up to 0.5 m / 10 deg yaw, default
    registration parameters."""
    runs = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        kind = ("corridor", "intersection", "open")[i % 3]
        ref = _make_scene(kind, rng)
        reading = PointCloud(ref.points.copy(), FRAME_LIDAR)
        ang = rng.uniform(0, 2 * np.pi)
        mag = rng.uniform(0, 0.5)
        yaw = rng.uniform(-np.deg2rad(10), np.deg2rad(10))
        prior = RigidTransform.from_yaw(
            yaw, [mag * np.cos(ang), mag * np.sin(ang),
                  rng.uniform(-0.1, 0.1)], "L", "G")
        cfg = RegistrationConfig(rng_seed=i)
        filt = apply_input_filters(reading, cfg)
        t0 = time.perf_counter()
        res = register(filt, ref, prior, cfg, build_index(ref))
        elapsed = time.perf_counter() - t0
        runs.append({
            "kind": kind,
            "t_err": float(np.linalg.norm(res.T_hat.translation)),
            "yaw_err_deg": float(abs(np.degrees(res.T_hat.yaw))),
            "iterations": res.iterations,
            "elapsed": elapsed,
            "rotation": res.T_hat.rotation,
        })
    return runs


def test_criterion_01_registration_recovery(recovery_runs):
    ok_runs = [r for r in recovery_runs
               if r["t_err"] < 0.02 and r["yaw_err_deg"] < 0.2]
    rate = len(ok_runs) / len(recovery_runs)
    max_iters = max(r["iterations"] for r in recovery_runs)
    max_time = max(r["elapsed"] for r in recovery_runs)
    ok = rate >= 0.95 and max_iters <= 40 and max_time < 2.0
    _report(1, "registration recovery", ok,
            f"recovered {rate:.0%} of 50 scenes (need >=95%), "
            f"max iterations {max_iters} (cap 40), "
            f"slowest scene {max_time:.2f}s (limit 2s)")


def test_criterion_03_corrections_are_yaw_only(recovery_runs):
    worst = 0.0
    for r in recovery_runs:
        rot = r["rotation"]
        worst = max(worst, abs(rot[2, 0]), abs(rot[2, 1]),
                    abs(rot[0, 2]), abs(rot[1, 2]), abs(rot[2, 2] - 1.0))
    ok = worst == 0.0
    _report(3, "yaw-only corrections", ok,
            f"largest roll/pitch rotation entry across 50 registrations: "
            f"{worst!r} (must be exactly 0)")


# -- criterion 2: point-to-plane error against brute force ---------------------


def test_criterion_02_error_function_brute_force():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n_read = int(rng.integers(5, 40))
        n_ref = int(rng.integers(5, 40))
        reading = PointCloud(rng.normal(size=(n_read, 3)) * 5.0, FRAME_MAP)
        reference = PointCloud(rng.normal(size=(n_ref, 3)) * 5.0, FRAME_MAP)
        normals = rng.normal(size=(n_ref, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        reference.normals = normals
        k = int(rng.integers(1, n_read + 1))
        ri = rng.integers(0, n_read, k)
        fi = rng.integers(0, n_ref, k)
        w = rng.integers(0, 2, k).astype(np.float64)
        m = MatchSet(ri, fi, distances=np.zeros(k), weights=w)
        q, n = gather_reference(m, reference)
        fast, _ = point_to_plane_error(reading.points[ri], q, n, w)
        slow = 0.0
        for j in range(k):
            d = reading.points[ri[j]] - reference.points[fi[j]]
            slow += w[j] * float(d @ normals[fi[j]]) ** 2
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    ok = worst <= 1e-12
    _report(2, "point-to-plane error oracle", ok,
            f"max relative deviation from direct summation over 1000 random "
            f"match sets: {worst:.2e} (limit 1e-12)")


# -- criterion 4: closed-loop repeat on a 200 m taught path --------------------


def _long_path():
    """201 m: 60 m straight, left 0.1 curvature quarter turn, 50 m straight,
    right 0.1 curvature quarter turn, 60 m straight."""
    pts = [np.column_stack([np.linspace(0, 60, 13), np.zeros(13)])]
    pts.append(_arc_pts(60, 10, 10, -np.pi / 2, 0.0, 9)[1:])
    pts.append(np.column_stack([np.full(11, 70.0),
                                np.linspace(10, 60, 11)])[1:])
    pts.append(_arc_pts(80, 60, 10, np.pi, np.pi / 2, 9)[1:])
    pts.append(np.column_stack([np.linspace(80, 140, 13),
                                np.full(13, 70.0)])[1:])
    return np.vstack(pts)


@pytest.fixture(scope="module")
def taught_long(tmp_path_factory):
    path = _long_path()
    world = generate_world(4, WorldParams(
        trail_length=200.0, tree_density=0.05, trail_width=4.5,
        extent=(-15.0, 155.0, -20.0, 90.0),
        centerline=[tuple(p) for p in path]))
    cfg = _small_cfg()
    out = tmp_path_factory.mktemp("db_long")
    res = run_teach(world, cfg, waypoints=[tuple(p) for p in path[1:]],
                    out_dir=out, v_teach=1.5, max_ticks=2000)
    return world, cfg, res.db_dir


def test_criterion_04_closed_loop_repeat(taught_long):
    world, cfg, db = taught_long
    t0 = time.perf_counter()
    rr = run_repeat(world, db, cfg, start=Pose2D(0.0, 0.0, 0.0),
                    max_ticks=2000)
    elapsed = time.perf_counter() - t0
    traj = rr.mission.trajectory
    series = cross_track_series(rr.executed, traj)
    med = float(np.median(series.eps_ct))
    worst = float(series.eps_ct.max())
    ok = (rr.status is Status.GOAL_REACHED
          and rr.mission.intervention_count == 0
          and med < 0.15 and worst < 1.0 and elapsed < 60.0)
    _report(4, "200 m closed-loop repeat", ok,
            f"taught {traj.total_length():.0f} m with two 0.1 1/m curves; "
            f"status={rr.status}, interventions="
            f"{rr.mission.intervention_count if rr.mission else 'n/a'}, "
            f"median cross-track {med:.3f} m (limit 0.15), "
            f"max {worst:.3f} m (limit 1.0), repeat took {elapsed:.1f}s "
            f"(limit 60)")


# -- criterion 5: cross-track error grows with curvature -----------------------


def _ramp_path(ds=1.0):
    """32 m straight, curvature ramping linearly 0 -> 0.16 over 40 m, then
    8 m at 0.16 — continuous curvature coverage across all analysis bins."""
    pts = [np.array([0.0, 0.0])]
    th, s = 0.0, 0.0
    while s < 80.0 - 1e-9:
        if s < 32.0:
            k = 0.0
        elif s < 72.0:
            k = 0.16 * (s - 32.0) / 40.0
        else:
            k = 0.16
        th += k * ds
        pts.append(pts[-1] + ds * np.array([np.cos(th), np.sin(th)]))
        s += ds
    return np.vstack(pts)


@pytest.fixture(scope="module")
def taught_ramp(tmp_path_factory):
    path = _ramp_path()
    cfg = _small_cfg(seed=1)
    cfg.sim.slip_rot = 0.2
    # Coarse reference spacing keeps the window-based curvature estimate well
    # above the pose noise; tighter convergence lowers the tracking noise
    # floor so the low-curvature bins separate.
    cfg.mission.d_ref = 0.5
    cfg.registration.eps_t_min = 0.003
    cfg.registration.eps_theta_min = 0.0003
    world = generate_world(9, WorldParams(
        trail_length=85.0, tree_density=0.05, trail_width=4.5,
        extent=(float(path[:, 0].min()) - 15, float(path[:, 0].max()) + 15,
                float(path[:, 1].min()) - 15, float(path[:, 1].max()) + 15),
        centerline=[tuple(p) for p in path[::3]] + [tuple(path[-1])]))
    out = tmp_path_factory.mktemp("db_ramp")
    res = run_teach(world, cfg, waypoints=[tuple(p) for p in path[4::4]] +
                    [tuple(path[-1])], out_dir=out, v_teach=1.0,
                    max_ticks=2000)
    return world, cfg, res.db_dir


def test_criterion_05_curvature_error_correlation(taught_ramp):
    world, cfg, db = taught_ramp
    rng = np.random.default_rng(5)
    pool = [[], [], []]
    statuses = []
    for i in range(12):
        dx, dy = rng.uniform(-0.01, 0.01, 2)
        dth = rng.uniform(-0.01, 0.01)
        rr = run_repeat(world, db, cfg, start=Pose2D(dx, dy, dth),
                        max_ticks=2000, scan_seed_base=10_000 + 777 * i)
        statuses.append(rr.status)
        series = cross_track_series(rr.executed, rr.mission.trajectory)
        pool[0].append(series.arc_position)
        pool[1].append(series.eps_ct)
        pool[2].append(series.kappa)
    pooled = CrossTrackSeries(*[np.concatenate(p) for p in pool])
    stats = bin_by_curvature(pooled)
    meds = [b.median for b in stats.bins if b.count > 0]
    first, last = stats.bins[0], stats.bins[-1]
    monotone = all(a <= b for a, b in zip(meds, meds[1:]))
    ok = (monotone and first.count > 0 and last.count > 0
          and all(s is Status.GOAL_REACHED for s in statuses))
    pretty = ", ".join(f"{m:.3f}" for m in meds)
    _report(5, "curvature-binned cross-track", ok,
            f"12 repeats pooled; bin medians [{pretty}] m must be "
            f"non-decreasing from the <0.01 bin ({first.count} samples) to "
            f"the >=0.13 bin ({last.count} samples); monotone={monotone}")


# -- criterion 6: perturbation uncertainty in degenerate scenes -----------------


def _plane_cloud(spacing, half, frame="L"):
    xs = np.arange(-half, half + 1e-9, spacing)
    gx, gy = np.meshgrid(xs, xs)
    return PointCloud(np.column_stack([gx.ravel(), gy.ravel(),
                                       np.zeros(gx.size)]), frame)


def test_criterion_06_corridor_degeneracy():
    corridor_std = perturbation_profile(degeneracy_world("corridor"))[2]
    cross_std = perturbation_profile(degeneracy_world("intersection"))[2]

    plane = _plane_cloud(0.3, 8.0)
    plane_map = compute_normals(_plane_cloud(0.25, 12.0), 15,
                                viewpoints=np.array([0.0, 0.0, 2.0]))
    _, _, plane_std = perturbation_uncertainty(plane, plane_map,
                                               half_range=2.0)
    ys = np.arange(-6.0, 6.0, 0.25)
    zs = np.arange(0.0, 3.0, 0.25)
    gy, gz = np.meshgrid(ys, zs)
    wall_pts = np.column_stack([np.full(gy.size, 5.0), gy.ravel(), gz.ravel()])
    wall_map = compute_normals(PointCloud(wall_pts, "L"), 15,
                               viewpoints=np.array([0.0, 0.0, 1.0]))
    _, _, wall_std = perturbation_uncertainty(PointCloud(wall_pts.copy(), "L"),
                                              wall_map, half_range=1.0)
    ok = corridor_std >= 2.0 * cross_std and plane_std < 1e-6 * wall_std
    _report(6, "corridor degeneracy", ok,
            f"corridor std {corridor_std:.0f} vs intersection {cross_std:.0f} "
            f"(need >=2x); flat plane std {plane_std:.3e} vs wall "
            f"{wall_std:.3e} (need <1e-6x)")


# -- criterion 7: snow accumulation degrades repeat-phase localization ----------


@pytest.fixture(scope="module")
def snow_setup(tmp_path_factory):
    cfg, worlds = snow_scenes()
    vmap, _ = teach_snowfield(cfg, worlds["unchanged"],
                              tmp_path_factory.mktemp("db_snow"))
    return cfg, worlds, vmap


def test_criterion_07_snow_accumulation(snow_setup):
    cfg, worlds, vmap = snow_setup
    # Repeat-phase overlap over the open snowfield (bushes buried by 0.3 m of
    # snow), sampled at five start poses, paired across the two worlds.
    overlaps = overlap_sweep(cfg, vmap, worlds)
    drop = float(np.mean(overlaps["unchanged"])
                 - np.mean(overlaps["accumulated"]))
    # Localization bootstrap contrast in the accumulated world: an open-ground
    # start area versus a start area next to the building.
    inits = start_area_inits(cfg, vmap, worlds)
    ground_snowy = inits["open-ground", "accumulated"]
    building_snowy = inits["building", "accumulated"]
    building_clean = inits["building", "unchanged"]
    ok_drop = drop >= 10.0
    ok_init = (not ground_snowy.success) and building_snowy.success \
        and building_clean.success
    _report(7, "snow accumulation", ok_drop and ok_init,
            f"open-ground overlap drop {drop:.2f} pp "
            f"(clean {np.mean(overlaps['unchanged']):.1f}% -> snowy "
            f"{np.mean(overlaps['accumulated']):.1f}%, need >=10 pp); "
            f"snowy ground-area init success={ground_snowy.success} "
            f"(reason: {ground_snowy.reason or 'n/a'}; must fail), "
            f"snowy building-area init success={building_snowy.success} "
            f"(must succeed)")


# -- criterion 8: snowfall particles during teach -------------------------------


def _snowfall_teach(world, cfg, with_snow, n_ticks=40):
    """A straight 1 m/s teach on the runner's simulated tick, with snowfall
    particles added to the first 20 scans when ``with_snow``."""
    state = RobotState(pose=Pose2D(0.0, 0.0, 0.0))
    anchor = _sensor_anchor(world, state, cfg.sim.lidar.mount_height)
    mission = TeachState(VoxelMap(cfg.mapping.v_s), cfg.registration,
                         cfg.mapping, level_anchor(anchor))
    counts, admitted, prev = [], 0, 0
    for tick in range(n_ticks):
        scan, tail, state = _sense(world, cfg, state, 1.0, 0.0,
                                   mission.anchor, (cfg.seed, tick))
        if with_snow and tick < 20:
            scan = apply_snowfall(scan, 500, near_radius=1.2, seed=500 + tick)
        teach_step(mission, scan, tail)
        c = sum(int((ch.labels == CLASS_SNOWFALL).sum())
                for ch in mission.map.voxels.values())
        admitted += max(c - prev, 0)
        prev = c
        counts.append(c)
    return mission, counts, admitted


def test_criterion_08_snowfall_robustness():
    cfg = GlobalConfig(seed=0)
    cfg.sim.lidar = LidarParams(beams=16, azimuth_steps=360, rate=2.5,
                                max_range=20.0, range_noise_sd=0.01)
    cfg.registration.r = 20.0
    cfg.mapping.r = 20.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.15
    # Widen the ray-trace corridor to the sensor's actual angular resolution
    # so see-through evidence accumulates on off-grid particles.
    cfg.mapping.beam_half_angle = np.deg2rad(1.2)
    world = generate_world(6, WorldParams(trail_length=30.0, tree_density=0.1,
                                          trail_width=3.0,
                                          extent=(-15.0, 45.0, -20.0, 20.0)))
    snowy, counts, admitted = _snowfall_teach(world, cfg, True)
    clean, _, _ = _snowfall_teach(world, cfg, False)
    deltas = [float(np.linalg.norm(a.translation - b.translation))
              for a, b in zip(snowy.raw_poses, clean.raw_poses)]
    worst = max(deltas[:20])
    removed = 1.0 - counts[-1] / max(admitted, 1)
    ok = worst < 0.05 and removed >= 0.90
    _report(8, "snowfall robustness", ok,
            f"500 particles/scan for 20 scans: max registered-pose change "
            f"{worst:.3f} m (limit 0.05); {admitted} particle points entered "
            f"the map, {counts[-1]} remain -> {removed:.1%} removed "
            f"(need >=90%)")


# -- criterion 9: voxel-manager correctness -------------------------------------


def _map_digest(vmap):
    import hashlib
    h = hashlib.sha256()
    for key in sorted(vmap.all_keys()):
        c = vmap.voxels[key] if key in vmap.voxels else vmap._read_chunk(key)
        h.update(repr(key).encode())
        h.update(np.ascontiguousarray(c.points).tobytes())
        h.update(np.ascontiguousarray(c.dyn_prob).tobytes())
        h.update(np.ascontiguousarray(c.labels).tobytes())
    return h.hexdigest()


def test_criterion_09_voxel_manager(tmp_path):
    cfg = MappingConfig(r=12.0, v_s=6.0, rho=0.1)
    vmap = VoxelMap(cfg.v_s, spill_dir=tmp_path / "spill")
    rng = np.random.default_rng(9)
    pos = np.zeros(3)
    retile(vmap, pos, cfg)
    fired = 0
    for _ in range(500):
        ang = rng.uniform(0, 2 * np.pi)
        pos = pos + rng.uniform(0, 3.0) * np.array([np.cos(ang),
                                                    np.sin(ang), 0.0])
        pts = pos + rng.uniform(-8, 8, (40, 3)) * [1.0, 1.0, 0.2]
        insert_scan(vmap, PointCloud(pts, FRAME_MAP), cfg.rho)
        _, actions = retile(vmap, pos, cfg)
        local = set(vmap.voxels)
        nonlocal_ = set(vmap.nonlocal_manifest)
        assert not (local & nonlocal_), "local/nonlocal sets overlap"
        assert local | nonlocal_ == vmap.all_keys()
        if actions:
            fired += 1
            # no nonlocal voxel cube may come within r of the robot
            for key in nonlocal_:
                lo = np.asarray(key) * cfg.v_s
                nearest = np.clip(pos, lo, lo + cfg.v_s)
                assert np.linalg.norm(nearest - pos) > cfg.r, \
                    f"nonlocal voxel {key} within r of robot at {pos}"
    assert fired > 30  # the walk actually exercised retiling

    # single-border dithering: at most one retile
    osc = VoxelMap(cfg.v_s)
    insert_scan(osc, PointCloud(np.array([[3.0, 3.0, 0.0]]), FRAME_MAP),
                cfg.rho)
    retile(osc, [3.0, 3.0, 0.0], cfg)
    dither_fires = 0
    for x in (5.2, 4.8, 5.6, 4.9, 6.1, 5.9, 6.2, 5.8):
        _, actions = retile(osc, [x, 3.0, 0.0], cfg)
        dither_fires += bool(actions)
    assert dither_fires <= 1

    save_map(vmap, tmp_path / "saved")
    loaded = load_map(tmp_path / "saved", spill_dir=tmp_path / "spill2")
    round_trip_ok = _map_digest(vmap) == _map_digest(loaded)
    assert round_trip_ok
    _report(9, "voxel manager", True,
            f"500-step walk: partition held every step, {fired} retiles all "
            f"kept points within r local; border dithering fired "
            f"{dither_fires} retile(s) (limit 1); save/load digest match: "
            f"{round_trip_ok}")


# -- criterion 10: deskewing ----------------------------------------------------


def _wall_world():
    return generate_world(0, WorldParams(
        trail_length=40.0, terrain_amplitude=0.0, tree_density=0.0,
        buildings=[(15.0, 0.0, 10.0, 40.0, 10.0)]))


def test_criterion_10_deskewing():
    world = _wall_world()
    v, omega = 1.5, 0.5
    lp = LidarParams(beams=1, azimuth_steps=360, rate=10.0, max_range=30.0,
                     range_noise_sd=0.0, fov_low_deg=0.0, fov_high_deg=0.0)

    def true_pose(t):
        r = v / omega
        return Pose2D(r * np.sin(omega * t), r * (1.0 - np.cos(omega * t)),
                      omega * t)

    # The circle sampled at each azimuth column's time, which the scan's
    # interpolation returns exactly.
    n = lp.azimuth_steps
    col_times = 1.0 / lp.rate * np.arange(n) / n
    track = np.array([(t, *astuple(true_pose(t))) for t in col_times]).T
    scan = simulate_lidar(world, track, lp, seed=0)
    start = (0.0, 0.0, lp.mount_height, 0.0)   # level, heading +x
    stamps = 0.01 * np.arange(1, 12)
    dts = np.full(11, 0.01)
    up = np.tile([0.0, 0.0, 9.81], (11, 1))
    prior = dead_reckon(start, 0.0, stamps, dts,
                        np.tile([0.0, 0.0, omega], (11, 1)), up,
                        np.full(11, v), 0.1)
    out = deskew(scan, prior)
    # express the deskewed cloud in world coordinates via the true pose at
    # the anchor stamp (the scan's last timestamp) and check the wall plane
    t_anchor = float(scan.timestamps.max())
    pa = true_pose(t_anchor)
    keep = out.labels == CLASS_BUILDING
    pts = out.points[keep]
    wx = pa.x + np.cos(pa.theta_r) * pts[:, 0] - np.sin(pa.theta_r) * pts[:, 1]
    residual = float(np.abs(wx - 10.0).max())

    still = simulate_lidar(world, [[0.0], [0.0], [0.0], [0.0]], lp, seed=0)
    still_prior = dead_reckon(start, 0.0, stamps, dts,
                              np.zeros((11, 3)), up, np.zeros(11), 0.1)
    out2 = deskew(still, still_prior)
    identity = np.array_equal(out2.points, still.points)
    ok = keep.sum() > 100 and residual < 1e-3 and identity
    _report(10, "deskewing", ok,
            f"wall residual at 1.5 m/s + 0.5 rad/s: {residual:.2e} m over "
            f"{int(keep.sum())} returns (limit 1e-3); stationary deskew "
            f"identity: {identity}")


# -- criterion 11: controller hand examples and symmetry -------------------------


def _frenet(x_t=0.0, x_n=0.0, theta_e=0.0, d_g=100.0):
    return FrenetState(x_t=x_t, x_n=x_n, theta_e=theta_e, d_g=d_g,
                       offset_dist=abs(x_n))


def test_criterion_11_controller_hand_examples():
    cfg = ControllerConfig()
    checks = []
    # on the path, aligned: no rotation, near-nominal speed
    cmd = compute_command(_frenet(), cfg)
    checks.append(cmd.omega == 0.0)
    checks.append(abs(cmd.v_x - 1.5 * np.exp(-0.5 / 100.0)) < 1e-15)
    # 1 m left of the path: convergence angle saturates the rotation clamp
    checks.append(compute_command(_frenet(x_n=1.0), cfg).omega == -1.0)
    checks.append(compute_command(_frenet(x_n=-1.0), cfg).omega == 1.0)
    checks.append(compute_command(_frenet(x_n=50.0), cfg).omega == -1.0)
    # lead distance attenuates the lateral term
    cmd = compute_command(_frenet(x_t=5.0, x_n=1.0), ControllerConfig(K_h=1.0))
    checks.append(abs(cmd.omega - np.arctan(-0.4 * np.exp(-2.0))) < 1e-15)
    # pure heading error steers back proportionally
    checks.append(abs(compute_command(_frenet(theta_e=0.2), cfg).omega
                      + 0.6) < 1e-15)
    # speed clamps: lower bound far from nominal deceleration, and at goal
    checks.append(compute_command(_frenet(d_g=0.2), cfg).v_x == 0.5)
    checks.append(compute_command(_frenet(d_g=1000.0), cfg).v_x <= 1.5)
    checks.append(compute_command(_frenet(d_g=0.0), cfg) == Command(0.0, 0.0))

    worst = 0.0
    for x_n in np.linspace(-2.0, 2.0, 21):
        for theta_e in np.linspace(-1.5, 1.5, 21):
            a = compute_command(_frenet(x_n=x_n, theta_e=theta_e), cfg)
            b = compute_command(_frenet(x_n=-x_n, theta_e=-theta_e), cfg)
            worst = max(worst, abs(a.omega + b.omega), abs(a.v_x - b.v_x))
    ok = all(checks) and worst <= 1e-12
    _report(11, "controller", ok,
            f"hand examples {sum(checks)}/{len(checks)} exact; mirror "
            f"asymmetry on 21x21 grid {worst:.2e} (limit 1e-12)")
