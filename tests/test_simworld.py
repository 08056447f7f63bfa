from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trailnav.controller import Pose2D
from trailnav.config import GlobalConfig, load_config, save_config
from trailnav.geom import PointCloud
from trailnav import simworld
from trailnav.prior import dead_reckon, deskew
from trailnav.runner import _rollout
from trailnav.simworld import (CLASS_BUILDING, CLASS_GROUND, CLASS_SNOWFALL,
                               CLASS_VEGETATION, Heightfield, LidarParams,
                               RobotState, WorldParams, accumulate_snow,
                               apply_snowfall, generate_world, simulate_lidar,
                               step_robot)
from trailnav.simworld import (Trees, _dist_to_polyline, _in_reach,
                               _ray_cylinders, _ray_ground)


def _flat_params(**kw):
    defaults = dict(trail_length=40.0, terrain_amplitude=0.0, tree_density=0.0)
    defaults.update(kw)
    return WorldParams(**defaults)


def test_generate_world_deterministic():
    params = WorldParams(trail_length=50.0, tree_density=0.05)
    a = generate_world(7, params)
    b = generate_world(7, params)
    assert np.array_equal(a.ground.grid, b.ground.grid)
    assert np.array_equal(a.trees.xy, b.trees.xy)
    assert np.array_equal(a.trees.foliage_radius, b.trees.foliage_radius)
    c = generate_world(8, params)
    assert not np.array_equal(a.ground.grid, c.ground.grid)


def test_corridor_and_clearing_are_tree_free():
    params = WorldParams(trail_length=60.0, tree_density=0.08,
                         clearing_center=(30.0, 20.0), clearing_radius=6.0)
    world = generate_world(3, params)
    assert len(world.trees) > 50
    line = params.resolved_centerline()
    d = _dist_to_polyline(world.trees.xy, line)
    assert np.all(d > params.trail_width / 2.0)
    d_clear = np.linalg.norm(world.trees.xy - [30.0, 20.0], axis=1)
    assert np.all(d_clear > 6.0)


def test_self_crossing_centerline_clears_both_corridors():
    """A centerline that crosses itself at the origin keeps exactly the trees
    that the straight corridor keeps outside a second corridor along y."""
    common = dict(trail_length=40.0, tree_density=0.08, terrain_amplitude=0.2,
                  extent=(-20.0, 20.0, -20.0, 20.0))
    corridor = generate_world(5, WorldParams(
        centerline=[(-20.0, 0.0), (20.0, 0.0)], **common))
    crossing = generate_world(5, WorldParams(
        centerline=[(-20.0, 0.0), (0.0, 0.0), (0.0, 20.0), (0.0, -20.0),
                    (0.0, 0.0), (20.0, 0.0)], **common))
    t = corridor.trees
    half = corridor.params.trail_width / 2.0
    keep = np.abs(t.xy[:, 0]) > half + t.trunk_radius
    assert 50 < keep.sum() < len(t) - 5
    for f in fields(Trees):
        assert np.array_equal(getattr(crossing.trees, f.name),
                              getattr(t, f.name)[keep]), f.name
    assert np.array_equal(crossing.ground.grid, corridor.ground.grid)


def test_zero_density_gives_no_trees():
    world = generate_world(0, _flat_params())
    assert len(world.trees) == 0
    assert float(np.abs(world.ground.grid).max()) == 0.0


def test_step_robot_straight_and_arc():
    state = RobotState(pose=Pose2D(0.0, 0.0, 0.0))
    for _ in range(100):
        state = step_robot(state, (1.0, 0.0), 0.01)
    assert state.pose.x == pytest.approx(1.0)
    assert state.pose.y == pytest.approx(0.0)
    assert state.stamp == pytest.approx(1.0)
    # v = 1, omega = 0.5 traces a circle of radius 2 about (0, 2).
    state = RobotState(pose=Pose2D(0.0, 0.0, 0.0))
    dt = 1e-3
    for _ in range(int(2 * np.pi / 0.5 / dt)):
        state = step_robot(state, (1.0, 0.5), dt)
    radius = np.hypot(state.pose.x - 0.0, state.pose.y - 2.0)
    assert radius == pytest.approx(2.0, rel=0.005)


def test_step_robot_slip_scales_rotation():
    state = RobotState(pose=Pose2D(0.0, 0.0, 0.0))
    state = step_robot(state, (0.0, 1.0), 0.5, slip_rot=0.2)
    assert state.pose.theta_r == pytest.approx(0.4)
    with pytest.raises(ValueError):
        step_robot(state, (1.0, 0.0), 0.0)


def _at_rest(x, y, yaw, stamp=0.0):
    """The one-sample (stamp, x, y, yaw) track of a robot at rest."""
    return [[stamp], [x], [y], [yaw]]


def _sampled(pose_at, lp, t0=0.0):
    """The track of ``pose_at(t) -> (x, y, yaw)`` sampled at each azimuth
    column's time from ``t0``: ``simulate_lidar`` interpolates it back
    exactly, so each column senses from ``pose_at`` at its own time."""
    n = lp.azimuth_steps
    times = t0 + 1.0 / lp.rate * np.arange(n) / n
    return np.array([(t, *pose_at(t)) for t in times]).T


def _wall_world():
    # A flat world with a single big box whose near face is the plane x = 10.
    return generate_world(0, _flat_params(
        buildings=[(15.0, 0.0, 10.0, 40.0, 10.0)]))


def test_wall_ranges_exact_at_zero_noise():
    world = _wall_world()
    lp = LidarParams(beams=1, azimuth_steps=360, rate=10.0, max_range=30.0,
                     range_noise_sd=0.0, fov_low_deg=0.0, fov_high_deg=0.0)
    scan = simulate_lidar(world, _at_rest(0.0, 0.0, 0.0), lp, seed=0)
    r = np.linalg.norm(scan.points, axis=1)
    az = np.arctan2(scan.points[:, 1], scan.points[:, 0])
    on_wall = (scan.labels == CLASS_BUILDING) & (np.abs(az) < np.deg2rad(60))
    assert on_wall.sum() > 100
    assert np.allclose(r[on_wall], 10.0 / np.cos(az[on_wall]), atol=1e-9)


def test_ground_returns_match_heightfield():
    world = generate_world(0, _flat_params())
    lp = LidarParams(beams=4, azimuth_steps=180, max_range=40.0,
                     range_noise_sd=0.0, fov_low_deg=-15.0, fov_high_deg=-5.0)
    scan = simulate_lidar(world, _at_rest(5.0, 0.0, 0.3), lp, seed=0)
    assert len(scan) > 0
    assert np.all(scan.labels == CLASS_GROUND)
    # Flat ground: every return sits mount_height below the sensor.
    assert np.allclose(scan.points[:, 2], -lp.mount_height, atol=1e-6)


def _per_column_reference(track, lp):
    """``track`` at each azimuth column's time, with one scalar ``np.interp``
    per column and coordinate, as a track stamped at the column times."""
    stamps, xs, ys, yaws = track
    return _sampled(lambda t: (float(np.interp(t, stamps, xs)),
                               float(np.interp(t, stamps, ys)),
                               float(np.interp(t, stamps, yaws))),
                    lp, stamps[0])


def _sensed(world, track, lp, seed, monkeypatch):
    """The scan along ``track`` and the ray origins and directions it cast."""
    cast = []

    def spy(origins, dirs, *args):
        cast.append((origins.copy(), dirs.copy()))
        return ray_ground(origins, dirs, *args)

    ray_ground = simworld._ray_ground
    with monkeypatch.context() as mp:
        mp.setattr(simworld, "_ray_ground", spy)
        scan = simulate_lidar(world, track, lp, seed)
    return scan, *cast[0]


def _same_scan(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("points", "timestamps", "labels"))


def test_scan_order_and_timestamps(monkeypatch):
    """A track stamped from 2.0 s gives timestamps in [2.0, 2.0 + period),
    and the sweep moves along the track from its first pose."""
    world = _wall_world()
    lp = LidarParams(beams=2, azimuth_steps=90, max_range=30.0,
                     range_noise_sd=0.0, fov_low_deg=-10.0, fov_high_deg=0.0)
    period = 1.0 / lp.rate
    start = RobotState(pose=Pose2D(0.0, 0.0, 0.0), stamp=2.0)
    track, _ = _rollout(start, 1.5, 0.0, 0.0, period)
    scan, origins, _ = _sensed(world, track, lp, 0, monkeypatch)
    assert scan.frame == "L"
    assert len(scan) > 100
    assert scan.timestamps.min() == 2.0
    assert scan.timestamps.max() < 2.0 + period
    n = lp.azimuth_steps
    assert origins[0, 0] == 0.0
    assert origins[n - 1, 0] == pytest.approx(1.5 * period * (n - 1) / n)
    # Beam-major ordering: timestamps restart when the beam index advances.
    jumps = np.diff(scan.timestamps)
    assert (jumps < 0).sum() <= lp.beams - 1


def test_scan_senses_the_track_as_one_interpolation_per_column(monkeypatch):
    """A turning rollout's track, whose heading passes pi unwrapped: every
    column's rays and the whole scan are byte-equal to those of the track
    interpolated one column at a time with scalar ``np.interp``."""
    world = generate_world(4, WorldParams(trail_length=120.0,
                                          tree_density=0.05))
    lp = LidarParams(beams=4, azimuth_steps=200, rate=2.5, max_range=20.0)
    start = RobotState(pose=Pose2D(40.0, 1.0, 3.0), stamp=1.7)
    track, _ = _rollout(start, 1.5, 0.8, 0.1, 1.0 / lp.rate)
    assert track.shape == (4, 21) and track[3, -1] > np.pi
    ref = _per_column_reference(track, lp)
    scan, origins, dirs = _sensed(world, track, lp, 5, monkeypatch)
    want, want_origins, want_dirs = _sensed(world, ref, lp, 5, monkeypatch)
    n = lp.azimuth_steps
    assert origins[:n, 0].tobytes() == ref[1].tobytes()
    assert origins[:n, 1].tobytes() == ref[2].tobytes()
    assert origins.tobytes() == want_origins.tobytes()
    assert dirs.tobytes() == want_dirs.tobytes()
    assert _same_scan(scan, want)
    assert (scan.labels == CLASS_VEGETATION).sum() > 20


def test_one_sample_track_is_a_robot_at_rest():
    """A one-sample track senses every column from its one pose, as a track
    holding that pose at every column's time and a two-sample still track
    over the period do."""
    world = generate_world(5, _flat_params(tree_density=0.02,
                                           trail_length=30.0))
    lp = LidarParams(beams=4, azimuth_steps=180, max_range=30.0)
    x, y, yaw, t0 = 15.0, -1.0, 0.7, 0.5
    one = simulate_lidar(world, _at_rest(x, y, yaw, stamp=t0), lp, seed=2)
    held = simulate_lidar(world, _sampled(lambda t: (x, y, yaw), lp, t0), lp,
                          seed=2)
    still = simulate_lidar(world, [[t0, t0 + 1.0 / lp.rate], [x, x], [y, y],
                                   [yaw, yaw]], lp, seed=2)
    assert (one.labels == CLASS_VEGETATION).sum() > 20
    assert _same_scan(one, held) and _same_scan(one, still)


def test_vegetation_returns_and_porosity():
    params = _flat_params(tree_density=0.02, trail_length=30.0)
    world = generate_world(5, params)
    lp = LidarParams(beams=8, azimuth_steps=360, max_range=40.0,
                     range_noise_sd=0.0)
    scan = simulate_lidar(world, _at_rest(15.0, 0.0, 0.0), lp, seed=1)
    assert (scan.labels == CLASS_VEGETATION).sum() > 0
    # Determinism of the full scan for a fixed seed.
    again = simulate_lidar(world, _at_rest(15.0, 0.0, 0.0), lp, seed=1)
    assert np.array_equal(scan.points, again.points)
    other = simulate_lidar(world, _at_rest(15.0, 0.0, 0.0), lp, seed=2)
    assert not np.array_equal(scan.points, other.points)


def test_deskew_moving_scan_straightens_wall():
    # Robot drives at 1.5 m/s toward the wall; deskewing with the matching
    # prior puts every wall return on a single x = const plane.
    world = _wall_world()
    v = 1.5
    lp = LidarParams(beams=1, azimuth_steps=360, rate=10.0, max_range=30.0,
                     range_noise_sd=0.0, fov_low_deg=0.0, fov_high_deg=0.0)
    track = _sampled(lambda t: (v * t, 0.0, 0.0), lp)
    scan = simulate_lidar(world, track, lp, seed=0)

    prior = dead_reckon((0.0, 0.0, 0.0, 0.0), -0.01,
                        -0.01 + 0.01 * np.arange(1, 14), np.full(13, 0.01),
                        np.zeros((13, 3)), np.tile([0.0, 0.0, 9.81], (13, 1)),
                        np.full(13, v), 0.1)
    out = deskew(scan, prior)
    keep = out.labels == CLASS_BUILDING
    xs = out.points[keep, 0]
    assert keep.sum() > 100
    assert xs.max() - xs.min() < 1e-3
    # Without deskewing the sweep smears the wall by roughly v * period.
    raw = scan.points[scan.labels == CLASS_BUILDING, 0]
    assert raw.max() - raw.min() > 0.05


def test_snowfall_count_radius_and_labels():
    world = _wall_world()
    lp = LidarParams(beams=1, azimuth_steps=180, max_range=30.0,
                     range_noise_sd=0.0, fov_low_deg=0.0, fov_high_deg=0.0)
    scan = simulate_lidar(world, _at_rest(0.0, 0.0, 0.0), lp, seed=0)
    out = apply_snowfall(scan, 500, near_radius=4.0, seed=9)
    assert len(out) == len(scan) + 500
    snow = out.labels == CLASS_SNOWFALL
    assert snow.sum() == 500
    assert np.all(np.linalg.norm(out.points[snow], axis=1) <= 4.0)
    assert out.timestamps[snow].min() >= scan.timestamps.min()
    assert out.timestamps[snow].max() <= scan.timestamps.max()
    # Original returns are untouched.
    assert np.array_equal(out.points[~snow], scan.points)
    same = apply_snowfall(scan, 500, near_radius=4.0, seed=9)
    assert np.array_equal(out.points, same.points)
    assert np.array_equal(apply_snowfall(scan, 0, 4.0, 1).points, scan.points)


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("field", [
    {"normals": np.tile([0.0, 0.0, 1.0], (3, 1))}, {"dyn_prob": np.zeros(3)}])
def test_snowfall_rejects_a_processed_scan_at_every_count(field, count):
    scan = PointCloud(np.ones((3, 3)), timestamps=np.zeros(3), **field)
    with pytest.raises(ValueError, match="raw scan"):
        apply_snowfall(scan, count, near_radius=4.0, seed=9)


def test_accumulate_snow_arithmetic():
    params = _flat_params(tree_density=0.02, trail_length=30.0,
                          buildings=[(15.0, 10.0, 4.0, 4.0, 5.0)])
    world = generate_world(2, params)
    snowy = accumulate_snow(world, 0.3, {"ground": 1.0, "vegetation": 0.2,
                                         "building": 1.0})
    assert np.allclose(snowy.ground.grid - world.ground.grid, 0.3)
    assert np.allclose(snowy.trees.foliage_radius - world.trees.foliage_radius,
                       0.06)
    assert snowy.buildings[0].z_top - world.buildings[0].z_top == \
        pytest.approx(0.3)
    assert snowy.buildings[0].z_base == world.buildings[0].z_base
    # Deeper snow dominates pointwise.
    deeper = accumulate_snow(world, 0.6, {"ground": 1.0})
    assert np.all(deeper.ground.grid >= snowy.ground.grid - 1e-12)
    with pytest.raises(ValueError):
        accumulate_snow(world, -0.1, {})


def test_world_spec_round_trip(tmp_path):
    """A world saved as a config's section and seed regenerates bit for
    bit."""
    params = WorldParams(trail_length=80.0, tree_density=0.04,
                         extent=(-10.0, 90.0, -30.0, 30.0),
                         centerline=[(0.0, 0.0), (40.0, 5.0), (80.0, 0.0)],
                         buildings=[(50.0, 12.0, 6.0, 4.0, 3.0)],
                         clearing_center=(40.0, 5.0), clearing_radius=8.0)
    path = tmp_path / "c.yaml"
    save_config(GlobalConfig(seed=42, world=params), path)
    back = load_config(path)
    assert back.seed == 42
    assert back.world == params
    a = generate_world(back.seed, back.world)
    b = generate_world(42, params)
    assert np.array_equal(a.trees.xy, b.trees.xy)
    assert np.array_equal(a.ground.grid, b.ground.grid)


# -- ground march ------------------------------------------------------------


def _reference_ray_ground(origins, dirs, ground, max_range, coarse_step=0.5,
                          refine_iters=30):
    """The march that samples the heightfield at every coarse step of every
    ray; the band-limited ``_ray_ground`` must match it bit for bit."""
    n_steps = max(int(np.ceil(max_range / coarse_step)) + 1, 2)
    ts = np.linspace(0.0, max_range, n_steps)
    px = origins[:, 0:1] + dirs[:, 0:1] * ts
    py = origins[:, 1:2] + dirs[:, 1:2] * ts
    pz = origins[:, 2:3] + dirs[:, 2:3] * ts
    below = pz < ground.sample(px, py)
    below[:, 0] = False
    first = np.argmax(below, axis=1)
    hit = below[np.arange(len(first)), first]
    t_hit = np.full(len(origins), np.inf)
    rows = np.nonzero(hit)[0]
    if len(rows):
        t_lo = ts[first[rows] - 1]
        t_hi = ts[first[rows]]
        o = origins[rows]
        d = dirs[rows]
        for _ in range(refine_iters):
            t_mid = 0.5 * (t_lo + t_hi)
            p = o + d * t_mid[:, None]
            under = p[:, 2] < ground.sample(p[:, 0], p[:, 1])
            t_hi = np.where(under, t_mid, t_hi)
            t_lo = np.where(under, t_lo, t_mid)
        t_hit[rows] = 0.5 * (t_lo + t_hi)
    return t_hit


def _band(grid):
    """The ground march's height band: the grid's range widened by a margin
    that covers the rounding of a bilinear sample."""
    margin = 1e-9 * (1.0 + np.abs(grid).max())
    return grid.min() - margin, grid.max() + margin


def _random_rays(ground, n, seed):
    """Origins over and beyond the grid, above, inside and below its height
    band; directions mixing horizontal, upward and downward rays."""
    rng = np.random.default_rng(seed)
    ny, nx = ground.grid.shape
    x0, y0 = ground.x0, ground.y0
    x1, y1 = x0 + ground.cell * (nx - 1), y0 + ground.cell * (ny - 1)
    lo, hi = ground.grid.min(), ground.grid.max()
    origins = np.column_stack([
        rng.uniform(x0 - 30.0, x1 + 30.0, n),
        rng.uniform(y0 - 30.0, y1 + 30.0, n),
        rng.choice([lo - 1.0, lo, 0.5 * (lo + hi), hi, hi + 1.3, hi + 20.0], n)
        + rng.normal(0.0, 0.3, n) * rng.integers(0, 2, n),
    ])
    dirs = rng.normal(size=(n, 3))
    dirs[:, 2] *= rng.choice([0.0, 0.02, 0.3, 1.0], n)
    dirs[rng.random(n) < 0.2, 2] = 0.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Horizontal rays at exactly the grid's extremes and the band's edges.
    origins[:4, 2] = [lo, hi, *_band(ground.grid)]
    dirs[:4] = [1.0, 0.0, 0.0]
    return origins, dirs


@pytest.fixture(scope="module")
def march_grounds():
    world = generate_world(0, WorldParams())
    return {
        "default": world.ground,
        "snow": accumulate_snow(world, 0.3, {"ground": 1.0}).ground,
        # lo and hi differ only by the margin.
        "flat": generate_world(0, WorldParams(terrain_amplitude=0.0)).ground,
    }


@pytest.mark.parametrize("name", ["default", "snow", "flat"])
@pytest.mark.parametrize("max_range", [80.0, 20.0, 3.0])
def test_ray_ground_matches_full_march(march_grounds, name, max_range):
    ground = march_grounds[name]
    origins, dirs = _random_rays(ground, 4000, seed=int(max_range) + len(name))
    got = _ray_ground(origins, dirs, ground, max_range)
    want = _reference_ray_ground(origins, dirs, ground, max_range)
    assert np.array_equal(got, want)
    hits = np.isfinite(want)
    # The rays exercise both outcomes, at every range.
    assert 0 < hits.sum() < len(want)


def _edge_rays(ground, n, seed):
    """Vertical rays up and down, grazing rays that descend at 1e-3 from
    0.05 m over the ground, and upward or level rays from above the height
    band, which never descend into it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(ground.x0, ground.x0 + 50.0, n)
    y = rng.uniform(ground.y0, ground.y0 + 50.0, n)
    z = ground.sample(x, y)
    kind = np.arange(n) % 4
    above_band = _band(ground.grid)[1] + 2.0
    origins = np.column_stack([x, y, np.select(
        [kind < 2, kind == 2], [z + 1.0, z + 0.05], above_band)])
    heading = rng.uniform(-np.pi, np.pi, n)
    slope = np.select([kind == 0, kind == 1, kind == 2],
                      [-1e9, 1e9, -1e-3], rng.choice([0.0, 0.5], n))
    dirs = np.column_stack([np.cos(heading), np.sin(heading), slope])
    dirs[kind < 2, :2] = 0.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return origins, dirs


def test_blocked_ground_march_matches_single_rays(march_grounds, monkeypatch):
    ground = march_grounds["default"]
    max_range = 80.0
    o1, d1 = _random_rays(ground, 700, seed=11)
    o2, d2 = _edge_rays(ground, 300, seed=12)
    origins, dirs = np.vstack([o1, o2]), np.vstack([d1, d2])
    single = np.array([_ray_ground(origins[i:i + 1], dirs[i:i + 1], ground,
                                   max_range)[0] for i in range(len(origins))])
    edge = single[len(o1):].reshape(-1, 4)
    assert np.isfinite(edge[:, 0]).all() and np.isinf(edge[:, 1]).all()
    assert np.isfinite(edge[:, 2]).any() and np.isinf(edge[:, 3]).all()
    assert 0 < np.isfinite(single[:len(o1)]).sum() < len(o1)

    rays_per_block = 64
    n_steps = 161
    cand = ((origins[:, 2] <= _band(ground.grid)[1]) | (dirs[:, 2] < 0)).sum()
    assert cand > 5 * rays_per_block and cand % rays_per_block != 0
    for samples in (rays_per_block * n_steps, 1, 10 ** 9):
        monkeypatch.setattr(simworld, "_GROUND_BLOCK_SAMPLES", samples)
        assert np.array_equal(_ray_ground(origins, dirs, ground, max_range),
                              single)


def test_simulated_scan_matches_full_march(monkeypatch):
    world = generate_world(0, WorldParams(trail_length=60.0))
    lp = LidarParams(beams=8, azimuth_steps=240, max_range=40.0)
    pose = _at_rest(20.0, 0.5, 0.4)
    scan = simulate_lidar(world, pose, lp, seed=3)
    monkeypatch.setattr(simworld, "_ray_ground", _reference_ray_ground)
    want = simulate_lidar(world, pose, lp, seed=3)
    assert (scan.labels == CLASS_GROUND).sum() > 100
    assert np.array_equal(scan.points, want.points)
    assert np.array_equal(scan.timestamps, want.timestamps)
    assert np.array_equal(scan.labels, want.labels)


_grids = st.integers(2, 6).flatmap(lambda ny: st.integers(2, 6).flatmap(
    lambda nx: hnp.arrays(np.float64, (ny, nx), elements=st.floats(
        -1e4, 1e4, allow_nan=False, allow_infinity=False))))


@settings(max_examples=200, deadline=None)
@given(grid=_grids, x0=st.floats(-100.0, 100.0), y0=st.floats(-100.0, 100.0),
       cell=st.floats(0.05, 5.0),
       uv=st.lists(st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)),
                   min_size=1, max_size=20))
def test_bilinear_sample_stays_in_the_grid_band(grid, x0, y0, cell, uv):
    """The invariant the ground march's band relies on: a sample anywhere
    (inside the grid, on its border, or far outside, where it clamps) lies in
    [grid.min(), grid.max()] widened by the march's margin."""
    ground = Heightfield(x0, y0, cell, grid)
    ny, nx = grid.shape
    # (u, v) in grid widths: [0, 1]² is the grid, 0 and 1 its border.
    u, v = np.array(uv + [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                          (-1e6, 1e6), (1e6, -1e6)]).T
    z = ground.sample(x0 + u * cell * (nx - 1), y0 + v * cell * (ny - 1))
    lo, hi = _band(grid)
    assert np.all((z >= lo) & (z <= hi))


# -- trunk culling -----------------------------------------------------------


def _reference_ray_cylinders(origins, dirs, trees, max_range, t_min=0.05):
    """Every trunk tested against every ray; the culled ``_ray_cylinders``
    must match it bit for bit."""
    best = np.full(len(origins), np.inf)
    ox, oy, oz = origins[:, 0], origins[:, 1], origins[:, 2]
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    for i in range(len(trees)):
        cx, cy = trees.xy[i]
        r = trees.trunk_radius[i]
        fx = ox - cx
        fy = oy - cy
        b = 2 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - r * r
        disc = b * b - 4 * a * c
        valid = (disc > 0) & (a > 1e-12)
        t = np.where(valid, (-b - np.sqrt(np.maximum(disc, 0.0))) /
                     np.where(a > 1e-12, 2 * a, 1.0), np.inf)
        z = oz + dz * t
        good = valid & (t > t_min) & (t < max_range) & \
            (z >= trees.base_z[i] - 0.5) & (z <= trees.trunk_top[i])
        best = np.where(good & (t < best), t, best)
    return best


def _sweep_rays(world, n, max_range, seed):
    """A lidar-like sweep: origins along 0.6 m of travel at sensor height,
    unit directions within +-15 degrees of horizontal. Two extra trunks: one
    beside the sweep, and one where the last ray, from the sweep's end, hits
    it 0.01 m inside ``max_range``."""
    rng = np.random.default_rng(seed)
    s = np.sort(rng.random(n))
    x, y = 30.0 + 0.6 * s, 1.5 + 0.1 * s
    origins = np.column_stack([x, y, world.ground.sample(x, y) + 1.3])
    az = rng.uniform(0.0, 2 * np.pi, n)
    el = np.deg2rad(rng.uniform(-15.0, 15.0, n))
    dirs = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                            np.sin(el)])
    dirs[-1] = [1.0, 0.0, 0.0]
    r = 0.2
    extra = np.array([[30.3, 2.9],
                      origins[-1, :2] + [max_range - 0.01 + r, 0.0]])
    z0 = origins[-1, 2] - 2.0
    t = world.trees
    trees = Trees(xy=np.vstack([t.xy, extra]),
                  trunk_radius=np.append(t.trunk_radius, [r, r]),
                  trunk_top=np.append(t.trunk_top, [z0 + 4.0] * 2),
                  base_z=np.append(t.base_z, [z0] * 2),
                  foliage_center=np.vstack([t.foliage_center,
                                            np.column_stack([extra,
                                                             [z0 + 4.0] * 2])]),
                  foliage_radius=np.append(t.foliage_radius, [1.0, 1.0]))
    return origins, dirs, trees


@pytest.mark.parametrize("max_range", [80.0, 20.0, 3.0])
def test_ray_cylinders_matches_every_trunk(max_range):
    world = generate_world(4, WorldParams(trail_length=120.0,
                                          tree_density=0.05))
    origins, dirs, trees = _sweep_rays(world, 4000, max_range,
                                       seed=int(max_range))
    with np.errstate(invalid="ignore"):  # 0 * inf for the horizontal ray
        got = _ray_cylinders(origins, dirs, trees, max_range)
        want = _reference_ray_cylinders(origins, dirs, trees, max_range)
    assert np.array_equal(got, want)
    # The trunk placed 0.01 m inside the range is kept and hit.
    assert want[-1] == pytest.approx(max_range - 0.01)
    assert np.isfinite(want[:-1]).sum() > 0
    kept = _in_reach(origins, trees.xy, trees.trunk_radius, max_range)
    assert len(trees) - 1 in kept
    if max_range < 80.0:
        assert len(kept) < len(trees) / 2


def test_simulated_scan_matches_every_trunk(monkeypatch):
    world = generate_world(4, WorldParams(trail_length=120.0,
                                          tree_density=0.05))
    lp = LidarParams(beams=8, azimuth_steps=200, rate=2.5, max_range=20.0)

    track = _sampled(lambda t: (40.0 + 1.5 * t, 1.0, 0.3 * t), lp)
    scan = simulate_lidar(world, track, lp, seed=5)
    monkeypatch.setattr(simworld, "_ray_cylinders", _reference_ray_cylinders)
    want = simulate_lidar(world, track, lp, seed=5)
    assert (scan.labels == CLASS_VEGETATION).sum() > 50
    assert np.array_equal(scan.points, want.points)
    assert np.array_equal(scan.timestamps, want.timestamps)
    assert np.array_equal(scan.labels, want.labels)
