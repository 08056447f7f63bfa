import copy
import hashlib
import shutil

import numpy as np
import pytest
from scipy.spatial import cKDTree

from trailnav.cli import main
from trailnav.config import GlobalConfig, save_config
from trailnav.controller import Pose2D, Status
from trailnav.csvio import read_csv, read_float_csv, write_csv
from trailnav.geom import FRAME_MAP, PointCloud, RigidTransform
from trailnav.icp import DegenerateRegistration, RegistrationFailure
from trailnav.mapping import VoxelMap
from trailnav.mission import (RepeatState, TeachAbort, TeachState,
                              finalize_teach, initialize_localization,
                              load_database, repeat_step, teach_step)
from trailnav.npcd import read_npcd
import trailnav.runner as runner
from trailnav.trajectory import Trajectory
from trailnav.runner import (IMU_HEADER, ODOM_HEADER, RUN_LOG_HEADER,
                             SCANS_HEADER, _prior_window, read_scan_log,
                             run_repeat, run_teach)
from trailnav.simworld import LidarParams, WorldParams, generate_world


def _small_cfg(seed=0):
    cfg = GlobalConfig(seed=seed)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=240, rate=5.0,
                                max_range=20.0, range_noise_sd=0.01)
    cfg.registration.r = 20.0
    cfg.mapping.r = 20.0
    cfg.mapping.v_s = 10.0
    cfg.mapping.rho = 0.15
    return cfg


def _teach_state(cfg):
    return TeachState(VoxelMap(cfg.mapping.v_s), cfg.registration, cfg.mapping)


def _small_world(seed=0, length=15.0):
    return generate_world(seed, WorldParams(
        trail_length=length, tree_density=0.05,
        extent=(-10.0, length + 10.0, -15.0, 15.0)))


@pytest.fixture(scope="module")
def logged_teach(tmp_path_factory):
    """A small teach that streams its scan log, and what it fed the pipeline:
    each ``teach_step``'s (scan, prior tail) and the (stamps, dts, gyro,
    accel, speeds) of each window the prior integrator ran over, in order."""
    cfg = _small_cfg()
    world = _small_world()
    out = tmp_path_factory.mktemp("teach")
    received, samples = [], []

    def recording_teach_step(state, scan, prior_tail):
        received.append((scan.copy(), prior_tail))
        teach_step(state, scan, prior_tail)

    def recording_dead_reckon(anchor, start_stamp, stamps, dts, gyro, accel,
                              speeds, beta):
        samples.append((stamps.copy(), dts.copy(), gyro.copy(), accel.copy(),
                        speeds.copy()))
        return dead_reckon(anchor, start_stamp, stamps, dts, gyro, accel,
                           speeds, beta)

    dead_reckon = runner.dead_reckon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "teach_step", recording_teach_step)
        mp.setattr(runner, "dead_reckon", recording_dead_reckon)
        result = run_teach(world, cfg, waypoints=[(15.0, 0.0)],
                           out_dir=out / "db", v_teach=1.0,
                           scan_log_dir=out / "scans")
    return world, cfg, result, received, samples


@pytest.fixture(scope="module")
def taught(logged_teach):
    return logged_teach[:3]


def _scan_log(result):
    """Where the logged teach fixture streamed its scans."""
    return result.db_dir.parent / "scans"


def _stationary_tail(pose: RigidTransform, cfg) -> Trajectory:
    return _prior_window(pose, 0.0, 1.0 / cfg.sim.lidar.rate,
                         cfg.prior.rate_hz, cfg.prior.beta, 0.0, 0.0)


def _origin_scan(world, cfg):
    """A scan from the trail start and a stationary prior tail anchored there."""
    from trailnav.runner import _sensor_anchor
    from trailnav.simworld import RobotState, simulate_lidar
    rs = RobotState(pose=Pose2D(0.0, 0.0, 0.0))
    anchor = _sensor_anchor(world, rs, cfg.sim.lidar.mount_height)
    scan = simulate_lidar(world, [[0.0], [0.0], [0.0], [0.0]], cfg.sim.lidar,
                          seed=0)
    return scan, _stationary_tail(anchor, cfg)


def test_teach_bootstraps_empty_map(taught):
    world, cfg, _ = taught
    state = _teach_state(cfg)
    scan, tail = _origin_scan(world, cfg)
    teach_step(state, scan, tail)
    assert state.map.local_point_count() > 100
    assert len(state.raw_poses) == 1
    # The bootstrap pose equals the prior anchor.
    assert np.allclose(state.raw_poses[0].translation,
                       tail.pose(-1).translation,
                       atol=1e-9)


def test_registration_reference_normals_are_set_and_read_only(taught):
    """ICP gathers the reference's normals unchecked: after a teach tick
    they are finite, and nothing can write into them."""
    world, cfg, _ = taught
    state = _teach_state(cfg)
    teach_step(state, *_origin_scan(world, cfg))
    normals = state.map.registration_reference()[0].normals
    assert np.isfinite(normals).all()
    assert not normals.flags.writeable
    with pytest.raises(ValueError):
        normals[0] = np.nan


def test_every_registration_runs_on_the_maps_cached_tree(taught, monkeypatch):
    import trailnav.geom as geom
    import trailnav.mission as mission
    world, cfg, result = taught
    scan, tail = _origin_scan(world, cfg)
    owner, on_cached_tree, index_builds = [None], [], []

    def spy_register(*args, ref_index=None, **kwargs):
        on_cached_tree.append(ref_index is not None and
                              ref_index is owner[0]._local_arrays()[1])
        return register(*args, ref_index=ref_index, **kwargs)

    def spy_build_index(cloud):
        index_builds.append(len(cloud))
        return build_index(cloud)

    register, build_index = mission.register, geom.build_index
    monkeypatch.setattr(mission, "register", spy_register)
    for module in (geom, mission):
        monkeypatch.setattr(module, "build_index", spy_build_index)

    state = _teach_state(cfg)
    owner[0] = state.map
    teach_step(state, scan, tail)          # bootstrap: nothing to register on
    teach_step(state, scan, tail)
    vmap, traj = load_database(result.db_dir)
    owner[0] = vmap
    init = initialize_localization(vmap, scan, tail, cfg.registration,
                                   cfg.mission.init_overlap_floor)
    assert init.success
    state = RepeatState(vmap, traj, cfg.registration, cfg.mapping,
                        cfg.path_following, init.pose)
    repeat_step(state, scan, tail)
    assert on_cached_tree == [True, True, True]
    assert index_builds == []


def _count_tree_builds(monkeypatch, *modules):
    """Patch cKDTree in the given modules; each build appends to the list
    returned."""
    builds = []

    class CountingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "cKDTree", CountingTree)
    return builds


def test_repeat_tick_on_an_unchanged_map_builds_no_tree(taught, monkeypatch):
    import trailnav.geom as geom
    import trailnav.mapping as mapping
    world, cfg, result = taught
    scan, tail = _origin_scan(world, cfg)
    vmap, traj = load_database(result.db_dir)
    state = RepeatState(vmap, traj, cfg.registration, cfg.mapping,
                        cfg.path_following, tail.pose(-1))
    repeat_step(state, scan, tail)
    builds = _count_tree_builds(monkeypatch, geom, mapping)
    out = repeat_step(state, scan, tail)
    assert out.pose is not None and not out.skipped
    assert state.intervention_count == 0
    assert builds == []


def test_init_on_a_warm_cache_builds_no_tree(taught, monkeypatch):
    import trailnav.analysis as analysis
    import trailnav.geom as geom
    import trailnav.mapping as mapping
    world, cfg, result = taught
    scan, tail = _origin_scan(world, cfg)
    vmap, _ = load_database(result.db_dir)
    assert vmap.registration_reference() is not None and not vmap.nonlocal_manifest
    builds = _count_tree_builds(monkeypatch, analysis, geom, mapping)
    init = initialize_localization(vmap, scan, tail, cfg.registration,
                                   cfg.mission.init_overlap_floor)
    assert init.success
    assert builds == []


def test_a_missing_normal_leaves_no_registration_reference(taught):
    world, cfg, result = taught
    scan, tail = _origin_scan(world, cfg)
    vmap, _ = load_database(result.db_dir)
    chunk = next(iter(vmap.voxels.values()))
    chunk.normals = chunk.normals.copy()
    chunk.normals[0] = np.nan
    vmap._invalidate()
    init = initialize_localization(vmap, scan, tail, cfg.registration,
                                   cfg.mission.init_overlap_floor)
    assert not init.success
    assert init.reason == "map has no usable normals"
    state = _teach_state(cfg)
    state.map = vmap
    with pytest.raises(TeachAbort) as info:
        teach_step(state, scan, tail)
    assert isinstance(info.value.__cause__, RegistrationFailure)


def _no_returns(scan):
    return scan.select(np.zeros(len(scan), dtype=bool))


def test_a_scan_with_no_returns_is_a_skipped_tick(taught):
    """A scan with no point is skipped as one the input filters empty is:
    teach registers nothing for it and repeat reports the tick skipped."""
    world, cfg, result = taught
    scan, tail = _origin_scan(world, cfg)
    state = _teach_state(cfg)
    teach_step(state, _no_returns(scan), tail)
    assert state.scan_count == 1 and state.raw_poses == []
    assert state.map.local_point_count() == 0
    vmap, traj = load_database(result.db_dir)
    repeat = RepeatState(vmap, traj, cfg.registration, cfg.mapping,
                         cfg.path_following, tail.pose(-1))
    out = repeat_step(repeat, _no_returns(scan), tail)
    assert out.skipped and out.command is None
    assert out.status is Status.CONTINUE and out.pose is repeat.current_pose
    assert repeat.scan_count == 1 and repeat.intervention_count == 0


def test_a_teach_out_of_range_of_everything_registers_nothing():
    """Four beams within 15 degrees of level, 1.3 m up, reach flat ground
    4.85 m out; with a 3 m range and no trees every scan is empty."""
    cfg = GlobalConfig(seed=0)
    cfg.sim.lidar = LidarParams(beams=4, azimuth_steps=90, max_range=3.0)
    world = generate_world(0, WorldParams(trail_length=20.0, tree_density=0.0,
                                          terrain_amplitude=0.0))
    result = run_teach(world, cfg, waypoints=[(2.0, 0.0)])
    assert result.state.scan_count >= 10 and result.state.raw_poses == []
    assert result.state.map.local_point_count() == 0


def test_a_teach_registers_the_ticks_after_its_first_return(monkeypatch):
    """A lidar whose first three scans come back empty: the teach skips them
    and registers every tick after them."""
    calls = []

    def late_lidar(*args, **kwargs):
        calls.append(1)
        scan = simulate_lidar(*args, **kwargs)
        return _no_returns(scan) if len(calls) <= 3 else scan

    simulate_lidar = runner.simulate_lidar
    monkeypatch.setattr(runner, "simulate_lidar", late_lidar)
    result = run_teach(_small_world(length=6.0), _small_cfg(),
                       waypoints=[(6.0, 0.0)], v_teach=1.0)
    state = result.state
    assert state.scan_count == len(calls) >= 10
    assert len(state.raw_poses) == state.scan_count - 3
    assert state.map.local_point_count() > 1000


def test_teach_rebuilds_the_local_map_once_a_tick(monkeypatch):
    import trailnav.mapping as mapping
    import trailnav.mission as mission
    ticks = []   # per teach tick: [local-map rebuilds, points inserted]
    local_arrays, insert_scan = mapping.VoxelMap._local_arrays, mission.insert_scan

    def counting_local_arrays(vmap):
        if ticks:
            ticks[-1][0] += vmap._cache is None
        return local_arrays(vmap)

    def counting_insert(vmap, *args):
        insert_scan(vmap, *args)
        ticks[-1][1] += sum(len(rows) for _, rows in vmap.last_inserted)

    def counting_teach_step(state, scan, prior_tail):
        ticks.append([0, 0])
        teach_step(state, scan, prior_tail)

    monkeypatch.setattr(mapping.VoxelMap, "_local_arrays",
                        counting_local_arrays)
    monkeypatch.setattr(mission, "insert_scan", counting_insert)
    monkeypatch.setattr(runner, "teach_step", counting_teach_step)
    run_teach(_small_world(length=6.0), _small_cfg(), waypoints=[(6.0, 0.0)],
              v_teach=1.0)
    assert len(ticks) >= 10 and all(inserted for _, inserted in ticks)
    # The first tick builds the empty map's tree in insert_scan; every later
    # one rebuilds once, in localize, for what the tick before it changed.
    assert [rebuilds for rebuilds, _ in ticks] == [1] * len(ticks)


def test_teach_produces_database(taught):
    world, cfg, result = taught
    db = result.db_dir
    assert (db / "manifest.json").exists()
    assert (db / "trajectory.csv").exists()
    vmap, traj = load_database(db)
    assert vmap.point_count() > 1000
    assert len(traj) >= 2
    # Reference poses honor the subsampling distance.
    gaps = np.linalg.norm(np.diff(traj.positions[:-1], axis=0), axis=1)
    assert np.all(gaps >= cfg.mission.d_ref - 1e-9)
    # The taught path ends near the waypoint.
    assert traj.positions[-1][0] == pytest.approx(15.0, abs=1.5)
    # Teach pose error vs ground truth stays small over the short trail.
    est_end = traj.positions[-1][:2]
    true_end = result.truth.positions[-1][:2]
    assert np.linalg.norm(est_end - true_end) < 0.5


def _insert_first(vmap, scan, sensor, cfg):
    """Teach upkeep in the order insert, normals, dynamic filter, each step
    on the map the one before left."""
    from trailnav.mapping import filter_dynamic, insert_scan, refresh_normals
    insert_scan(vmap, scan, cfg.rho)
    refresh_normals(vmap, cfg, sensor)
    filter_dynamic(vmap, scan, sensor, cfg)


def _replay_teach(logged_teach, upkeep, monkeypatch):
    """The fixture teach's inputs replayed through localize, ``upkeep(vmap,
    reading, sensor, map_cfg)`` and retile; asserts that the filter dropped
    points and returns the replay's state and the taught one."""
    from trailnav.mapping import VoxelChunk, retile
    from trailnav.mission import localize
    _, cfg, result, received, _ = logged_teach
    state = _teach_state(cfg)
    vmap, map_cfg = state.map, state.map_cfg
    dropped = []
    keep = VoxelChunk.keep

    def counting_keep(chunk, mask):
        dropped.append(int(np.count_nonzero(~mask)))
        keep(chunk, mask)

    monkeypatch.setattr(VoxelChunk, "keep", counting_keep)
    for scan, prior_tail in received:
        reg = localize(vmap, scan, prior_tail, state.reg_cfg)
        if reg is None:
            continue
        sensor = reg.T_hat.translation
        upkeep(vmap, reg.reading_in_map, sensor, map_cfg)
        retile(vmap, sensor, map_cfg)
        state.raw_poses.append(reg.T_hat)
    assert len(received) >= 20 and sum(dropped) > 0
    return state, result.state


def _assert_same_teach(state, taught):
    """Byte-equal raw poses and chunks, local and spilled."""
    assert len(state.raw_poses) == len(taught.raw_poses)
    for a, b in zip(state.raw_poses, taught.raw_poses):
        assert a.rotation.tobytes() == b.rotation.tobytes()
        assert a.translation.tobytes() == b.translation.tobytes()
    for attr in ("voxels", "nonlocal_manifest"):
        assert getattr(state.map, attr).keys() == getattr(taught.map, attr).keys()

    def chunk(vmap, key):
        return vmap.voxels[key] if key in vmap.voxels else vmap._read_chunk(key)

    for key in taught.map.all_keys():
        a, b = chunk(state.map, key), chunk(taught.map, key)
        for field in ("points", "normals", "dyn_prob", "labels"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), \
                (key, field)


def test_filtering_before_insertion_builds_the_same_map(logged_teach,
                                                       monkeypatch):
    # The fixture's teach ran teach_step; replay its inputs inserting first.
    _assert_same_teach(*_replay_teach(logged_teach, _insert_first,
                                      monkeypatch))


def test_teach_builds_the_map_of_the_sequential_filter_insert_normals_order(
        logged_teach, monkeypatch):
    # Each tick filters, then inserts and takes normals, one after the other,
    # gating against the arrays it registered on.
    from test_mapping import _filter_then_grow
    _assert_same_teach(*_replay_teach(logged_teach, _filter_then_grow,
                                      monkeypatch))


def test_traced_teach_spans_have_nonnegative_self_time(monkeypatch):
    # Set up as tests/test_bench_hooks.py sets up the benchmark's tracer.
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    from harness import Probe, Tracer
    probe = Probe()
    tracer = Tracer(probe)
    with probe.installed(), tracer.active():
        probe.start()
        run_teach(_small_world(length=6.0), _small_cfg(),
                  waypoints=[(6.0, 0.0)], v_teach=1.0)
    names = {name for name, *_ in tracer.spans}
    assert {"dynamic", "insert", "normals"} <= names
    for name, start, end, _parent, _tick, child in tracer.spans:
        assert end - start - child >= 0.0, name
    # Insertion and normals run inside the filter's span, beside its search.
    dynamic = {i for i, span in enumerate(tracer.spans) if span[0] == "dynamic"}
    assert all(span[3] in dynamic for span in tracer.spans
               if span[0] in ("insert", "normals"))
    assert tracer.metrics(probe.factor())["mapping.dynamic_ms"] > 0.0


def test_teach_is_deterministic(taught, tmp_path, monkeypatch):
    """The same teach without a scan log gives the same map and poses, and
    writes and keeps no scan log."""
    world, cfg, result = taught

    def no_log(*args, **kwargs):
        raise AssertionError("a teach without a log directory logged")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "ScanLog", no_log)
    monkeypatch.setattr(runner, "write_npcd", no_log)
    monkeypatch.setattr(runner, "write_csv", no_log)
    again = run_teach(world, cfg, waypoints=[(15.0, 0.0)], v_teach=1.0)
    assert list(tmp_path.iterdir()) == []
    a = result.state.map.all_points_cloud().points
    b = again.state.map.all_points_cloud().points
    assert np.array_equal(np.sort(a.ravel()), np.sort(b.ravel()))
    pa = np.array([p.translation for p in result.state.raw_poses])
    pb = np.array([p.translation for p in again.state.raw_poses])
    assert np.array_equal(pa, pb)


def test_finalize_teach_subsampling_example(tmp_path):
    cfg = _small_cfg()
    state = _teach_state(cfg)
    from trailnav.mapping import insert_scan
    insert_scan(state.map, PointCloud(np.zeros((1, 3)), FRAME_MAP),
                cfg.mapping.rho)
    # Raw poses every 1 cm; d_ref = 5 cm keeps every 5th plus the endpoint.
    for i in range(101):
        state.raw_stamps.append(0.1 * i)
        state.raw_poses.append(RigidTransform.from_yaw(
            0.0, [0.01 * i, 0.0, 0.0], "R", "G"))
    finalize_teach(state, 0.05, tmp_path / "db")
    traj = state.trajectory
    assert len(traj) == 21
    assert np.allclose(traj.positions[:3, 0], [0.0, 0.05, 0.10])
    assert traj.arc_length[-1] == pytest.approx(1.0, abs=1e-9)


def _chunk_digest(vmap):
    h = hashlib.sha256()
    for key in sorted(vmap.voxels):
        c = vmap.voxels[key]
        h.update(np.ascontiguousarray(c.points).tobytes())
        h.update(np.ascontiguousarray(c.dyn_prob).tobytes())
    return h.hexdigest()


def test_repeat_reaches_goal_and_map_stays_frozen(taught):
    world, cfg, result = taught
    before = _chunk_digest(load_database(result.db_dir)[0])
    rr = run_repeat(world, result.db_dir, cfg,
                    start=Pose2D(0.2, 0.15, 0.05), max_ticks=400)
    assert rr.init.success
    assert rr.status is Status.GOAL_REACHED
    assert rr.mission.intervention_count == 0
    assert _chunk_digest(rr.mission.map) == before
    # The executed path hugs the taught reference.
    from trailnav.analysis import cross_track_series
    series = cross_track_series(rr.executed, rr.mission.trajectory)
    assert np.median(series.eps_ct) < 0.1
    # The run log carries one row per controlled tick.
    assert len(rr.log_rows) > 10
    assert rr.log_rows[-1][RUN_LOG_HEADER.index("status")] == "goal_reached"


# The sha256 of the taught fixture's database files, and of the executed
# positions and the run log of a 20-tick repeat on it. They hold on numpy
# 2.4.6 and scipy 1.17.1; a change that moves them updates them here and
# says why in CHANGES.md.
TAUGHT_DB_SHA256 = (
    "fed5e91c82a752a3f50fbf6e6e234a2da600a38b2950a3b424c05b37cbc362bf")
REPEAT_POSITIONS_SHA256 = (
    "f40cba76517d7bf5e83ff4415f0bfa7d2b685fbe0f6288bbe40c1af1fb953f54")
REPEAT_RUN_LOG_SHA256 = (
    "19c73a2fdbd33a98a5812bf28746ab51d240d6fca9fc7c0345ccc9dcdb0ab68e")


def test_taught_database_and_repeat_match_their_pinned_hashes(taught,
                                                              tmp_path):
    """Outputs stay bit-identical: the bytes of every file of the taught
    ``db/`` (manifest, voxel files, ``trajectory.csv``), a short repeat's
    executed positions and its ``run_log.csv`` hash to their pinned
    values."""
    world, cfg, result = taught
    h = hashlib.sha256()
    for path in sorted(result.db_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == TAUGHT_DB_SHA256
    rr = run_repeat(world, result.db_dir, cfg,
                    start=Pose2D(0.2, 0.15, 0.05), max_ticks=20)
    assert len(rr.executed) == 20
    assert (hashlib.sha256(rr.executed.positions.tobytes()).hexdigest()
            == REPEAT_POSITIONS_SHA256)
    write_csv(tmp_path / "run_log.csv", RUN_LOG_HEADER, rr.log_rows)
    assert (hashlib.sha256((tmp_path / "run_log.csv").read_bytes()).hexdigest()
            == REPEAT_RUN_LOG_SHA256)


@pytest.fixture(scope="module")
def taught_fine(tmp_path_factory):
    """The small teach on 5 m voxels, where a repeat's retile spills voxels
    and loads them back."""
    cfg = _small_cfg()
    cfg.mapping.v_s = 5.0
    world = _small_world()
    result = run_teach(world, cfg, waypoints=[(15.0, 0.0)],
                       out_dir=tmp_path_factory.mktemp("fine") / "db",
                       v_teach=1.0)
    return world, cfg, result.db_dir


def test_repeats_from_one_database_do_not_depend_on_their_order(
        taught_fine, monkeypatch):
    """Two repeats run one after the other from one database each give what
    they give when run first: each loads the map afresh and starts from
    full residency, not from what the other left spilled."""
    import trailnav.mission as mission
    world, cfg, db = taught_fine
    starts = {"a": (Pose2D(0.2, 0.15, 0.05), 10_000),
              "b": (Pose2D(0.1, -0.1, 0.0), 20_000)}
    actions = []

    def recording_retile(vmap, position, map_cfg):
        out = retile(vmap, position, map_cfg)
        actions.extend(name for name, _ in out[1])
        return out

    retile = mission.retile
    monkeypatch.setattr(mission, "retile", recording_retile)

    def outcome(name):
        start, seed_base = starts[name]
        rr = run_repeat(world, db, cfg, start=start, max_ticks=400,
                        scan_seed_base=seed_base)
        assert rr.status is Status.GOAL_REACHED
        return (rr.init.success, rr.init.overlap, rr.init.reason,
                rr.init.pose.rotation.tobytes(),
                rr.init.pose.translation.tobytes(),
                rr.executed.positions.tobytes())

    first = [outcome("a"), outcome("b")]
    assert {"load", "unload"} <= set(actions)
    assert [outcome("b"), outcome("a")] == first[::-1]


def test_init_corrects_small_start_offset(taught):
    world, cfg, result = taught
    rr = run_repeat(world, result.db_dir, cfg,
                    start=Pose2D(0.3, 0.2, 0.05), max_ticks=1)
    assert rr.init.success
    assert rr.init.overlap > 60.0
    # Lateral and vertical correction are tight; the along-trail direction is
    # weakly constrained by the corridor, so only bound it loosely.
    true_sensor = np.array([0.3, 0.2, float(world.ground.sample(0.3, 0.2)) +
                            cfg.sim.lidar.mount_height])
    delta = rr.init.pose.translation - true_sensor
    assert abs(delta[1]) < 0.05
    assert abs(delta[2]) < 0.05
    assert np.linalg.norm(delta) < 0.5


def test_init_fails_far_from_map(taught):
    world, cfg, result = taught
    rr = run_repeat(world, result.db_dir, cfg,
                    start=Pose2D(40.0, 0.0, 0.0), max_ticks=1)
    assert not rr.init.success
    assert rr.init.overlap < cfg.mission.init_overlap_floor
    assert rr.status is None and rr.mission is None
    assert rr.init.reason != ""


def test_streamed_scan_log_holds_what_teach_step_received(logged_teach):
    _, cfg, result, received, samples = logged_teach
    log = _scan_log(result)
    rows = _scan_rows(result)
    imu = read_float_csv(log / "imu.csv", IMU_HEADER)
    odom = read_float_csv(log / "odom.csv", ODOM_HEADER)
    assert len(rows) == len(received) > 10
    start, scans = read_scan_log(log)
    assert start == tuple(received[0][1].positions[0]) + (0.0,)
    for (stamp, _), (scan, t0, _), (want, tail) in zip(rows, scans, received):
        assert stamp == t0 == tail.stamps[0]
        assert np.array_equal(scan.points, want.points)
        assert np.array_equal(scan.timestamps, want.timestamps)
        # Class labels are simulator truth, not sensor data: never logged.
        assert scan.labels is None and want.labels is not None
    # Each scan's prior samples follow it, in the order they were integrated,
    # each row tagged with its scan's row in scans.csv.
    scan_ids = np.concatenate([np.full(len(tail) - 1, i)
                               for i, (_, tail) in enumerate(received)])
    stamps, dts, gyro, accel, speeds = (np.concatenate(a)
                                        for a in zip(*samples))
    assert np.array_equal(imu, np.column_stack([scan_ids, stamps, dts, gyro,
                                                accel]))
    assert np.array_equal(odom, np.column_stack([scan_ids, stamps, speeds]))


def _logged_args(cfg, result, tmp_path):
    """CLI arguments naming the saved config and the teach run's scan log."""
    save_config(cfg, tmp_path / "cfg.yaml")
    return ["--config", str(tmp_path / "cfg.yaml"),
            "--scans", str(_scan_log(result))]


def _scan_rows(result):
    """The teach run's logged (stamp, scan file) rows."""
    return read_csv(_scan_log(result) / "scans.csv", SCANS_HEADER,
                    (float, str))


def _same_files(a, b):
    """Whether directories ``a`` and ``b`` hold the same files, byte for
    byte."""
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in names))


def test_replay_and_overlap_read_a_logged_teach(taught, tmp_path):
    _, cfg, result = taught
    common = _logged_args(cfg, result, tmp_path)
    assert main(["replay", "--out-dir", str(tmp_path / "replay"),
                 *common]) == 0
    assert _same_files(tmp_path / "replay" / "db", result.db_dir)
    assert main(["analyze", "overlap", "--db", str(result.db_dir),
                 "--out-dir", str(tmp_path / "overlap"), *common]) == 0
    pct = np.loadtxt(tmp_path / "overlap" / "overlap.csv", delimiter=",",
                     skiprows=1)[:, 1]
    assert len(pct) == len(_scan_rows(result))
    assert np.median(pct) > 90.0


@pytest.fixture(scope="module", params=[0.0, 0.3],
                ids=["heading_0", "heading_0.3"])
def cli_logged_teach(request, tmp_path_factory):
    """A ``trailnav teach --log-scans`` on a 10 m trail that starts at
    (3, -2) and heads ``request.param`` rad from +x, at the small config;
    the CLI arguments naming its config and log, its directory, and the
    poses the teach registered, scan by scan."""
    heading = request.param
    out = tmp_path_factory.mktemp("cli_teach")
    cfg = GlobalConfig(seed=3)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=200, rate=2.5,
                                max_range=20.0)
    cfg.registration.r = cfg.mapping.r = 20.0
    start = np.array([3.0, -2.0])
    end = start + 10.0 * np.array([np.cos(heading), np.sin(heading)])
    cfg.world = WorldParams(trail_length=10.0,
                            centerline=[tuple(start), tuple(end)])
    save_config(cfg, out / "cfg.yaml")
    states = []

    def recording_teach_step(state, scan, prior_tail):
        states.append(state)
        teach_step(state, scan, prior_tail)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "teach_step", recording_teach_step)
        assert main(["teach", "--config", str(out / "cfg.yaml"), "--log-scans",
                     "--out-dir", str(out / "teach")]) == 0
    common = ["--config", str(out / "cfg.yaml"),
              "--scans", str(out / "teach" / "scans")]
    return common, out, states[0].raw_poses


def test_cli_replay_rebuilds_the_taught_database(cli_logged_teach):
    common, out, _ = cli_logged_teach
    assert main(["replay", "--out-dir", str(out / "replay"), *common]) == 0
    assert _same_files(out / "replay" / "db", out / "teach" / "db")


def test_analysis_of_a_log_off_the_origin(cli_logged_teach, monkeypatch):
    """A teach that starts off the origin, heading 0 or 0.3 rad, is analysed
    in its own frame: its scans overlap the map as well as at heading 0,
    and scan k registers where the teach registered it (8 mm off at 0.3
    rad). Before the log recorded its start, the 0.3 rad log's median
    overlap read 58.5 % and scan 10 landed 2.34 m off, its yaw 0.30 rad
    off."""
    import trailnav.cli as cli
    common, out, taught_poses = cli_logged_teach
    db = ["--db", str(out / "teach" / "db")]
    assert main(["analyze", "overlap", *db, *common,
                 "--out-dir", str(out / "overlap")]) == 0
    pct = read_float_csv(out / "overlap" / "overlap.csv",
                         ["scan_id", "pct"])[:, 1]
    assert np.median(pct) > 90.0
    found = []

    def recording_localize(*args, **kwargs):
        found.append(localize(*args, **kwargs))
        return found[-1]

    localize = cli.localize
    monkeypatch.setattr(cli, "localize", recording_localize)
    k = 10
    assert main(["analyze", "perturbation", *db, *common, "--scan-index",
                 str(k), "--out-dir", str(out / "perturbation")]) == 0
    assert np.linalg.norm(found[-1].T_hat.translation -
                          taught_poses[k].translation) < 0.05


def test_perturbation_registers_only_its_scan(taught, tmp_path, monkeypatch):
    """Scan k's prior window is anchored at scan k - 1's registration, as in
    the logged run, so ``--scan-index k`` registers scans 0..k, and reads
    the log no further; a negative index reads no scan."""
    import trailnav.mission as mission
    _, cfg, result = taught
    common = _logged_args(cfg, result, tmp_path)
    calls, reads = [], []

    def counting_register(*args, **kwargs):
        calls.append(1)
        return register(*args, **kwargs)

    def counting_read_npcd(*args, **kwargs):
        reads.append(1)
        return read_npcd(*args, **kwargs)

    register, read_npcd = mission.register, runner.read_npcd
    monkeypatch.setattr(mission, "register", counting_register)
    monkeypatch.setattr(runner, "read_npcd", counting_read_npcd)

    def perturbation(index, out):
        return main(["analyze", "perturbation", "--db", str(result.db_dir),
                     "--scan-index", str(index),
                     "--out-dir", str(tmp_path / out), *common])

    assert perturbation(3, "pe") == 0
    assert (tmp_path / "pe" / "perturbation.csv").exists()
    assert len(calls) == len(reads) == 4
    assert perturbation(-1, "before") == 4
    assert len(calls) == len(reads) == 4
    n = len(_scan_rows(result))
    assert perturbation(n, "after") == 4
    assert len(calls) == len(reads) == 4 + n


def test_overlap_with_no_registered_scan_exits_four(taught, tmp_path,
                                                   capsys):
    """An input filter radius that leaves every logged scan empty registers
    none: no overlap is written and the log's scans.csv is named."""
    _, cfg, result = taught
    cfg = copy.deepcopy(cfg)
    cfg.registration.r = 0.1
    common = _logged_args(cfg, result, tmp_path)
    assert main(["analyze", "overlap", "--db", str(result.db_dir),
                 "--out-dir", str(tmp_path / "overlap"), *common]) == 4
    err = capsys.readouterr().err
    assert f"{_scan_log(result) / 'scans.csv'}: no logged scan registered" \
        in err
    assert not (tmp_path / "overlap").exists()


def test_degenerate_logged_scan_exits_three(taught, tmp_path, monkeypatch,
                                            capsys):
    import trailnav.mission as mission
    _, cfg, result = taught
    common = _logged_args(cfg, result, tmp_path)

    def degenerate(*args, **kwargs):
        raise DegenerateRegistration("normal system is rank deficient")

    monkeypatch.setattr(mission, "register", degenerate)
    assert main(["analyze", "overlap", "--db", str(result.db_dir),
                 "--out-dir", str(tmp_path / "overlap"), *common]) == 3
    assert "rank deficient" in capsys.readouterr().err


def _database_without_normals(db, out):
    """A copy of the database ``db`` at ``out`` whose voxel files carry no
    normals."""
    from trailnav.mapping import read_voxel, write_voxel
    shutil.copytree(db, out)
    for path in out.glob("vx_*.npcd"):
        chunk = read_voxel(path)
        chunk.normals[:] = np.nan
        write_voxel(path, chunk)
    return out


def test_a_database_without_normals_exits_three(taught, tmp_path, capsys):
    _, cfg, result = taught
    db = _database_without_normals(result.db_dir, tmp_path / "db")
    assert read_npcd(next(db.glob("vx_*.npcd"))).normals is None
    assert main(["analyze", "overlap", "--db", str(db),
                 "--out-dir", str(tmp_path / "overlap"),
                 *_logged_args(cfg, result, tmp_path)]) == 3
    assert "no usable normals" in capsys.readouterr().err
    assert not (tmp_path / "overlap").exists()


@pytest.mark.parametrize("command", ["overlap", "perturbation"])
def test_an_empty_database_exits_three(taught, tmp_path, capsys, command):
    """On an empty local map ``localize`` places a scan at its prior (teach's
    first tick), so the analyses check the database map before they
    register: with no map point there is nothing to register in."""
    from trailnav.mapping import save_map
    _, cfg, result = taught
    db = tmp_path / "db"
    save_map(VoxelMap(cfg.mapping.v_s), db)
    shutil.copy(result.db_dir / "trajectory.csv", db)
    assert main(["analyze", command, "--db", str(db),
                 "--out-dir", str(tmp_path / "out"),
                 *_logged_args(cfg, result, tmp_path)]) == 3
    assert "map has no usable normals" in capsys.readouterr().err


def test_each_closed_loop_tick_rolls_the_truth_out_once(taught, monkeypatch):
    """The benchmark marks ticks at ``runner._rollout``: both drivers call it
    once per tick, before the tick's step, and the repeat's initialization
    at rest never calls it."""
    world, cfg, result = taught
    events = []

    def recording(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("_rollout", "initialize_localization", "teach_step",
                 "repeat_step"):
        monkeypatch.setattr(runner, name, recording(name, getattr(runner, name)))
    run_teach(world, cfg, waypoints=[(15.0, 0.0)], v_teach=1.0, max_ticks=4)
    assert events == ["_rollout", "teach_step"] * 4
    events.clear()
    rr = run_repeat(world, result.db_dir, cfg,
                    start=Pose2D(0.2, 0.15, 0.05), max_ticks=4)
    assert rr.init.success
    assert events == ["initialize_localization"] + ["_rollout",
                                                    "repeat_step"] * 4


def test_scan_log_reader_reads_one_scan_per_item(taught, monkeypatch):
    _, cfg, result = taught
    reads = []

    def counting_read_npcd(*args, **kwargs):
        reads.append(1)
        return read_npcd(*args, **kwargs)

    read_npcd = runner.read_npcd
    monkeypatch.setattr(runner, "read_npcd", counting_read_npcd)
    _, log = read_scan_log(_scan_log(result))
    assert reads == []
    n = len(_scan_rows(result))
    for i, (scan, stamp, samples) in enumerate(log, start=1):
        assert len(reads) == i
        assert stamp <= scan.timestamps.min()
        assert samples[0][-1] >= scan.timestamps.max()
    assert i == n


def _short_log(result, tmp_path, n_scans):
    """A copy of the teach's scan log that keeps its first ``n_scans`` scans
    and their IMU and odometry samples."""
    log = tmp_path / "short"
    shutil.copytree(_scan_log(result), log)
    write_csv(log / "scans.csv", SCANS_HEADER, _scan_rows(result)[:n_scans])
    for name, header in (("imu.csv", IMU_HEADER), ("odom.csv", ODOM_HEADER)):
        rows = read_float_csv(log / name, header)
        write_csv(log / name, header, ((int(r[0]), *r[1:]) for r in rows
                                       if r[0] < n_scans))
    return log


@pytest.mark.parametrize("command", ["replay", "overlap", "perturbation"])
def test_log_without_scans_exits_four(taught, tmp_path, capsys, command):
    _, cfg, result = taught
    log = _short_log(result, tmp_path, 0)
    save_config(cfg, tmp_path / "cfg.yaml")
    argv = {"replay": ["replay"],
            "overlap": ["analyze", "overlap", "--db", str(result.db_dir)],
            "perturbation": ["analyze", "perturbation",
                             "--db", str(result.db_dir)]}[command]
    assert main([*argv, "--config", str(tmp_path / "cfg.yaml"),
                 "--scans", str(log), "--out-dir", str(tmp_path / "out")]) == 4
    assert f"{log / 'scans.csv'}: line 2: no scans logged" in \
        capsys.readouterr().err


@pytest.mark.parametrize("defect", ["no_start", "stray_imu_row"])
def test_malformed_scan_log_exits_four(taught, tmp_path, capsys, defect):
    """A log without its start record, or with an IMU row whose scan index
    is not a row of scans.csv, exits 4 and names the file."""
    _, cfg, result = taught
    log = _short_log(result, tmp_path, 5)
    if defect == "no_start":
        (log / "start.csv").unlink()
        named = log / "start.csv"
    else:
        named = log / "imu.csv"
        with open(named, "a") as fh:
            fh.write("5,1000.0,0.01,0.0,0.0,0.0,0.0,0.0,9.81\n")
    save_config(cfg, tmp_path / "cfg.yaml")
    assert main(["replay", "--config", str(tmp_path / "cfg.yaml"),
                 "--scans", str(log), "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert str(named) in err
    if defect == "stray_imu_row":
        assert "scan 5 is not a row of the 5 in scans.csv" in err


def test_replay_of_one_scan_exits_four(taught, tmp_path, capsys):
    _, cfg, result = taught
    log = _short_log(result, tmp_path, 1)
    save_config(cfg, tmp_path / "cfg.yaml")
    assert main(["replay", "--config", str(tmp_path / "cfg.yaml"),
                 "--scans", str(log), "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert str(log / "scans.csv") in err
    assert "1 logged scans registered 1 poses" in err
    assert not (tmp_path / "out" / "db").exists()
