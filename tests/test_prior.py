import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from trailnav.geom import FRAME_LIDAR, PointCloud, RigidTransform
from trailnav.prior import (GRAVITY, ImuSample, OdomSample, OrientationState,
                            PriorCoverageError, PriorIntegrator,
                            PriorTrajectory, deskew, integrate_prior,
                            update_orientation)
from trailnav.runner import load_scan_log


def _roll_pitch(state):
    m = state.matrix
    return (float(np.arctan2(m[2, 1], m[2, 2])),
            float(np.arcsin(np.clip(-m[2, 0], -1.0, 1.0))))


def _level_imu(gyro_z=0.0, stamp=0.0):
    return ImuSample(gyro=(0.0, 0.0, gyro_z), accel=(0.0, 0.0, GRAVITY),
                     stamp=stamp)


def test_gyro_only_yaw_integration():
    state = OrientationState()
    dt = 0.01
    for _ in range(100):
        state = update_orientation(state, _level_imu(gyro_z=0.5), dt)
    assert state.yaw == pytest.approx(0.5, abs=1e-9)
    roll, pitch = _roll_pitch(state)
    assert abs(roll) < 1e-9 and abs(pitch) < 1e-9


def test_tilt_correction_converges_to_gravity():
    # Start 0.2 rad rolled; accel says gravity is straight up in the world.
    # Correction time constant is 1/beta = 10 s, so run well past it.
    rolled = OrientationState(np.array([np.cos(0.1), np.sin(0.1), 0.0, 0.0]))
    state = rolled
    imu = _level_imu()
    for _ in range(10000):
        state = update_orientation(state, imu, 0.01, beta=0.1)
    roll, pitch = _roll_pitch(state)
    assert abs(roll) < 1e-3 and abs(pitch) < 1e-3


def test_level_correction_never_touches_yaw():
    # For a level (pure-yaw) state and a level accelerometer the correction
    # vanishes, so yaw stays exactly gyro-driven.
    state = OrientationState(np.array([np.cos(0.4), 0.0, 0.0, np.sin(0.4)]))
    yaw0 = state.yaw
    for _ in range(200):
        state = update_orientation(state, _level_imu(), 0.01, beta=0.2)
    assert state.yaw == pytest.approx(yaw0, abs=1e-12)
    roll, pitch = _roll_pitch(state)
    assert abs(roll) < 1e-12 and abs(pitch) < 1e-12


def test_zero_accel_skips_correction():
    state = OrientationState()
    imu = ImuSample(gyro=(0.0, 0.0, 0.0), accel=(0.0, 0.0, 0.0), stamp=0.0)
    out = update_orientation(state, imu, 0.01)
    assert np.allclose(out.quat, state.quat)


def test_update_orientation_rejects_bad_dt():
    with pytest.raises(ValueError):
        update_orientation(OrientationState(), _level_imu(), 0.0)


def test_integrate_prior_advances_along_heading():
    yaw = np.pi / 2
    state = OrientationState(np.array([np.cos(yaw / 2), 0, 0, np.sin(yaw / 2)]))
    pose = integrate_prior([1.0, 0.0, 0.0], OdomSample(2.0, 0.0), state, 0.5)
    assert np.allclose(pose.translation, [1.0, 1.0, 0.0], atol=1e-12)
    assert pose.from_frame == "L" and pose.to_frame == "G"


def test_integrator_straight_line():
    integ = PriorIntegrator(start_stamp=0.0)
    for i in range(1, 101):
        integ.step(_level_imu(stamp=i * 0.01), OdomSample(1.0, i * 0.01), 0.01)
    traj = integ.trajectory()
    assert len(traj) == 101
    assert traj.translations[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(traj.stamps) > 0)


def test_integrator_arc_radius():
    # v = 1, omega = 0.5 -> circle radius 2.
    integ = PriorIntegrator(start_stamp=0.0)
    dt = 0.001
    for i in range(1, int(2 * np.pi / 0.5 / dt) + 1):
        integ.step(_level_imu(gyro_z=0.5, stamp=i * dt),
                   OdomSample(1.0, i * dt), dt)
    traj = integ.trajectory()
    center = np.array([0.0, 2.0, 0.0])
    radii = np.linalg.norm(traj.translations - center, axis=1)
    assert np.max(np.abs(radii - 2.0)) < 0.01


def test_trajectory_requires_increasing_stamps():
    with pytest.raises(ValueError):
        PriorTrajectory(np.array([0.0, 0.0]), np.zeros((2, 3)),
                        np.tile([1.0, 0, 0, 0], (2, 1)))


def test_window_includes_samples_around_its_span():
    traj = PriorTrajectory(np.arange(5.0), np.zeros((5, 3)),
                           np.tile([1.0, 0, 0, 0], (5, 1)))
    assert np.array_equal(traj.window(2.5, 3.5).stamps, [2.0, 3.0, 4.0])
    assert np.array_equal(traj.window(2.0, 3.0).stamps, [2.0, 3.0])
    assert np.array_equal(traj.window(3.5, 9.0).stamps, [3.0, 4.0])


def _straight_prior(v, t_hi, n=101):
    ts = np.linspace(0.0, t_hi, n)
    trans = np.column_stack([v * ts, np.zeros(n), np.zeros(n)])
    return PriorTrajectory(ts, trans, np.tile([1.0, 0, 0, 0], (n, 1)))


def test_deskew_stationary_is_identity():
    prior = _straight_prior(0.0, 1.0)
    scan = PointCloud(np.arange(30.0).reshape(10, 3), frame=FRAME_LIDAR,
                      timestamps=np.linspace(0.0, 1.0, 10))
    out = deskew(scan, prior)
    assert np.allclose(out.points, scan.points, atol=1e-12)
    assert np.all(out.timestamps == 1.0)


def test_deskew_linear_motion_oracle():
    # Sensor moving +x at 2 m/s; a point seen at t has world position
    # p_world = p_t + (2t, 0, 0); at scan end t=1 its sensor coords are
    # p_t + (2t - 2, 0, 0).
    prior = _straight_prior(2.0, 1.0)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    pts = np.tile([5.0, 1.0, 0.0], (4, 1))
    scan = PointCloud(pts, frame=FRAME_LIDAR, timestamps=ts)
    out = deskew(scan, prior)
    expected_x = 5.0 + 2.0 * ts - 2.0
    assert np.allclose(out.points[:, 0], expected_x, atol=1e-12)
    assert np.allclose(out.points[:, 1:], pts[:, 1:], atol=1e-12)


def test_deskew_rotating_motion():
    # Pure yaw rotation at 1 rad/s. The scan-end frame is the pose at the
    # latest point stamp (t=1): a point seen at t=0 appears rotated by -1 rad
    # there, one seen at t=1 stays put.
    ts = np.linspace(0.0, 1.0, 51)
    quats = np.column_stack([np.cos(ts / 2), np.zeros_like(ts),
                             np.zeros_like(ts), np.sin(ts / 2)])
    prior = PriorTrajectory(ts, np.zeros((51, 3)), quats)
    scan = PointCloud(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                      frame=FRAME_LIDAR, timestamps=np.array([0.0, 1.0]))
    out = deskew(scan, prior)
    assert np.allclose(out.points[0], [np.cos(1.0), -np.sin(1.0), 0.0],
                       atol=1e-9)
    assert np.allclose(out.points[1], [1.0, 0.0, 0.0], atol=1e-12)


def _deskew_per_point(scan, prior):
    """Reference deskew: one pose per point, interpolated at that point's own
    stamp, then the batched rigid re-expression."""
    if len(prior) == 1:
        rot0 = Rotation.from_quat(prior.quats[0][[1, 2, 3, 0]])

        def pose(t):
            return prior.translations[0], rot0
    else:
        slerp = Slerp(prior.stamps, Rotation.from_quat(prior.quats[:, [1, 2, 3, 0]]))

        def pose(t):
            return (np.array([np.interp(t, prior.stamps, prior.translations[:, j])
                              for j in range(3)]), slerp(t))
    poses = [pose(t) for t in scan.timestamps]
    trans_end, rot_end = pose(scan.timestamps.max())
    rots = Rotation.concatenate([r for _, r in poses])
    trans = np.array([tr for tr, _ in poses])
    pts = rot_end.inv().apply(rots.apply(scan.points) + trans - trans_end)
    normals = (None if scan.normals is None
               else (rot_end.inv() * rots).apply(scan.normals))
    return pts, normals


def _wobbly_prior(n, seed):
    rng = np.random.default_rng(seed)
    stamps = np.linspace(0.0, 0.1, n)
    angles = np.column_stack([np.cumsum(rng.normal(0.0, 0.05, n)),
                              rng.normal(0.0, 0.02, (n, 2))])
    quats = Rotation.from_euler("zyx", angles).as_quat()[:, [3, 0, 1, 2]]
    trans = np.cumsum(rng.normal(0.0, 0.05, (n, 3)), axis=0)
    return PriorTrajectory(stamps, trans, quats)


@pytest.mark.parametrize("case", ["repeated_stamps", "with_normals",
                                  "one_sample_prior"])
def test_deskew_matches_per_point_slerp(case):
    rng = np.random.default_rng(7)
    prior = _wobbly_prior(41, seed=3)
    # Columns of 8 points share a stamp, as a lidar's azimuth columns do.
    ts = np.repeat(np.linspace(0.001, 0.099, 25), 8)
    rng.shuffle(ts)
    normals = None
    if case != "repeated_stamps":
        normals = rng.normal(size=(len(ts), 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if case == "one_sample_prior":
        prior = PriorTrajectory([0.05], [[1.0, 2.0, 3.0]], prior.quats[5:6])
        ts = np.full(len(ts), 0.05)
    scan = PointCloud(rng.uniform(-20, 20, (len(ts), 3)), frame=FRAME_LIDAR,
                      normals=normals, timestamps=ts)
    out = deskew(scan, prior)
    pts, want_normals = _deskew_per_point(scan, prior)
    assert np.array_equal(out.points, pts)
    if normals is None:
        assert out.normals is None
    else:
        assert np.array_equal(out.normals, want_normals)
    assert np.array_equal(out.timestamps, np.full(len(ts), ts.max()))


def test_deskew_requires_coverage():
    prior = _straight_prior(1.0, 1.0)
    scan = PointCloud(np.zeros((1, 3)), frame=FRAME_LIDAR,
                      timestamps=np.array([1.5]))
    with pytest.raises(PriorCoverageError) as exc:
        deskew(scan, prior)
    assert "1.5" in str(exc.value)


def test_deskew_requires_timestamps():
    prior = _straight_prior(1.0, 1.0)
    with pytest.raises(ValueError):
        deskew(PointCloud(np.zeros((1, 3))), prior)


def test_imu_odom_csv_round_trip(tmp_path):
    """The logged-run layout's IMU and odometry files, read by the one
    logged-run loader (here with no scans)."""
    (tmp_path / "scans.csv").write_text("stamp,file\n")
    (tmp_path / "imu.csv").write_text("stamp,gx,gy,gz,ax,ay,az\n"
                                      "0.0,0.1,0.2,0.3,0.0,0.0,9.81\n"
                                      "0.01,0.0,0.0,0.5,0.1,0.0,9.8\n")
    (tmp_path / "odom.csv").write_text("stamp,v\n0.0,1.5\n0.01,1.4\n")
    scans, samples, odom = load_scan_log(tmp_path)
    assert scans == []
    assert len(samples) == 2
    assert samples[0].gyro[2] == 0.3
    assert samples[1].accel[0] == 0.1
    assert samples[1].stamp == 0.01
    assert len(odom) == 2 and odom[1].linear_speed == 1.4
