import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from trailnav.csvio import CsvFormatError, read_float_csv, write_csv
from trailnav.geom import FRAME_LIDAR, PointCloud, _quat_to_matrix
from trailnav.npcd import write_npcd
from trailnav.prior import (GRAVITY, PriorCoverageError, dead_reckon, deskew,
                            update_orientation)
from trailnav.runner import (IMU_HEADER, ODOM_HEADER, SCANS_HEADER,
                             START_HEADER, read_scan_log)
from trailnav.trajectory import Trajectory

LEVEL = np.array([1.0, 0.0, 0.0, 0.0])
UP = np.array([0.0, 0.0, GRAVITY])


def _yaw_quat(yaw):
    return np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])


def _yaw(quat):
    m = _quat_to_matrix(quat)
    return float(np.arctan2(m[1, 0], m[0, 0]))


def _roll_pitch(quat):
    m = _quat_to_matrix(quat)
    return (float(np.arctan2(m[2, 1], m[2, 2])),
            float(np.arcsin(np.clip(-m[2, 0], -1.0, 1.0))))


def _gyro(gyro_z=0.0):
    return np.array([0.0, 0.0, gyro_z])


def _level_run(n, dt, gyro_z, speed, anchor=(0.0, 0.0, 0.0, 0.0)):
    """``dead_reckon`` over ``n`` samples of a level IMU turning at
    ``gyro_z`` and odometry at ``speed``, from ``anchor`` at stamp 0."""
    return dead_reckon(anchor, 0.0, dt * np.arange(1, n + 1),
                       np.full(n, dt), np.tile(_gyro(gyro_z), (n, 1)),
                       np.tile(UP, (n, 1)), np.full(n, speed), 0.1)


def test_gyro_only_yaw_integration():
    quat = LEVEL
    for _ in range(100):
        quat = update_orientation(quat, _gyro(0.5), UP, 0.01, 0.1)
    assert _yaw(quat) == pytest.approx(0.5, abs=1e-9)
    roll, pitch = _roll_pitch(quat)
    assert abs(roll) < 1e-9 and abs(pitch) < 1e-9


def test_tilt_correction_converges_to_gravity():
    # Start 0.2 rad rolled; accel says gravity is straight up in the world.
    # Correction time constant is 1/beta = 10 s, so run well past it.
    quat = np.array([np.cos(0.1), np.sin(0.1), 0.0, 0.0])
    for _ in range(10000):
        quat = update_orientation(quat, _gyro(), UP, 0.01, 0.1)
    roll, pitch = _roll_pitch(quat)
    assert abs(roll) < 1e-3 and abs(pitch) < 1e-3


def test_level_correction_never_touches_yaw():
    # For a level (pure-yaw) state and a level accelerometer the correction
    # vanishes, so yaw stays exactly gyro-driven.
    quat = _yaw_quat(0.8)
    yaw0 = _yaw(quat)
    for _ in range(200):
        quat = update_orientation(quat, _gyro(), UP, 0.01, 0.2)
    assert _yaw(quat) == pytest.approx(yaw0, abs=1e-12)
    roll, pitch = _roll_pitch(quat)
    assert abs(roll) < 1e-12 and abs(pitch) < 1e-12


def test_zero_accel_skips_correction():
    out = update_orientation(LEVEL, _gyro(), np.zeros(3), 0.01, 0.1)
    assert np.allclose(out, LEVEL)


def test_update_orientation_rejects_bad_dt():
    with pytest.raises(ValueError):
        update_orientation(LEVEL, _gyro(), UP, 0.0, 0.1)
    with pytest.raises(ValueError):
        _level_run(3, 0.0, 0.0, 1.0)


def test_dead_reckon_advances_along_heading():
    traj = _level_run(1, 0.5, 0.0, 2.0, anchor=(1.0, 0.0, 0.0, np.pi / 2))
    pose = traj.pose(1)
    assert np.allclose(pose.translation, [1.0, 1.0, 0.0], atol=1e-12)
    assert pose.from_frame == "L" and pose.to_frame == "G"


def test_integrator_straight_line():
    traj = _level_run(100, 0.01, 0.0, 1.0)
    assert len(traj) == 101
    assert traj.positions[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(traj.stamps) > 0)


def test_integrator_arc_radius():
    # v = 1, omega = 0.5 -> circle radius 2.
    dt = 0.001
    traj = _level_run(int(2 * np.pi / 0.5 / dt), dt, 0.5, 1.0)
    center = np.array([0.0, 2.0, 0.0])
    radii = np.linalg.norm(traj.positions - center, axis=1)
    assert np.max(np.abs(radii - 2.0)) < 0.01


def _log_one_scan(path, imu, odom, start=(1.0, 2.0, 0.5, 0.3)):
    write_npcd(path / "s.npcd", PointCloud(
        np.zeros((2, 3)), timestamps=np.array([0.0, 0.05])))
    write_csv(path / "scans.csv", SCANS_HEADER, [(0.0, "s.npcd")])
    write_csv(path / "start.csv", START_HEADER, [start])
    write_csv(path / "imu.csv", IMU_HEADER, [(0, *row) for row in imu])
    write_csv(path / "odom.csv", ODOM_HEADER, [(0, *row) for row in odom])


def test_logged_prior_rejects_samples_not_after_the_last_one(tmp_path):
    """A logged scan's prior is ``dead_reckon`` over its own IMU rows, with
    their logged dt and the odometry speed interpolated at their stamps; a
    row whose stamp is not after the one before it, or after the scan's
    stamp, makes the log malformed."""
    rng = np.random.default_rng(2)
    stamps = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
    dts = np.array([0.01, 0.01, 0.012, 0.008, 0.01])
    gyro = rng.normal(0.0, 0.3, (5, 3))
    accel = UP + rng.normal(0.0, 0.2, (5, 3))
    imu = np.column_stack([stamps, dts, gyro, accel])
    odom = np.array([[0.005, 1.0], [0.025, 1.5], [0.06, 0.5]])
    _log_one_scan(tmp_path, imu, odom)
    start, scans = read_scan_log(tmp_path)
    assert start == (1.0, 2.0, 0.5, 0.3)
    [(_, stamp, samples)] = scans
    got = dead_reckon(start, stamp, *samples, 0.1)
    want = dead_reckon((1.0, 2.0, 0.5, 0.3), 0.0, stamps, dts, gyro, accel,
                       np.interp(stamps, odom[:, 0], odom[:, 1]), 0.1)
    assert np.array_equal(got.stamps, want.stamps)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.quats, want.quats)
    for row, stamp in ((2, 0.02), (2, 0.015), (0, 0.0)):
        bad = imu.copy()
        bad[row, 0] = stamp
        _log_one_scan(tmp_path, bad, odom)
        with pytest.raises(CsvFormatError, match=f"imu.csv: line {row + 2}: "):
            read_scan_log(tmp_path)


def test_trajectory_requires_increasing_stamps():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)),
                   np.tile([1.0, 0, 0, 0], (2, 1)))


def _straight_prior(v, t_hi, n=101):
    ts = np.linspace(0.0, t_hi, n)
    trans = np.column_stack([v * ts, np.zeros(n), np.zeros(n)])
    return Trajectory(ts, trans, np.tile([1.0, 0, 0, 0], (n, 1)))


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
    prior = Trajectory(ts, np.zeros((51, 3)), quats)
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
            return prior.positions[0], rot0
    else:
        slerp = Slerp(prior.stamps, Rotation.from_quat(prior.quats[:, [1, 2, 3, 0]]))

        def pose(t):
            return (np.array([np.interp(t, prior.stamps, prior.positions[:, j])
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
    return Trajectory(stamps, trans, quats)


@pytest.mark.parametrize("case", ["repeated_stamps", "with_normals"])
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
    """The logged-run layout's IMU and odometry files, as the scan log
    reader reads them: each row starts with its scan's row index."""
    (tmp_path / "imu.csv").write_text("scan,stamp,dt,gx,gy,gz,ax,ay,az\n"
                                      "0,0.0,0.01,0.1,0.2,0.3,0.0,0.0,9.81\n"
                                      "1,0.01,0.01,0.0,0.0,0.5,0.1,0.0,9.8\n")
    (tmp_path / "odom.csv").write_text("scan,stamp,v\n0,0.0,1.5\n1,0.01,1.4\n")
    imu = read_float_csv(tmp_path / "imu.csv", IMU_HEADER)
    odom = read_float_csv(tmp_path / "odom.csv", ODOM_HEADER)
    assert np.array_equal(imu, [[0, 0.0, 0.01, 0.1, 0.2, 0.3, 0.0, 0.0, 9.81],
                                [1, 0.01, 0.01, 0.0, 0.0, 0.5, 0.1, 0.0, 9.8]])
    assert np.array_equal(odom, [[0, 0.0, 1.5], [1, 0.01, 1.4]])
