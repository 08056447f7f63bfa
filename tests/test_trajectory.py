import numpy as np
import pytest

from trailnav.geom import RigidTransform
from trailnav.trajectory import (Trajectory, cumulative_arc_length,
                                 subsample_by_distance)


def _straight(n=11, spacing=1.0):
    stamps = np.arange(n, dtype=np.float64)
    positions = np.column_stack([spacing * np.arange(n), np.zeros(n),
                                 np.zeros(n)])
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(stamps, positions, quats)


def test_cumulative_arc_length():
    positions = np.array([[0, 0, 0], [3.0, 4.0, 0], [3.0, 4.0, 12.0]])
    assert np.allclose(cumulative_arc_length(positions), [0.0, 5.0, 17.0])


def test_arc_length_must_be_non_decreasing():
    with pytest.raises(ValueError):
        Trajectory(np.arange(2.0), np.zeros((2, 3)),
                   np.tile([1.0, 0, 0, 0], (2, 1)),
                   arc_length=[1.0, 0.0])


def test_projection_interior_point():
    traj = _straight()
    proj = traj.project([2.6, 1.0])
    assert proj.seg_index == 2
    assert proj.t_along == pytest.approx(0.6)
    assert proj.signed_normal == pytest.approx(1.0)   # left of +x travel
    assert proj.distance == pytest.approx(1.0)
    assert proj.arc_position == pytest.approx(2.6)
    assert proj.tangent_heading == pytest.approx(0.0)
    assert proj.nearest_pose_index == 3   # past the segment midpoint


def test_projection_sign_flips_with_side():
    traj = _straight()
    assert traj.project([2.5, -1.0]).signed_normal == pytest.approx(-1.0)


def test_projection_clamps_at_ends():
    traj = _straight()
    proj = traj.project([-3.0, 0.5])
    assert proj.seg_index == 0
    assert proj.arc_position == pytest.approx(0.0)
    # Beyond the end the Euclidean distance exceeds |signed normal|.
    proj_end = traj.project([12.0, 0.5])
    assert proj_end.arc_position == pytest.approx(10.0)
    assert proj_end.distance == pytest.approx(np.hypot(2.0, 0.5))


def test_projection_tie_goes_to_lower_segment():
    # A right-angle corner: the corner point is shared by segments 0 and 1.
    positions = np.array([[0, 0, 0], [1.0, 0, 0], [1.0, 1.0, 0]])
    traj = Trajectory(np.arange(3.0), positions,
                      np.tile([1.0, 0, 0, 0], (3, 1)))
    proj = traj.project([1.0, 0.0])
    assert proj.seg_index == 0


def test_pose_accessor_frames():
    traj = _straight()
    pose = traj.pose(3)
    assert isinstance(pose, RigidTransform)
    assert pose.from_frame == "L" and pose.to_frame == "G"
    assert np.allclose(pose.translation, [3.0, 0.0, 0.0])


def test_reversed_flips_headings_and_order():
    traj = _straight(n=5)
    rev = traj.reversed()
    assert np.allclose(rev.positions[0], traj.positions[-1])
    assert np.allclose(rev.positions[-1], traj.positions[0])
    headings = np.array([rev.pose(i).yaw for i in range(len(rev))])
    assert np.allclose(np.abs(headings), np.pi, atol=1e-12)
    assert rev.total_length() == pytest.approx(traj.total_length())


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    n = 20
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    traj = Trajectory(np.sort(rng.random(n)) * 10,
                      np.cumsum(rng.random((n, 3)), axis=0), quats)
    path = tmp_path / "trajectory.csv"
    traj.save_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "stamp,x,y,z,qw,qx,qy,qz,arc_length"
    back = Trajectory.load_csv(path)
    assert np.array_equal(back.stamps, traj.stamps)
    assert np.array_equal(back.positions, traj.positions)
    assert np.array_equal(back.quats, traj.quats)
    assert np.array_equal(back.arc_length, traj.arc_length)


def test_subsample_every_fifth():
    # Poses every 1 cm with 5 cm spacing keeps every 5th pose plus the end.
    positions = np.column_stack([0.01 * np.arange(101), np.zeros(101),
                                 np.zeros(101)])
    idx = subsample_by_distance(positions, 0.05)
    assert idx[0] == 0 and idx[-1] == 100
    assert np.array_equal(idx[:5], [0, 5, 10, 15, 20])


def test_subsample_two_poses_kept():
    assert np.array_equal(subsample_by_distance(np.zeros((2, 3)), 1.0), [0, 1])


def test_subsample_consecutive_spacing_property():
    rng = np.random.default_rng(4)
    positions = np.cumsum(rng.random((200, 3)) * 0.05, axis=0)
    idx = subsample_by_distance(positions, 0.2)
    kept = positions[idx]
    gaps = np.linalg.norm(np.diff(kept[:-1], axis=0), axis=1)
    assert np.all(gaps >= 0.2 - 1e-9)
