import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from trailnav.geom import (SPLIT_QUERY_MIN, WORKER, FrameMismatchError,
                           PointCloud, RigidTransform, build_index,
                           split_query, transform_cloud)


def test_pointcloud_shape_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), frame="X")
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), normals=np.zeros((3, 3)))


def test_pointcloud_normals_must_be_unit():
    for bad in ([0.5, 0.5, 0.5], [np.nan, 0.0, 1.0]):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), normals=[[0.0, 0.0, 1.0], bad])
    n = np.tile([0.0, 0.0, 1.0], (2, 1))
    cloud = PointCloud(np.zeros((2, 3)), normals=n)
    assert cloud.normals.shape == (2, 3)


def test_pointcloud_dyn_prob_bounds():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), dyn_prob=np.array([0.5, 1.5]))


def test_select_carries_optional_fields():
    cloud = PointCloud(np.arange(12.0).reshape(4, 3),
                       timestamps=np.arange(4.0),
                       labels=np.array([1, 2, 3, 4]))
    sub = cloud.select(np.array([True, False, True, False]))
    assert len(sub) == 2
    assert np.array_equal(sub.timestamps, [0.0, 2.0])
    assert np.array_equal(sub.labels, [1, 3])
    assert sub.normals is None


def test_rigid_transform_rejects_non_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_from_yaw_and_yaw_property():
    t = RigidTransform.from_yaw(0.3, [1.0, 2.0, 3.0])
    assert t.yaw == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(t.translation, [1.0, 2.0, 3.0])


def test_inverse_roundtrip():
    t = RigidTransform.from_yaw(1.1, [4.0, -2.0, 0.5], "L", "G")
    identity = t.inverse() @ t
    assert np.allclose(identity.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(identity.translation, 0.0, atol=1e-12)
    assert identity.from_frame == "L" and identity.to_frame == "L"


def test_compose_frame_mismatch():
    a = RigidTransform(np.eye(3), np.zeros(3), "L", "G")
    b = RigidTransform(np.eye(3), np.zeros(3), "R", "R")
    with pytest.raises(FrameMismatchError):
        a @ b


def test_compose_applies_right_operand_first():
    shift = RigidTransform.from_yaw(0.0, [1.0, 0.0, 0.0], "L", "L")
    rot = RigidTransform.from_yaw(np.pi / 2, [0.0, 0.0, 0.0], "L", "G")
    p = np.array([[0.0, 0.0, 0.0]])
    # rot ∘ shift: shift to (1,0,0) then rotate to (0,1,0).
    assert np.allclose((rot @ shift).apply(p), [[0.0, 1.0, 0.0]], atol=1e-12)


def test_transform_cloud_frames_and_normals():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), frame="L",
                       normals=np.array([[1.0, 0.0, 0.0]]))
    t = RigidTransform.from_yaw(np.pi / 2, [0.0, 0.0, 0.0], "L", "G")
    out = transform_cloud(cloud, t)
    assert out.frame == "G"
    assert np.allclose(out.points, [[0.0, 1.0, 0.0]], atol=1e-12)
    assert np.allclose(out.normals, [[0.0, 1.0, 0.0]], atol=1e-12)
    with pytest.raises(FrameMismatchError):
        transform_cloud(out, t)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_compose_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    a = RigidTransform.from_yaw(rng.uniform(-np.pi, np.pi),
                                rng.normal(size=3), "R", "G")
    b = RigidTransform.from_yaw(rng.uniform(-np.pi, np.pi),
                                rng.normal(size=3), "L", "R")
    p = rng.normal(size=(5, 3))
    assert np.allclose((a @ b).apply(p), a.apply(b.apply(p)), atol=1e-9)


def test_build_index_rejects_empty():
    with pytest.raises(ValueError):
        build_index(PointCloud(np.zeros((0, 3))))



def test_knn_respects_d_max():
    # A kNN query over the index keeps only references strictly within d_max.
    from trailnav.icp import RegistrationConfig, match
    index = build_index(PointCloud(np.array([[0.5, 0, 0], [3.0, 0, 0]])))
    got = match(PointCloud(np.zeros((1, 3))), index,
                RegistrationConfig(n_m=5, d_max=1.0, eps=0.0))
    assert np.array_equal(got.reference_indices, [0])


class _CountingWorker:
    """Stands in for ``geom.WORKER`` and counts the jobs handed to it."""

    def __init__(self):
        self.jobs = 0

    def submit(self, fn, *args, **kwargs):
        self.jobs += 1
        return WORKER.submit(fn, *args, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(k=1),
    dict(k=1, distance_upper_bound=1.5),
    dict(k=7, eps=1.0, distance_upper_bound=2.0),
], ids=["k1", "k1-bounded", "k7-eps1-bounded"])
def test_split_query_is_byte_equal_to_one_query(kwargs, monkeypatch):
    import trailnav.geom as geom
    rng = np.random.default_rng(11)
    # Integer points, queried from integer and half-integer points: many
    # neighbours at exactly equal distances, and (with the bound) misses.
    ref = rng.integers(0, 12, (3000, 3)).astype(np.float64)
    tree = cKDTree(ref)
    worker = _CountingWorker()
    monkeypatch.setattr(geom, "WORKER", worker)
    for n, jobs in [(SPLIT_QUERY_MIN - 1, 0), (SPLIT_QUERY_MIN, 1),
                    (2 * SPLIT_QUERY_MIN + 1, 1)]:
        pts = rng.integers(-4, 32, (n, 3)) * 0.5
        want = tree.query(pts, **kwargs)
        worker.jobs = 0
        got = split_query(tree, pts, **kwargs)
        assert worker.jobs == jobs
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        if "distance_upper_bound" in kwargs:
            assert np.isinf(want[0]).any() and (want[1] == tree.n).any()


def test_a_refused_pin_leaves_a_working_worker(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor
    import trailnav.geom as geom

    def refuse(pid, cpus):
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(geom.os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(geom.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    worker = ThreadPoolExecutor(max_workers=1, initializer=geom._pin_worker)
    monkeypatch.setattr(geom, "WORKER", worker)
    try:
        pts = np.arange(3 * SPLIT_QUERY_MIN, dtype=np.float64).reshape(-1, 3)
        tree = cKDTree(pts)
        dist, idx = split_query(tree, pts, k=1)
        assert np.array_equal(idx, np.arange(SPLIT_QUERY_MIN))
        assert not dist.any()
    finally:
        worker.shutdown()
