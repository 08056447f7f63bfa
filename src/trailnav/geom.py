"""Core geometric types: point clouds, rigid transforms, (w, x, y, z)
quaternion helpers, the kd-tree index, and the one worker thread that runs
kd-tree and array work beside the caller."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

FRAME_LIDAR = "L"
FRAME_MAP = "G"
VALID_FRAMES = (FRAME_LIDAR, FRAME_MAP)


class FrameMismatchError(ValueError):
    """A transform was applied to a cloud expressed in a different frame."""


def _quat_normalize(q):
    return q / np.linalg.norm(q)


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_from_rotvec(v):
    angle = np.linalg.norm(v)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = v / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def _quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _matrix_to_quat(m):
    """Shepperd's method: branch on the largest of trace and diagonal entries."""
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > max(m[0, 0], m[1, 1], m[2, 2]):
        s = 2.0 * np.sqrt(1.0 + t)
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s,
                      (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2])
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s,
                      0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2])
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return q / np.linalg.norm(q)


@dataclass
class PointCloud:
    """Positions with optional per-point normals, timestamps and dynamic probabilities.

    All optional attributes, when present, have exactly one entry per point.
    ``labels`` is a free-form integer tag per point (e.g. simulator ground-truth
    class); it rides along through transforms and filters but is never part of
    any on-disk format.
    """

    points: np.ndarray
    frame: str = FRAME_LIDAR
    normals: np.ndarray | None = None
    timestamps: np.ndarray | None = None
    dyn_prob: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if self.frame not in VALID_FRAMES:
            raise ValueError(f"unknown frame tag {self.frame!r}")
        n = len(self.points)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64)
            if self.normals.shape != (n, 3):
                raise ValueError("normals must match points length")
            norms = np.linalg.norm(self.normals, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError("normals must have unit norm within 1e-6")
        if self.timestamps is not None:
            self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
            if self.timestamps.shape != (n,):
                raise ValueError("timestamps must match points length")
        if self.dyn_prob is not None:
            self.dyn_prob = np.asarray(self.dyn_prob, dtype=np.float64)
            if self.dyn_prob.shape != (n,):
                raise ValueError("dyn_prob must match points length")
            if n and (self.dyn_prob.min() < 0.0 or self.dyn_prob.max() > 1.0):
                raise ValueError("dyn_prob values must lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ValueError("labels must match points length")

    def __len__(self):
        return len(self.points)

    def select(self, mask_or_idx) -> "PointCloud":
        """New cloud restricted to the given boolean mask or index array."""
        def pick(a):
            return None if a is None else a[mask_or_idx]

        return PointCloud(
            points=self.points[mask_or_idx],
            frame=self.frame,
            normals=pick(self.normals),
            timestamps=pick(self.timestamps),
            dyn_prob=pick(self.dyn_prob),
            labels=pick(self.labels),
        )

    def copy(self) -> "PointCloud":
        def cp(a):
            return None if a is None else a.copy()

        return PointCloud(self.points.copy(), self.frame, cp(self.normals),
                          cp(self.timestamps), cp(self.dyn_prob), cp(self.labels))


@dataclass
class RigidTransform:
    """SE(3) transform taking coordinates in ``from_frame`` to ``to_frame``."""

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: str = FRAME_LIDAR
    to_frame: str = FRAME_MAP

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-9 or abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with determinant +1")

    @classmethod
    def from_yaw(cls, yaw, translation=(0.0, 0.0, 0.0), from_frame=FRAME_LIDAR,
                 to_frame=FRAME_MAP):
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(rot, np.asarray(translation, dtype=np.float64), from_frame, to_frame)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(_orthonormalize(rt), -rt @ self.translation,
                              self.to_frame, self.from_frame)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self ∘ other: applies ``other`` first."""
        if other.to_frame != self.from_frame:
            raise FrameMismatchError(
                f"cannot compose {self.from_frame}->{self.to_frame} "
                f"with {other.from_frame}->{other.to_frame}")
        return RigidTransform(_orthonormalize(self.rotation @ other.rotation),
                              self.rotation @ other.translation + self.translation,
                              other.from_frame, self.to_frame)

    def __matmul__(self, other):
        return self.compose(other)

    @property
    def yaw(self) -> float:
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))


def _orthonormalize(rot: np.ndarray) -> np.ndarray:
    """Project a near-rotation back onto SO(3) (guards drift from repeated composition)."""
    u, _, vt = np.linalg.svd(rot)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] *= -1
        r = u @ vt
    return r


def transform_cloud(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """Re-express a cloud in ``t.to_frame``; timestamps, dyn_prob and labels ride along."""
    if t.from_frame != cloud.frame:
        raise FrameMismatchError(
            f"transform expects frame {t.from_frame!r}, cloud is in {cloud.frame!r}")
    normals = None if cloud.normals is None else cloud.normals @ t.rotation.T
    return PointCloud(t.apply(cloud.points), t.to_frame, normals,
                      None if cloud.timestamps is None else cloud.timestamps.copy(),
                      None if cloud.dyn_prob is None else cloud.dyn_prob.copy(),
                      None if cloud.labels is None else cloud.labels.copy())


def build_index(cloud: PointCloud) -> cKDTree:
    """kd-tree over a snapshot of the cloud's positions."""
    if len(cloud) == 0:
        raise ValueError("cannot build a spatial index over an empty cloud")
    return cKDTree(cloud.points.copy())


def _pin_worker() -> None:
    """Keep the worker thread on the last CPU the process may use, and the
    main thread, which hands it its jobs, on the others, when there are
    more. A Linux scheduler may wake a thread on its waker's CPU and leave
    it there for a job of a few milliseconds, so unpinned, or with only the
    worker pinned, the two threads can end up sharing one core: on a 2-core
    VM, two unpinned processes spinning side by side took 1.6-2.1x as long
    as one, two pinned to different CPUs 1.0x.

    The main thread keeps the narrower set for the life of the process, and
    threads and processes it starts later inherit it. The pin only speeds
    things up: when the system refuses it, both threads run unpinned."""
    if hasattr(os, "sched_setaffinity"):     # Linux
        try:
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) > 1:
                os.sched_setaffinity(threading.main_thread().native_id,
                                     cpus[:-1])
                os.sched_setaffinity(0, cpus[-1:])
        except OSError:
            pass


# The one worker thread. cKDTree's build and query release the GIL, as do
# numpy's loops over large arrays, so a job runs beside the caller's own
# work. A job reads only arrays nobody writes while it runs, and calls
# nothing the benchmark's tracer wraps: the tracer's span stack is not
# thread-safe. No job waits on another job. The thread starts with the
# first job.
WORKER = ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="trailnav-worker",
                            initializer=_pin_worker)

# Query points below which ``split_query`` runs inline. A handoff to the
# pinned worker and back took 55-58 us at the median and 71-90 us at p99
# (2-core x86-64 VM, Python 3.11). The threshold keeps that under ~5 % of
# the half it hands over: 2048 points of a k=7, eps=1 query over 6k-25k
# map points took 1.4-2.1 ms. A small-config ICP reading (~860 points)
# stays inline.
SPLIT_QUERY_MIN = 4096


def split_query(tree: cKDTree, pts: np.ndarray, **kwargs):
    """``tree.query(pts, **kwargs)``, with the first half of the rows queried
    on ``WORKER`` and the second here. Each row's neighbours depend only on
    that row, so the output is byte-equal to one call. Below
    ``SPLIT_QUERY_MIN`` rows the query runs here in one call. Must not be
    called from a ``WORKER`` job."""
    if len(pts) < SPLIT_QUERY_MIN:
        return tree.query(pts, **kwargs)
    half = len(pts) // 2
    first = WORKER.submit(tree.query, pts[:half], **kwargs)
    try:
        second = tree.query(pts[half:], **kwargs)
    finally:
        wait([first])
    return tuple(np.concatenate(parts)
                 for parts in zip(first.result(), second))
