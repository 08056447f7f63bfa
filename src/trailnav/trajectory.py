"""Time-stamped lidar poses in the map frame, with cumulative arc length:
the motion prior, the taught path and executed runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import CsvFormatError, read_float_csv, write_csv
from .geom import (FRAME_LIDAR, FRAME_MAP, RigidTransform, _matrix_to_quat,
                   _quat_to_matrix)

TRAJECTORY_HEADER = ["stamp", "x", "y", "z", "qw", "qx", "qy", "qz",
                     "arc_length"]


@dataclass
class Projection:
    """Orthogonal projection of a planar point onto the trajectory polyline."""

    seg_index: int
    t_along: float          # meters from the segment start to the foot point
    tangent_heading: float
    signed_normal: float    # positive = left of path direction
    distance: float         # Euclidean point-to-foot distance
    arc_position: float     # cumulative arc length at the foot point
    nearest_pose_index: int


class Trajectory:
    """Ordered (stamp, lidar pose L->G) samples with cumulative arc length;
    stamps strictly increase."""

    def __init__(self, stamps, positions, quats, arc_length=None):
        self.stamps = np.asarray(stamps, dtype=np.float64).reshape(-1)
        self.positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        self.quats = np.asarray(quats, dtype=np.float64).reshape(-1, 4)
        n = len(self.stamps)
        if len(self.positions) != n or len(self.quats) != n:
            raise ValueError("stamps, positions and quats must have equal length")
        if np.any(np.diff(self.stamps) <= 0):
            raise ValueError("stamps must be strictly increasing")
        if arc_length is None:
            arc_length = cumulative_arc_length(self.positions)
        self.arc_length = np.asarray(arc_length, dtype=np.float64).reshape(-1)
        if len(self.arc_length) != n:
            raise ValueError("arc_length must match pose count")
        if np.any(np.diff(self.arc_length) < -1e-12):
            raise ValueError("arc_length must be non-decreasing")

    def __len__(self):
        return len(self.stamps)

    @classmethod
    def from_poses(cls, stamps, poses) -> "Trajectory":
        positions = np.array([p.translation for p in poses]).reshape(-1, 3)
        quats = np.array([_matrix_to_quat(p.rotation) for p in poses]).reshape(-1, 4)
        return cls(np.asarray(stamps, dtype=np.float64), positions, quats)

    def pose(self, i: int) -> RigidTransform:
        return RigidTransform(_quat_to_matrix(self.quats[i]), self.positions[i],
                              FRAME_LIDAR, FRAME_MAP)

    @property
    def xy(self) -> np.ndarray:
        return self.positions[:, :2]

    def total_length(self) -> float:
        return float(self.arc_length[-1]) if len(self) else 0.0

    def reversed(self) -> "Trajectory":
        """Path traversed the other way: pose order reversed, headings flipped by pi."""
        flip = np.diag([-1.0, -1.0, 1.0])  # rotation by pi about z
        quats = np.array([
            _matrix_to_quat(_quat_to_matrix(q) @ flip) for q in self.quats[::-1]
        ])
        return Trajectory(self.stamps[::-1].copy() * -1.0 + self.stamps[-1],
                          self.positions[::-1].copy(), quats)

    def project(self, xy) -> Projection:
        """Closest-segment orthogonal projection; ties go to the lower segment index."""
        if len(self) < 2:
            raise ValueError("projection needs at least 2 poses")
        p = np.asarray(xy, dtype=np.float64).reshape(2)
        a = self.xy[:-1]
        b = self.xy[1:]
        ab = b - a
        seg_len2 = np.einsum("ij,ij->i", ab, ab)
        seg_len2 = np.where(seg_len2 < 1e-300, 1e-300, seg_len2)
        t = np.clip(np.einsum("ij,ij->i", p - a, ab) / seg_len2, 0.0, 1.0)
        foot = a + t[:, None] * ab
        d2 = np.einsum("ij,ij->i", p - foot, p - foot)
        i = int(np.argmin(d2))  # argmin returns the first (lowest index) on ties
        seg = ab[i]
        seg_len = float(np.sqrt(seg_len2[i]))
        heading = float(np.arctan2(seg[1], seg[0]))
        offset = p - foot[i]
        signed = float((seg[0] * offset[1] - seg[1] * offset[0]) / max(seg_len, 1e-300))
        t_along = float(t[i]) * seg_len
        arc = float(self.arc_length[i] + t_along)
        nearest = i if float(t[i]) <= 0.5 else i + 1
        return Projection(seg_index=i, t_along=t_along,
                          tangent_heading=heading, signed_normal=signed,
                          distance=float(np.sqrt(d2[i])), arc_position=arc,
                          nearest_pose_index=nearest)

    def save_csv(self, path) -> None:
        write_csv(path, TRAJECTORY_HEADER,
                  np.column_stack([self.stamps, self.positions, self.quats,
                                   self.arc_length]))

    @classmethod
    def load_csv(cls, path) -> "Trajectory":
        data = read_float_csv(path, TRAJECTORY_HEADER)
        try:
            return cls(data[:, 0], data[:, 1:4], data[:, 4:8], data[:, 8])
        except ValueError as exc:
            raise CsvFormatError(f"{path}: {exc}") from exc


def cumulative_arc_length(positions) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if len(positions) == 0:
        return np.zeros(0)
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def subsample_by_distance(positions, min_spacing: float) -> np.ndarray:
    """Greedy index subset keeping poses at least min_spacing apart.

    The first and last indices are always kept.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if n <= 2:
        return np.arange(n)
    kept = [0]
    for i in range(1, n - 1):
        # Small slack so exact-spacing inputs are not dropped to rounding.
        if np.linalg.norm(positions[i] - positions[kept[-1]]) >= \
                min_spacing - 1e-12:
            kept.append(i)
    kept.append(n - 1)
    return np.array(kept, dtype=np.int64)
