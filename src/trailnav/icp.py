"""Point-to-plane ICP: input filters, kd-tree matching, trimmed outlier weights,
translation+yaw minimization, and the iteration loop with transformation checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geom import PointCloud, RigidTransform, split_query, transform_cloud

# Default bounding boxes mask the robot body and its sensor trailer.
DEFAULT_BBOX_1 = (-1.5, 0.5, -1.0, 1.0, -1.0, 0.5)
DEFAULT_BBOX_2 = (-10.0, -1.5, -2.5, 2.5, -1.0, 1.0)

# Named RNG sub-stream for the random subsampling filter.
SUBSAMPLE_STREAM = 81


class RegistrationFailure(RuntimeError):
    """Registration gave no pose: no usable matches between reading and
    reference, or (the subclass below) a degenerate normal system."""


class DegenerateRegistration(RegistrationFailure):
    """The normal system does not constrain all of (t_x, t_y, t_z, yaw)."""


@dataclass
class RegistrationConfig:
    eta_s: float = 0.7
    bboxes: list = field(default_factory=lambda: [DEFAULT_BBOX_1, DEFAULT_BBOX_2])
    r: float = 80.0
    n_m: int = 7
    d_max: float = 2.0
    eps: float = 1.0
    eta_d: float = 0.7
    eps_t_min: float = 0.01
    eps_theta_min: float = 0.001
    i_max: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta_s <= 1.0:
            raise ValueError("eta_s must lie in [0, 1]")
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError("eta_d must lie in [0, 1]")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.n_m < 1:
            raise ValueError("n_m must be >= 1")
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if self.d_max <= 0:
            raise ValueError("d_max must be positive")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        for b in self.bboxes:
            box = np.asarray(b)
            if (box.shape != (6,) or box.dtype.kind not in "iuf"
                    or not np.all(box[0::2] < box[1::2])):
                raise ValueError(f"bounding box {b} must be 6 numbers with "
                                 "min < max per axis")


@dataclass
class MatchSet:
    """Reading-to-reference pairs with binary trim weights."""

    reading_indices: np.ndarray
    reference_indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.reading_indices)


@dataclass
class RegistrationResult:
    T_hat: RigidTransform
    reading_in_map: PointCloud
    iterations: int
    final_error: float
    converged: bool


def apply_input_filters(scan: PointCloud, cfg: RegistrationConfig) -> PointCloud:
    """Bounding-box removal, radius cut, then seeded random subsampling.

    Returns an empty cloud when nothing survives; the caller skips registration
    for that scan.
    """
    if len(scan) == 0:
        raise ValueError("input filter expects a non-empty scan")
    pts = scan.points
    keep = np.ones(len(pts), dtype=bool)
    for b in cfg.bboxes:
        inside = ((pts[:, 0] > b[0]) & (pts[:, 0] < b[1]) &
                  (pts[:, 1] > b[2]) & (pts[:, 1] < b[3]) &
                  (pts[:, 2] > b[4]) & (pts[:, 2] < b[5]))
        keep &= ~inside
    keep &= np.linalg.norm(pts, axis=1) <= cfg.r
    out = scan.select(keep)
    if cfg.eta_s < 1.0 and len(out):
        rng = np.random.default_rng([cfg.rng_seed, SUBSAMPLE_STREAM])
        out = out.select(rng.random(len(out)) < cfg.eta_s)
    return out


def match(reading_in_g: PointCloud, ref_index: cKDTree,
          cfg: RegistrationConfig) -> MatchSet:
    """Up to n_m neighbors within d_max per reading point, all weights 1.

    Pair order is canonical: sorted by (reading index, distance, reference index).
    A large reading is queried in two halves, one on the worker thread
    (``geom.split_query``).
    """
    pts = reading_in_g.points
    if len(pts) == 0:
        return MatchSet(np.zeros(0, np.int64), np.zeros(0, np.int64),
                        np.zeros(0), np.zeros(0, np.int8))
    k = min(cfg.n_m, ref_index.n)
    dist, idx = split_query(ref_index, pts, k=k, eps=cfg.eps,
                            distance_upper_bound=cfg.d_max)
    dist = dist.reshape(len(pts), -1)
    idx = idx.reshape(len(pts), -1)
    valid = np.isfinite(dist)
    rd_idx = np.repeat(np.arange(len(pts)), valid.sum(axis=1))
    rf_idx = idx[valid].astype(np.int64, copy=False)
    d = dist[valid]
    # cKDTree returns each row by ascending distance, misses last, so the
    # flattened pairs are already canonical unless a row holds equal distances
    # (their reference order is then the tree's, not ascending).
    if np.any((dist[:, 1:] <= dist[:, :-1]) & np.isfinite(dist[:, 1:])):
        order = np.lexsort((rf_idx, d, rd_idx))
        rd_idx, rf_idx, d = rd_idx[order], rf_idx[order], d[order]
    return MatchSet(rd_idx, rf_idx, d, np.ones(len(d), dtype=np.int8))


def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5))


def trim_outliers(m: MatchSet, eta_d: float) -> MatchSet:
    """Keep (weight 1) the round(eta_d * K) smallest-distance pairs.

    Ties at equal distance break by (reading index, reference index) ascending.
    """
    if len(m) == 0:
        raise ValueError("trim_outliers expects a non-empty match set")
    kept_count = _round_half_away(eta_d * len(m))
    weights = np.zeros(len(m), dtype=np.int8)
    if kept_count > 0:
        # Every pair below the kept_count-th smallest distance is kept; the
        # slots left go to the pairs at that distance in tie-break order.
        d = m.distances
        threshold = np.partition(d, kept_count - 1)[kept_count - 1]
        below = d < threshold
        weights[below] = 1
        tied = np.flatnonzero(d == threshold)
        tied = tied[np.lexsort((m.reference_indices[tied], m.reading_indices[tied]))]
        weights[tied[:kept_count - int(below.sum())]] = 1
    return MatchSet(m.reading_indices, m.reference_indices, m.distances, weights)


def gather_reference(m: MatchSet, reference: PointCloud):
    """Reference points and normals of every pair, row k for pair k; the
    reference carries normals, which a ``PointCloud`` keeps unit-length."""
    # np.take gathers rows several times faster than fancy indexing.
    return (np.take(reference.points, m.reference_indices, axis=0),
            np.take(reference.normals, m.reference_indices, axis=0))


def point_to_plane_error(p: np.ndarray, q: np.ndarray, n: np.ndarray,
                         weights: np.ndarray):
    """Sum of w_k * ((p_k - q_k) . n_k)^2 over all pairs (squared form), and the
    residuals (p_k - q_k) . n_k.

    Row k holds pair k: its reading point p_k in the map frame, and its
    reference point q_k and normal n_k (see ``gather_reference``).
    """
    res = np.einsum("ij,ij->i", p - q, n)
    return float(np.sum(weights * res ** 2)), res


def minimize_step(p: np.ndarray, n: np.ndarray, res: np.ndarray,
                  weights: np.ndarray,
                  current: RigidTransform) -> RigidTransform:
    """Least-squares minimizer of the linearized point-to-plane residuals over
    (t_x, t_y, t_z, yaw); roll and pitch are identically zero.

    Rows are pairs as in ``point_to_plane_error``, and ``res`` holds its
    residuals; only pairs of weight 1 enter. ``p`` is in the map frame. The
    increment is expressed in the source frame of ``current``, the estimate
    it corrects (right-composition).
    """
    keep = np.flatnonzero(weights == 1)
    if len(keep) < 4:
        raise DegenerateRegistration(
            f"need at least 4 weighted pairs, got {len(keep)}")
    p_g, n, res = (np.take(a, keep, axis=0) for a in (p, n, res))
    rot = current.rotation
    p_local = (p_g - current.translation) @ rot
    n_local = n @ rot  # rot^T applied row-wise
    # Yaw column: (z x p) . n.
    yaw_col = p_local[:, 0] * n_local[:, 1] - p_local[:, 1] * n_local[:, 0]
    a = np.column_stack([n_local, yaw_col])
    b = -res
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0 or s[-1] < 1e-9 * s[0]:
        raise DegenerateRegistration("normal system is rank deficient")
    x = vt.T @ ((u.T @ b) / s)
    return RigidTransform.from_yaw(x[3], x[:3], from_frame=current.from_frame,
                                   to_frame=current.from_frame)


def register(reading: PointCloud, reference: PointCloud, prior: RigidTransform,
             cfg: RegistrationConfig, ref_index: cKDTree) -> RegistrationResult:
    """Iterate match -> trim -> minimize from the prior until the differential
    update drops below (eps_t_min, eps_theta_min) or i_max is reached.

    The reading is used as given: callers apply the input filters first. The
    returned cloud is that reading expressed in the map frame.
    """
    if len(reference) == 0 or reference.normals is None:
        raise ValueError("reference must be non-empty and carry normals")
    if prior.from_frame != reading.frame or prior.to_frame != reference.frame:
        raise ValueError("prior frames must map reading frame to reference frame")
    if len(reading) == 0:
        raise RegistrationFailure("reading is empty after input filters")

    t = prior
    converged = False
    iterations = 0
    final_error = np.nan
    for iterations in range(1, cfg.i_max + 1):
        pts_g = t.apply(reading.points)
        m = match(PointCloud(pts_g, reference.frame), ref_index, cfg)
        if len(m) == 0:
            raise RegistrationFailure(
                f"empty match set at iteration {iterations}")
        m = trim_outliers(m, cfg.eta_d)
        q, n = gather_reference(m, reference)
        rows = m.reading_indices
        p = np.take(pts_g, rows, axis=0)
        err_before, res = point_to_plane_error(p, q, n, m.weights)
        delta = minimize_step(p, n, res, m.weights, current=t)
        # Halve the step while it would increase the objective on this match set
        # (keeps the per-iteration error monotone despite linearization); the
        # candidate after the eighth halving is taken whatever its error.
        for halvings in range(9):
            if halvings:
                delta = RigidTransform.from_yaw(
                    0.5 * delta.yaw, 0.5 * delta.translation,
                    delta.from_frame, delta.to_frame)
            cand = t @ delta
            err_after, _ = point_to_plane_error(
                np.take(cand.apply(reading.points), rows, axis=0), q, n, m.weights)
            if err_after <= err_before + 1e-12:
                break
        t = cand
        final_error = err_after
        if (np.linalg.norm(delta.translation) < cfg.eps_t_min
                and abs(delta.yaw) < cfg.eps_theta_min):
            converged = True
            break

    return RegistrationResult(
        T_hat=t,
        reading_in_map=transform_cloud(reading, t),
        iterations=iterations,
        final_error=final_error,
        converged=converged,
    )
