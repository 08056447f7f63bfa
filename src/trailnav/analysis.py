"""Evaluation metrics: cross-track error, curvature binning, scan overlap, and
longitudinal-perturbation registration uncertainty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .csvio import read_float_csv, write_csv
from .geom import PointCloud, build_index
from .icp import (RegistrationConfig, gather_reference, match,
                  point_to_plane_error, trim_outliers)
from .mapping import VoxelMap
from .trajectory import Trajectory, subsample_by_distance

# Default curvature bin edges: everything below 0.01 in the first bin,
# everything at or above 0.13 in the last, logarithmic in between.
DEFAULT_BIN_EDGES = np.geomspace(0.01, 0.13, 8)

CROSS_TRACK_SPACING = 0.1     # m, executed-trajectory subsampling
CURVATURE_WINDOW = 10         # reference poses per circle fit


@dataclass
class CrossTrackSeries:
    arc_position: np.ndarray
    eps_ct: np.ndarray
    kappa: np.ndarray

    HEADER = ("arc", "eps", "kappa")

    def __len__(self):
        return len(self.arc_position)

    def save_csv(self, path):
        write_csv(path, self.HEADER,
                  zip(self.arc_position, self.eps_ct, self.kappa))

    @classmethod
    def load_csv(cls, *paths) -> "CrossTrackSeries":
        """One series from the rows of every file, in order."""
        return cls(*np.vstack([read_float_csv(p, cls.HEADER)
                               for p in paths]).T)


@dataclass
class CurvatureBin:
    kappa_lo: float
    kappa_hi: float
    count: int
    median: float | None = None
    q1: float | None = None
    q3: float | None = None
    p10: float | None = None
    p90: float | None = None


@dataclass
class BinnedStats:
    bins: list

    def save_csv(self, path):
        rows = [(b.kappa_lo, b.kappa_hi, b.count, b.median, b.q1, b.q3, b.p10, b.p90)
                for b in self.bins]
        write_csv(path, ["kappa_lo", "kappa_hi", "count", "median", "q1", "q3",
                         "p10", "p90"], rows)


def curvature_at(reference: Trajectory, index: int) -> float:
    """Curvature from an algebraic circle fit through the 10 nearest poses
    (by arc length) around the given index; collinear points give 0."""
    n = len(reference)
    if n < CURVATURE_WINDOW:
        raise ValueError(f"curvature needs at least {CURVATURE_WINDOW} poses")
    half = CURVATURE_WINDOW // 2
    lo = int(np.clip(index - half, 0, n - CURVATURE_WINDOW))
    pts = reference.xy[lo:lo + CURVATURE_WINDOW]
    return fit_circle_curvature(pts)


def fit_circle_curvature(xy: np.ndarray) -> float:
    """Kasa circle fit; returns 1/R, or 0 for (near-)collinear points."""
    xy = np.asarray(xy, dtype=np.float64)
    center = xy.mean(axis=0)
    p = xy - center
    a = np.column_stack([2.0 * p, np.ones(len(p))])
    b = np.einsum("ij,ij->i", p, p)
    sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3 or sv[-1] < 1e-9 * sv[0]:
        return 0.0
    r2 = sol[2] + sol[0] ** 2 + sol[1] ** 2
    if r2 <= 0:
        return 0.0
    r = float(np.sqrt(r2))
    if r > 1e6:
        return 0.0
    return 1.0 / r


def cross_track_series(executed: Trajectory,
                       reference: Trajectory) -> CrossTrackSeries:
    """Orthogonal distance of the executed trajectory (subsampled to 0.1 m
    spacing) to the reference polyline, with the curvature at each projection."""
    if len(executed) < 2 or len(reference) < 2:
        raise ValueError("both trajectories need at least 2 poses")
    idx = subsample_by_distance(executed.positions, CROSS_TRACK_SPACING)
    arc, eps, kap = [], [], []
    for i in idx:
        proj = reference.project(executed.xy[i])
        arc.append(executed.arc_length[i])
        eps.append(proj.distance)
        kap.append(curvature_at(reference, proj.nearest_pose_index))
    return CrossTrackSeries(np.array(arc), np.array(eps), np.array(kap))


def bin_by_curvature(series: CrossTrackSeries, edges=None) -> BinnedStats:
    """Assign samples to curvature bins and compute median/quartile/percentile
    statistics (linear interpolation); empty bins report count 0 and no stats."""
    if len(series) == 0:
        raise ValueError("series must be non-empty")
    edges = DEFAULT_BIN_EDGES if edges is None else np.asarray(edges, dtype=np.float64)
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
    bins = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = (series.kappa >= lo) & (series.kappa < hi)
        vals = series.eps_ct[mask]
        b = CurvatureBin(kappa_lo=float(lo), kappa_hi=float(hi), count=len(vals))
        if len(vals):
            b.median, b.q1, b.q3, b.p10, b.p90 = (
                float(np.percentile(vals, p)) for p in (50, 25, 75, 10, 90))
        bins.append(b)
    return BinnedStats(bins)


def scan_overlap(scan_in_g: PointCloud, vmap: VoxelMap, threshold: float) -> float:
    """Percentage of scan points whose nearest map point lies closer than the
    threshold; the whole map (local and nonlocal) is considered. A fully
    resident map is queried on its cached kd-tree."""
    if len(scan_in_g) == 0:
        raise ValueError("scan_overlap expects a non-empty scan")
    if vmap.nonlocal_manifest:
        map_pts = vmap.all_points_cloud().points
        tree = cKDTree(map_pts) if len(map_pts) else None
    else:
        tree = vmap._local_arrays()[1]
    if tree is None:
        return 0.0
    d, _ = tree.query(scan_in_g.points, k=1)
    return 100.0 * float(np.mean(d < threshold))


def perturbation_uncertainty(scan_in_l: PointCloud, map_in_l: PointCloud,
                             cfg: RegistrationConfig | None = None,
                             half_range: float = 6.0, step: float = 0.05):
    """Point-to-plane error of the scan shifted along +x by each offset in
    [-half_range, half_range] (matches recomputed per offset, no ICP), plus the
    standard deviation of the profile. Offsets with no matches are NaN and are
    excluded from the standard deviation.

    Returns (offsets, errors, std).
    """
    if map_in_l.normals is None:
        raise ValueError("map must carry normals")
    cfg = cfg or RegistrationConfig()
    ref_index = build_index(map_in_l)
    n_steps = int(round(2 * half_range / step)) + 1
    offsets = -half_range + step * np.arange(n_steps)
    errors = np.full(n_steps, np.nan)
    shifted = scan_in_l.copy()
    shifted.frame = map_in_l.frame
    for i, off in enumerate(offsets):
        shifted.points = scan_in_l.points + np.array([off, 0.0, 0.0])
        m = match(shifted, ref_index, cfg)
        if len(m) == 0:
            continue
        m = trim_outliers(m, cfg.eta_d)
        q, n = gather_reference(m, map_in_l)
        errors[i], _ = point_to_plane_error(shifted.points[m.reading_indices],
                                            q, n, m.weights)
    valid = np.isfinite(errors)
    std = float(np.std(errors[valid])) if valid.any() else float("nan")
    return offsets, errors, std

