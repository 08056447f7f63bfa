"""Output checks made apart from trailnav: distances to a polyline, the tail
order statistic and the output digest. Depends on numpy only."""

from __future__ import annotations

import hashlib

import numpy as np


def point_to_polyline(points, polyline) -> np.ndarray:
    """Euclidean distance of each 2D point to the nearest point of the
    polyline (segments between consecutive vertices, ends included)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    line = np.asarray(polyline, dtype=np.float64).reshape(-1, 2)
    if len(line) == 0:
        raise ValueError("polyline needs at least one vertex")
    if len(line) == 1:
        return np.linalg.norm(p - line[0], axis=1)
    a = line[:-1]                                   # (m, 2)
    ab = line[1:] - a
    len2 = np.einsum("ij,ij->i", ab, ab)
    rel = p[:, None, :] - a[None, :, :]             # (n, m, 2)
    t = np.einsum("nmj,mj->nm", rel, ab) / np.where(len2 > 0, len2, 1.0)
    t = np.clip(np.where(len2 > 0, t, 0.0), 0.0, 1.0)
    gap = rel - t[:, :, None] * ab[None, :, :]
    return np.sqrt(np.einsum("nmj,nmj->nm", gap, gap).min(axis=1))


def tail_rank(n: int) -> int | None:
    """0-based rank, in ascending order, of the highest sample that still has
    at least ten samples above it; None when there are ten or fewer."""
    return n - 11 if n > 10 else None


def tail_percentile(n: int) -> float:
    """The percentile that ``tail_rank`` reads, as a share of n below it."""
    return 100.0 * (n - 10) / n


def digest(*arrays) -> str:
    """Short SHA-256 of the arrays' shapes and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
