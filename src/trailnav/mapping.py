"""Map construction and maintenance: density-gated insertion, surface normals,
ray-traced dynamic-point removal, and the local/nonlocal voxel manager."""

from __future__ import annotations

import json
import tempfile
from concurrent.futures import wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .geom import FRAME_MAP, WORKER, PointCloud
from .npcd import NpcdError, read_npcd, write_npcd

MAP_FORMAT = "trailnav-map"
MAP_VERSION = 1


class PersistenceError(RuntimeError):
    """A voxel file could not be written or read."""


class MapLoadError(RuntimeError):
    pass


@dataclass
class MappingConfig:
    rho: float = 0.1            # min insertion distance (m)
    n_n: int = 15               # normal-neighborhood count
    tau_d: float = 0.8          # dynamic removal threshold
    v_s: float = 20.0           # voxel edge (m)
    r: float = 80.0             # sensor range (m), shared with registration
    delta_up: float = 0.2       # dyn_prob increment per seen-through observation
    delta_down: float = 0.1     # dyn_prob decrement per coincident observation
    beam_half_angle: float = 0.02  # rad; beam corridor half width for ray tracing

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.n_n < 3:
            raise ValueError("n_n must be >= 3")
        if not 0.0 <= self.tau_d <= 1.0:
            raise ValueError("tau_d must lie in [0, 1]")
        if self.v_s <= 0:
            raise ValueError("v_s must be positive")
        if self.r <= 0:
            raise ValueError("r must be positive")


class VoxelChunk:
    """Per-voxel point store. Normals may be NaN until computed."""

    __slots__ = ("points", "normals", "dyn_prob", "labels")

    def __init__(self, points, normals=None, dyn_prob=None, labels=None):
        n = len(points)
        self.points = np.asarray(points, dtype=np.float64).reshape(n, 3)
        self.normals = (np.full((n, 3), np.nan) if normals is None
                        else np.asarray(normals, dtype=np.float64).reshape(n, 3))
        self.dyn_prob = (np.zeros(n) if dyn_prob is None
                         else np.asarray(dyn_prob, dtype=np.float64).reshape(n))
        self.labels = (np.zeros(n, dtype=np.int64) if labels is None
                       else np.asarray(labels, dtype=np.int64).reshape(n))

    def __len__(self):
        return len(self.points)

    def append(self, points, labels=None):
        n = len(points)
        self.points = np.vstack([self.points, points])
        self.normals = np.vstack([self.normals, np.full((n, 3), np.nan)])
        self.dyn_prob = np.concatenate([self.dyn_prob, np.zeros(n)])
        self.labels = np.concatenate(
            [self.labels, np.zeros(n, np.int64) if labels is None else labels])

    def keep(self, mask):
        self.points = self.points[mask]
        self.normals = self.normals[mask]
        self.dyn_prob = self.dyn_prob[mask]
        self.labels = self.labels[mask]


class VoxelMap:
    """Voxel-indexed map split into a RAM-resident local set and a nonlocal
    set spilled to ``spill_dir`` as ``write_voxel`` files, so a voxel reloads
    with labels 0; the keys of ``voxels`` and ``nonlocal_manifest`` partition
    the map."""

    def __init__(self, v_s: float, spill_dir=None):
        if v_s <= 0:
            raise ValueError("v_s must be positive")
        self.v_s = float(v_s)
        self.voxels: dict[tuple, VoxelChunk] = {}
        self.nonlocal_manifest: dict[tuple, Path] = {}
        self.last_retile_voxel: tuple | None = None
        # The last insertion's record, kept until the map next changes: its
        # (key, rows) and the local points and kd-tree from before it.
        self.last_inserted: list = []
        self._pre_insert = None
        if spill_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="trailnav_map_")
            spill_dir = self._tmp.name
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._cache = None
        self._building = None

    # -- basic geometry -------------------------------------------------

    def voxel_key(self, p) -> tuple:
        return tuple(int(v) for v in np.floor(np.asarray(p[:3]) / self.v_s))

    def voxel_keys(self, pts) -> np.ndarray:
        return np.floor(pts / self.v_s).astype(np.int64)

    def all_keys(self) -> set:
        return set(self.voxels) | set(self.nonlocal_manifest)

    def local_point_count(self) -> int:
        return sum(len(c) for c in self.voxels.values())

    def point_count(self) -> int:
        n = self.local_point_count()
        for key in self.nonlocal_manifest:
            n += len(self._read_chunk(key).points)
        return n

    def _invalidate(self):
        self._cache = None
        self._building = None   # a build still running is dropped unread
        self.last_inserted = []
        self._pre_insert = None

    def _local_chunks(self) -> list:
        """The non-empty local chunks in sorted voxel order, the order of the
        rows of ``_local_arrays``."""
        return [self.voxels[k] for k in sorted(self.voxels)
                if len(self.voxels[k])]

    def prefetch_reference(self) -> None:
        """Stack the local points and normals here, read-only, and start
        their kd-tree's build on ``geom.WORKER``, unless they are cached or
        already being built; ``_local_arrays`` collects the tree. A change
        to the map before then drops the build."""
        if self._cache is None and self._building is None:
            chunks = self._local_chunks()
            pts = np.vstack([c.points for c in chunks] or [np.zeros((0, 3))])
            normals = np.vstack([c.normals for c in chunks] or
                                [np.zeros((0, 3))])
            for shared in (pts, normals):   # handed out, and read by the worker
                shared.flags.writeable = False
            self._building = (pts, normals,
                              WORKER.submit(cKDTree, pts) if len(pts) else None)

    def _local_arrays(self):
        """Concatenated local points in sorted voxel order, a kd-tree over
        them, and the registration reference built on both (None when a
        normal is missing); cached until invalidated. The tree is built on
        ``geom.WORKER`` (``prefetch_reference``, here if nobody called it
        since the map last changed) and waited for here; an exception from
        the build is raised here. The worker runs only ``cKDTree``, nothing
        the benchmark's tracer wraps: its span stack is not thread-safe."""
        if self._cache is None:
            self.prefetch_reference()
            (pts, normals, build), self._building = self._building, None
            tree = None if build is None else build.result()
            ref = None
            if tree is not None and np.isfinite(normals).all():
                ref = (PointCloud(pts, FRAME_MAP, normals), tree)
            self._cache = (pts, tree, ref)
        return self._cache

    def registration_reference(self):
        """(local map cloud, its kd-tree) on the cached, read-only arrays;
        None when the local map is empty or lacks a normal."""
        return self._local_arrays()[2]

    def all_points_cloud(self) -> PointCloud:
        """Full map (local + nonlocal) as one cloud; nonlocal chunks are read
        from disk without changing residency."""
        parts = [self._local_arrays()[0]]
        for key in sorted(self.nonlocal_manifest):
            parts.append(self._read_chunk(key).points)
        return PointCloud(np.vstack(parts), FRAME_MAP)

    # -- spilled chunks --------------------------------------------------

    def _write_chunk(self, key, chunk: VoxelChunk) -> Path:
        # The prefix keeps a spill from overwriting a database's voxel file.
        path = self.spill_dir / "spill_{}_{}_{}.npcd".format(*key)
        write_voxel(path, chunk)
        return path

    def _read_chunk(self, key) -> VoxelChunk:
        try:
            return read_voxel(self.nonlocal_manifest[key])
        except (OSError, NpcdError) as exc:
            raise PersistenceError(f"failed to read voxel {key}: {exc}") from exc


def write_voxel(path, chunk: VoxelChunk) -> None:
    """The one on-disk form of a voxel, spilled or saved: an NPCD v1 file of
    its points and dyn_prob, and of its normals when every one is set.
    Labels stay in RAM."""
    has_normals = bool(np.isfinite(chunk.normals).all())
    cloud = PointCloud(chunk.points, FRAME_MAP,
                       normals=chunk.normals if has_normals else None,
                       dyn_prob=chunk.dyn_prob)
    try:
        write_npcd(path, cloud)
    except OSError as exc:
        raise PersistenceError(f"failed to write {path}: {exc}") from exc


def read_voxel(path) -> VoxelChunk:
    """A voxel ``write_voxel`` wrote: bit-exact points, normals (NaN when
    none were written) and dyn_prob, with labels 0."""
    cloud = read_npcd(path)
    return VoxelChunk(cloud.points, cloud.normals, cloud.dyn_prob)


# ---------------------------------------------------------------------------


def compute_normals(cloud: PointCloud, n_n: int,
                    viewpoints: np.ndarray) -> PointCloud:
    """Per-point normals as the least-variance principal direction of the n_n
    nearest neighbors, oriented toward the per-point (or one shared)
    viewpoint."""
    if len(cloud) < n_n:
        raise ValueError(f"need at least n_n={n_n} points, got {len(cloud)}")
    _, idx = cKDTree(cloud.points).query(cloud.points, k=n_n)
    out = cloud.copy()
    out.normals = _normals_for(cloud.points, cloud.points[idx], viewpoints)
    return out


def _normals_for(targets, neigh, viewpoints):
    """Normals of targets from their gathered neighbours neigh (n, k, 3),
    nearest first, oriented toward the viewpoints."""
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]                              # smallest eigenvalue
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    to_sensor = np.asarray(viewpoints) - targets
    normals[np.einsum("ij,ij->i", normals, to_sensor) < 0] *= -1.0
    return normals


# Groups of targets per bounded search of the inserted points' tree:
# cKDTree takes one distance bound per call.
_BOUND_GROUPS = 8


def _nearest(targets, base, added, k):
    """The k nearest of the base and the added points, each a (points,
    kd-tree over them) pair and base possibly None, gathered as
    (len(targets), k, 3), nearest first: each tree gives the indices of its
    own k nearest into the stacked points, a stable sort by distance merges
    them, base first, and the merged neighbours are gathered once.

    An added point at or beyond a target's k-th base distance sorts after
    all k base neighbours, so when the base has k points the added tree is
    searched only below that distance, which finds the start of what an
    unbounded search finds. Targets are grouped by that distance, each group
    searched below its largest, with a margin far above rounding."""
    n = len(targets)
    dists, idxs, stacked = [], [], []
    reach = np.full(n, np.inf)
    if base is not None:
        pts, tree = base
        d, idx = tree.query(targets, k=min(k, len(pts)))
        dists.append(d.reshape(n, -1))
        idxs.append(idx.reshape(n, -1))
        stacked.append(pts)
        if len(pts) >= k:
            reach = dists[0][:, -1]
    pts, tree = added
    d = np.empty((n, min(k, len(pts))))
    idx = np.empty(d.shape, dtype=np.intp)
    for group in np.array_split(np.argsort(reach), _BOUND_GROUPS):
        if len(group):
            dg, ig = tree.query(
                targets[group], k=d.shape[1],
                distance_upper_bound=reach[group].max() * (1 + 1e-9))
            d[group], idx[group] = (dg.reshape(len(group), -1),
                                    ig.reshape(len(group), -1))
    dists.append(d)
    idxs.append(idx + sum(len(p) for p in stacked))
    stacked.append(pts)
    order = np.argsort(np.hstack(dists), axis=1, kind="stable")[:, :k]
    merged = np.take_along_axis(np.hstack(idxs), order, axis=1)
    return np.vstack(stacked)[merged]


def refresh_normals(vmap: VoxelMap, cfg: MappingConfig, sensor) -> None:
    """Compute normals for the rows of the last insertion, using the whole
    local map as the neighbourhood source, oriented toward the sensor position
    that saw every row.

    No kd-tree over the whole map is built: a point's n_n nearest neighbours
    are merged from the base tree ``insert_scan`` gated against and one small
    tree over the added points. cKDTree reports the same float distance for a
    pair whichever tree holds the point, so the neighbours come in the order
    a tree over the whole map gives, except among candidates at exactly the
    same distance, which that tree orders by its walk. The record of the
    insertion and its tree are dropped once the normals are written.
    With nothing inserted since the map last changed, the map and its cache
    are left untouched."""
    if not vmap.last_inserted:
        return
    base_pts, base_tree = vmap._pre_insert
    parts = [(vmap.voxels[key], rows) for key, rows in vmap.last_inserted]
    pts = np.vstack([chunk.points[rows] for chunk, rows in parts])
    if len(base_pts) + len(pts) < cfg.n_n:
        return
    base = None if base_tree is None else (base_pts, base_tree)
    normals = _normals_for(pts, _nearest(pts, base, (pts, cKDTree(pts)),
                                         cfg.n_n),
                           _sensor_position(sensor))
    splits = np.cumsum([len(rows) for _, rows in parts])[:-1]
    for (chunk, rows), part_normals in zip(parts, np.split(normals, splits)):
        chunk.normals[rows] = part_normals
    vmap._invalidate()


def _sensor_position(position) -> np.ndarray:
    return np.asarray(position, dtype=np.float64).reshape(3)


def insert_scan(vmap: VoxelMap, scan_in_g: PointCloud, sensor_pose,
                rho: float) -> None:
    """Append scan points (in index order) whose nearest local map point, or
    point accepted earlier in this call, is farther than rho, and list the
    new rows in ``last_inserted``; the map keeps its cached local points and
    kd-tree from before the insertion for ``refresh_normals``.

    A teach tick inserts while ``filter_dynamic`` searches, before the
    filter touches the map, so the cached arrays are the ones the scan was
    registered on. ``sensor_pose`` is not used."""
    if scan_in_g.frame != FRAME_MAP:
        raise ValueError("insert_scan expects a registered (map-frame) scan")
    vmap.last_inserted, vmap._pre_insert = [], None
    pts = scan_in_g.points
    if len(pts) == 0:
        return
    base_pts, tree = vmap._local_arrays()[:2]
    if tree is not None:
        # Only d > rho matters; cKDTree's bound is strict, hence nextafter.
        d, _ = tree.query(pts, k=1,
                          distance_upper_bound=np.nextafter(rho, np.inf))
        cand = np.nonzero(d > rho)[0]
    else:
        cand = np.arange(len(pts))
    if len(cand) == 0:
        return
    cpts = pts[cand]
    accepted = np.ones(len(cand), dtype=bool)
    pairs = cKDTree(cpts).query_pairs(rho, output_type="ndarray")
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))].tolist():
        if accepted[i]:
            accepted[j] = False
    sel = cand[accepted]
    new_pts = pts[sel]
    new_labels = None if scan_in_g.labels is None else scan_in_g.labels[sel]
    keys = vmap.voxel_keys(new_pts)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    uniq, starts = np.unique(keys[order], axis=0, return_index=True)
    bounds = list(starts) + [len(order)]
    inserted = []
    for u, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
        key = tuple(int(v) for v in u)
        rows = order[lo:hi]
        if key in vmap.nonlocal_manifest:   # shouldn't happen near the robot
            vmap.voxels[key] = vmap._read_chunk(key)
            del vmap.nonlocal_manifest[key]
        chunk = vmap.voxels.get(key)
        if chunk is None:
            chunk = VoxelChunk(np.zeros((0, 3)))
            vmap.voxels[key] = chunk
        first = len(chunk)
        chunk.append(new_pts[rows],
                     None if new_labels is None else new_labels[rows])
        inserted.append((key, np.arange(first, len(chunk))))
    vmap._invalidate()
    vmap.last_inserted, vmap._pre_insert = inserted, (base_pts, tree)


def filter_dynamic(vmap: VoxelMap, scan_in_g: PointCloud, sensor_pose,
                   cfg: MappingConfig, meanwhile=None) -> None:
    """Raise dyn_prob of map points the scan saw through, lower it for points
    coincident with a return, and drop points whose dyn_prob exceeds tau_d.

    Only map points within the sensor range r take part. A map point is on a
    beam when its direction is within beam_half_angle of the beam direction and
    it sits at least rho closer to the sensor than the return.

    The whole visibility pass (``_visibility``) runs on ``geom.WORKER``, on
    the map's cached local points, which a teach tick's registration has
    just built, and on a copy of their dyn_prob. Meanwhile ``meanwhile()``,
    if given, runs on the calling thread before the map is touched; it may
    append rows to local chunks (a teach tick inserts the scan and takes its
    normals). The caller then writes the new dyn_prob and drops points only
    among the rows that were local when the filter started, so appended
    rows, new voxels and reloaded spilled voxels keep what ``meanwhile``
    left. A new point sits on its own beam at that beam's range, coincident
    and not seen through, so its zero dyn_prob would stay 0 had it been
    filtered: the map ends as if the filter had run first. When the pass or
    ``meanwhile`` raises, the other is waited for and the exception reaches
    the caller with the map unfiltered. The pass calls nothing the
    benchmark's tracer wraps, whose span stack is not thread-safe;
    ``meanwhile`` runs here.
    """
    if scan_in_g.frame != FRAME_MAP:
        raise ValueError("filter_dynamic expects a registered (map-frame) scan")
    pts = vmap._local_arrays()[0]
    if len(pts) == 0:
        if meanwhile is not None:
            meanwhile()
        return
    chunks = vmap._local_chunks()
    sizes = [len(chunk) for chunk in chunks]
    dyn = np.concatenate([chunk.dyn_prob for chunk in chunks])
    visibility = WORKER.submit(_visibility, pts, dyn, scan_in_g.points,
                               _sensor_position(sensor_pose), cfg)
    try:
        if meanwhile is not None:
            meanwhile()
    finally:
        wait([visibility])
    remove = visibility.result()
    if remove is None:
        return
    splits = np.cumsum(sizes)[:-1]
    for chunk, n, part, drop in zip(chunks, sizes, np.split(dyn, splits),
                                    np.split(remove, splits)):
        chunk.dyn_prob[:n] = part
        if drop.any():
            chunk.keep(np.concatenate([~drop, np.ones(len(chunk) - n, bool)]))
    vmap._invalidate()


# Map rows per block of the visibility pass: it bounds the pass's
# temporaries, which the worker thread's own malloc arena would keep.
_VISIBILITY_ROWS = 4096


def _visibility(pts, dyn, returns, sensor, cfg: MappingConfig):
    """``filter_dynamic``'s pass over the local points pts: update their
    dyn_prob dyn in place, block by block, and return the mask of rows to
    drop, or None when the map is to stay as it is (no beam has a
    direction, or no point was hit and none is over tau_d). Each row's new
    value depends on that row alone; rows without a hit keep their value
    bit for bit (x + 0.0 - 0.0 == x)."""
    beam_vec = returns - sensor
    beam_range = np.linalg.norm(beam_vec, axis=1)
    ok = beam_range > 1e-9
    if not ok.any():
        return None
    beam_dir = beam_vec[ok] / beam_range[ok, None]
    beam_range = beam_range[ok]
    beam_pts = returns[ok]
    # Only exact nearest-direction queries: an unbalanced tree builds faster
    # and answers them alike.
    dir_tree = cKDTree(beam_dir, balanced_tree=False)
    chord = 2.0 * np.sin(0.5 * cfg.beam_half_angle)
    hit = False
    for lo in range(0, len(pts), _VISIBILITY_ROWS):
        block, block_dyn = (a[lo:lo + _VISIBILITY_ROWS] for a in (pts, dyn))
        rel = block - sensor
        rng = np.linalg.norm(rel, axis=1)
        rows = np.nonzero((rng > 1e-9) & (rng <= cfg.r))[0]
        dd, bi = _nearest_beams(dir_tree, rel[rows] / rng[rows, None],
                                rng[rows], chord, cfg.rho)
        found = bi < len(beam_dir)
        rows, dd, bi = rows[found], dd[found], bi[found]
        seen_through = (dd <= chord) & (rng[rows] <= beam_range[bi] - cfg.rho)
        coincident = (np.linalg.norm(block[rows] - beam_pts[bi], axis=1)
                      < cfg.rho)
        if seen_through.any() or coincident.any():
            hit = True
            dp = (block_dyn[rows] + cfg.delta_up * seen_through
                  - cfg.delta_down * coincident)
            block_dyn[rows] = np.clip(dp, 0.0, 1.0)
    remove = dyn > cfg.tau_d
    return remove if hit or remove.any() else None


def _nearest_beams(dir_tree, dirs, rng, chord, rho):
    """Distance and index of each map point's nearest beam direction, or
    (inf, len(beams)) where that beam can neither pass through nor meet the
    point; dirs are the points' unit directions and rng their ranges.

    A beam passes through a point only within chord of its direction. A
    return lies within rho of a point at range rng > rho only within
    rho / (rng - rho) of its direction, since |a - b| >= |(|a| - |b|)| and
    |a - b| >= min(|a|, |b|) * |a/|a| - b/|b||. From rng = rho + rho / chord
    on, that is at most chord, so those points are searched only within
    chord; the bound's margin is far above rounding. cKDTree returns the
    same neighbour for a bounded query as for an unbounded one when it finds
    one."""
    far = rng * chord >= rho * (1.0 + chord)
    dd = np.full(len(dirs), np.inf)
    bi = np.full(len(dirs), dir_tree.n)
    dd[far], bi[far] = dir_tree.query(dirs[far], k=1,
                                      distance_upper_bound=chord * (1 + 1e-9))
    dd[~far], bi[~far] = dir_tree.query(dirs[~far], k=1)
    return dd, bi


def _local_box(vmap: VoxelMap, robot_voxel, cfg: MappingConfig):
    """Per-axis index range [c - h, c + h - 1] of the local cube
    (edge 2r + 4 v_s when r is a voxel multiple), in the map's own voxels."""
    h = int(np.ceil(cfg.r / vmap.v_s)) + 2
    lo = np.asarray(robot_voxel) - h
    hi = np.asarray(robot_voxel) + h - 1
    return lo, hi


def _in_box(key, lo, hi) -> bool:
    return all(lo[a] <= key[a] <= hi[a] for a in range(3))


def retile(vmap: VoxelMap, robot_position, cfg: MappingConfig):
    """Load/unload voxels so the local set covers the cube centered on the
    robot's voxel. Fires only when the robot has entered a new voxel and
    penetrated at least v_s / 4 past the crossed border (oscillation guard).

    Returns (vmap, action list of ("load"|"unload", key)).
    """
    pos = _sensor_position(robot_position)
    cur = vmap.voxel_key(pos)
    fire = vmap.last_retile_voxel is None
    if not fire and cur != vmap.last_retile_voxel:
        pen = np.inf
        for a in range(3):
            if cur[a] == vmap.last_retile_voxel[a]:
                continue
            if cur[a] > vmap.last_retile_voxel[a]:
                pen = min(pen, pos[a] - cur[a] * vmap.v_s)
            else:
                pen = min(pen, (cur[a] + 1) * vmap.v_s - pos[a])
        fire = pen >= vmap.v_s / 4.0
    if not fire:
        return vmap, []

    lo, hi = _local_box(vmap, cur, cfg)
    actions = []
    for key in sorted(vmap.nonlocal_manifest):
        if _in_box(key, lo, hi):
            vmap.voxels[key] = vmap._read_chunk(key)
            del vmap.nonlocal_manifest[key]
            actions.append(("load", key))
    for key in sorted(vmap.voxels):
        if not _in_box(key, lo, hi):
            vmap.nonlocal_manifest[key] = vmap._write_chunk(key, vmap.voxels[key])
            del vmap.voxels[key]
            actions.append(("unload", key))
    vmap.last_retile_voxel = cur
    if actions:
        vmap._invalidate()
    return vmap, actions


# ---------------------------------------------------------------------------


def save_map(vmap: VoxelMap, out_dir) -> None:
    """Persist the whole map (local and nonlocal) as manifest.json plus one
    ``write_voxel`` file per non-empty voxel; a spilled voxel is saved as it
    was read back. Round trips preserve points, normals and dyn_prob
    bit-exactly."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for key in sorted(vmap.all_keys()):
        chunk = vmap.voxels[key] if key in vmap.voxels else vmap._read_chunk(key)
        if len(chunk) == 0:
            continue
        name = "vx_{}_{}_{}.npcd".format(*key)
        write_voxel(out_dir / name, chunk)
        entries.append({"index": list(key), "count": len(chunk), "file": name})
    manifest = {"format": MAP_FORMAT, "version": MAP_VERSION, "v_s": vmap.v_s,
                "voxels": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_map(path, spill_dir=None) -> VoxelMap:
    """Load a map database; every voxel starts RAM-resident (local), with
    labels 0 as ``read_voxel`` gives them. Fails on a missing or
    size-inconsistent voxel file and on a version mismatch."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise MapLoadError(f"no manifest.json in {path}")
    try:   # bad JSON and a non-positive v_s raise ValueErrors
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != MAP_FORMAT:
            raise MapLoadError(f"{manifest_path}: not a {MAP_FORMAT} manifest")
        if manifest.get("version") != MAP_VERSION:
            raise MapLoadError(f"{manifest_path}: unsupported version "
                               f"{manifest.get('version')}")
        vmap = VoxelMap(float(manifest["v_s"]), spill_dir=spill_dir)
        entries = [(tuple(int(v) for v in e["index"]), path / e["file"],
                    e["count"]) for e in manifest["voxels"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MapLoadError(f"{manifest_path}: malformed manifest, "
                           f"{type(exc).__name__} {exc}") from exc
    for key, fpath, count in entries:
        if not fpath.exists():
            raise MapLoadError(f"missing voxel file {fpath}")
        chunk = vmap.voxels[key] = read_voxel(fpath)
        if len(chunk) != count:
            raise MapLoadError(
                f"{fpath}: has {len(chunk)} points, manifest says {count}")
    vmap._invalidate()
    return vmap
