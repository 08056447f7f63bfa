"""Map construction and maintenance: density-gated insertion, surface normals,
ray-traced dynamic-point removal, and the local/nonlocal voxel manager."""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .geom import FRAME_MAP, PointCloud, RigidTransform
from .npcd import read_npcd, write_npcd

MAP_FORMAT = "trailnav-map"
MAP_VERSION = 1


class PersistenceError(RuntimeError):
    def __init__(self, msg, voxel=None):
        super().__init__(msg)
        self.voxel = voxel


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
    """Per-voxel point store. Normals may be NaN until computed; viewpoints hold
    the sensor position recorded at insertion time (NaN after reload)."""

    __slots__ = ("points", "normals", "dyn_prob", "viewpoints", "labels")

    def __init__(self, points, normals=None, dyn_prob=None, viewpoints=None,
                 labels=None):
        n = len(points)
        self.points = np.asarray(points, dtype=np.float64).reshape(n, 3)
        self.normals = (np.full((n, 3), np.nan) if normals is None
                        else np.asarray(normals, dtype=np.float64).reshape(n, 3))
        self.dyn_prob = (np.zeros(n) if dyn_prob is None
                         else np.asarray(dyn_prob, dtype=np.float64).reshape(n))
        self.viewpoints = (np.full((n, 3), np.nan) if viewpoints is None
                           else np.asarray(viewpoints, dtype=np.float64).reshape(n, 3))
        self.labels = (np.zeros(n, dtype=np.int64) if labels is None
                       else np.asarray(labels, dtype=np.int64).reshape(n))

    def __len__(self):
        return len(self.points)

    def append(self, points, viewpoints, labels=None):
        n = len(points)
        self.points = np.vstack([self.points, points])
        self.normals = np.vstack([self.normals, np.full((n, 3), np.nan)])
        self.dyn_prob = np.concatenate([self.dyn_prob, np.zeros(n)])
        self.viewpoints = np.vstack([self.viewpoints, viewpoints])
        self.labels = np.concatenate(
            [self.labels, np.zeros(n, np.int64) if labels is None else labels])

    def keep(self, mask):
        self.points = self.points[mask]
        self.normals = self.normals[mask]
        self.dyn_prob = self.dyn_prob[mask]
        self.viewpoints = self.viewpoints[mask]
        self.labels = self.labels[mask]


class VoxelMap:
    """Voxel-indexed map split into a RAM-resident local set and a disk-backed
    nonlocal set; ``local_set`` and ``nonlocal_manifest`` partition the keys."""

    def __init__(self, v_s: float, spill_dir=None):
        if v_s <= 0:
            raise ValueError("v_s must be positive")
        self.v_s = float(v_s)
        self.voxels: dict[tuple, VoxelChunk] = {}
        self.nonlocal_manifest: dict[tuple, Path] = {}
        self.last_retile_voxel: tuple | None = None
        self.last_inserted: list = []
        if spill_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="trailnav_map_")
            spill_dir = self._tmp.name
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._cache = None

    # -- basic geometry -------------------------------------------------

    def voxel_key(self, p) -> tuple:
        return tuple(int(v) for v in np.floor(np.asarray(p[:3]) / self.v_s))

    def voxel_keys(self, pts) -> np.ndarray:
        return np.floor(pts / self.v_s).astype(np.int64)

    @property
    def local_set(self) -> set:
        return set(self.voxels)

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

    def _local_arrays(self):
        """Concatenated local points, normals, dyn_prob and labels in sorted
        voxel order, plus a kd-tree over the points; cached until invalidated."""
        if self._cache is None:
            keys = sorted(self.voxels)
            pts, normals, dyn, labels = [], [], [], []
            for k in keys:
                c = self.voxels[k]
                if len(c) == 0:
                    continue
                pts.append(c.points)
                normals.append(c.normals)
                dyn.append(c.dyn_prob)
                labels.append(c.labels)
            if pts:
                pts = np.vstack(pts)
                normals = np.vstack(normals)
                dyn = np.concatenate(dyn)
                labels = np.concatenate(labels)
            else:
                pts = np.zeros((0, 3))
                normals = np.zeros((0, 3))
                dyn = np.zeros(0)
                labels = np.zeros(0, np.int64)
            tree = cKDTree(pts) if len(pts) else None
            self._cache = (pts, normals, dyn, labels, tree)
        return self._cache

    def local_tree(self):
        return self._local_arrays()[4]

    def local_cloud(self, with_normals: bool = True) -> PointCloud:
        pts, normals, dyn, labels, _ = self._local_arrays()
        use_normals = with_normals and len(pts) and bool(np.isfinite(normals).all())
        return PointCloud(pts.copy(), FRAME_MAP,
                          normals=normals.copy() if use_normals else None,
                          dyn_prob=dyn.copy(), labels=labels.copy())

    def all_points_cloud(self) -> PointCloud:
        """Full map (local + nonlocal) as one cloud; nonlocal chunks are read
        from disk without changing residency."""
        parts = [self.local_cloud(with_normals=False).points]
        labels = [self._local_arrays()[3]]
        for key in sorted(self.nonlocal_manifest):
            c = self._read_chunk(key)
            parts.append(c.points)
            labels.append(c.labels)
        return PointCloud(np.vstack(parts) if parts else np.zeros((0, 3)), FRAME_MAP,
                          labels=np.concatenate(labels) if labels else None)

    # -- persistence of individual chunks (internal spill format) --------

    def _spill_path(self, key) -> Path:
        return self.spill_dir / "spill_{}_{}_{}.npz".format(*key)

    def _write_chunk(self, key, chunk: VoxelChunk) -> Path:
        path = self._spill_path(key)
        try:
            np.savez(path, points=chunk.points, normals=chunk.normals,
                     dyn_prob=chunk.dyn_prob, viewpoints=chunk.viewpoints,
                     labels=chunk.labels)
        except OSError as exc:
            raise PersistenceError(f"failed to write voxel {key}: {exc}",
                                   voxel=key) from exc
        return path

    def _read_chunk(self, key) -> VoxelChunk:
        path = self.nonlocal_manifest[key]
        try:
            with np.load(path) as data:
                return VoxelChunk(data["points"], data["normals"], data["dyn_prob"],
                                  data["viewpoints"], data["labels"])
        except (OSError, KeyError) as exc:
            raise PersistenceError(f"failed to read voxel {key}: {exc}",
                                   voxel=key) from exc


# ---------------------------------------------------------------------------


def compute_normals(cloud: PointCloud, n_n: int,
                    viewpoints: np.ndarray | None = None) -> PointCloud:
    """Per-point normals as the least-variance principal direction of the n_n
    nearest neighbors, oriented toward the per-point viewpoint when given."""
    if len(cloud) < n_n:
        raise ValueError(f"need at least n_n={n_n} points, got {len(cloud)}")
    normals = _normals_for(cloud.points, cloud.points, n_n, viewpoints)
    out = cloud.copy()
    out.normals = normals
    return out


def _normals_for(targets, source, n_n, viewpoints=None, tree=None):
    """Normals of targets from their n_n nearest neighbours in source; tree,
    when given, must be a kd-tree over exactly source."""
    if tree is None:
        tree = cKDTree(source)
    _, idx = tree.query(targets, k=min(n_n, len(source)))
    neigh = source[idx]                                  # (n, n_n, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]                              # smallest eigenvalue
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if viewpoints is not None:
        to_sensor = np.asarray(viewpoints) - targets
        flip = np.einsum("ij,ij->i", normals, to_sensor) < 0
        normals[flip] *= -1.0
    return normals


def refresh_normals(vmap: VoxelMap, cfg: MappingConfig, targets=None) -> None:
    """(Re)compute normals for the given (key, rows) targets, or for every local
    point lacking one, using the whole local map as the neighborhood source.

    All targets share one neighbour query on the map's cached kd-tree. With no
    target rows the map, and its cache, are left untouched."""
    pts_all, _, _, _, tree = vmap._local_arrays()
    if tree is None or len(pts_all) < cfg.n_n:
        return
    if targets is None:
        targets = [(key, np.nonzero(~np.isfinite(chunk.normals).all(axis=1))[0])
                   for key, chunk in vmap.voxels.items()]
    parts = [(vmap.voxels[key], rows) for key, rows in targets if len(rows)]
    if not parts:
        return
    pts = np.vstack([chunk.points[rows] for chunk, rows in parts])
    views = np.vstack([chunk.viewpoints[rows] for chunk, rows in parts])
    normals = _normals_for(pts, pts_all, cfg.n_n, views, tree=tree)
    splits = np.cumsum([len(rows) for _, rows in parts])[:-1]
    for (chunk, rows), part_normals in zip(parts, np.split(normals, splits)):
        chunk.normals[rows] = part_normals
    vmap._invalidate()


def _sensor_position(sensor_pose) -> np.ndarray:
    if isinstance(sensor_pose, RigidTransform):
        return sensor_pose.translation
    return np.asarray(sensor_pose, dtype=np.float64).reshape(3)


def insert_scan(vmap: VoxelMap, scan_in_g: PointCloud, sensor_pose,
                rho: float) -> VoxelMap:
    """Append scan points (in index order) whose nearest map point, including
    points accepted earlier in this call, is farther than rho."""
    if scan_in_g.frame != FRAME_MAP:
        raise ValueError("insert_scan expects a registered (map-frame) scan")
    vmap.last_inserted = []
    pts = scan_in_g.points
    if len(pts) == 0:
        return vmap
    sensor = _sensor_position(sensor_pose)
    tree = vmap.local_tree()
    if tree is not None:
        d, _ = tree.query(pts, k=1)
        cand = np.nonzero(d > rho)[0]
    else:
        cand = np.arange(len(pts))
    if len(cand) == 0:
        return vmap
    cpts = pts[cand]
    accepted = np.ones(len(cand), dtype=bool)
    pairs = sorted(cKDTree(cpts).query_pairs(rho), key=lambda ij: (ij[1], ij[0]))
    for i, j in pairs:
        if accepted[i]:
            accepted[j] = False
    sel = cand[accepted]
    new_pts = pts[sel]
    new_labels = None if scan_in_g.labels is None else scan_in_g.labels[sel]
    keys = vmap.voxel_keys(new_pts)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    uniq, starts = np.unique(keys[order], axis=0, return_index=True)
    bounds = list(starts) + [len(order)]
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
        chunk.append(new_pts[rows], np.tile(sensor, (len(rows), 1)),
                     None if new_labels is None else new_labels[rows])
        vmap.last_inserted.append((key, np.arange(first, len(chunk))))
    vmap._invalidate()
    return vmap


def filter_dynamic(vmap: VoxelMap, scan_in_g: PointCloud, sensor_pose,
                   cfg: MappingConfig) -> VoxelMap:
    """Raise dyn_prob of map points the scan saw through, lower it for points
    coincident with a return, and drop points whose dyn_prob exceeds tau_d.

    Only map points within the sensor range r take part. A map point is on a
    beam when its direction is within beam_half_angle of the beam direction and
    it sits at least rho closer to the sensor than the return.
    """
    if scan_in_g.frame != FRAME_MAP:
        raise ValueError("filter_dynamic expects a registered (map-frame) scan")
    if len(scan_in_g) == 0:
        return vmap
    sensor = _sensor_position(sensor_pose)
    beam_vec = scan_in_g.points - sensor
    beam_range = np.linalg.norm(beam_vec, axis=1)
    ok = beam_range > 1e-9
    beam_dir = beam_vec[ok] / beam_range[ok, None]
    beam_range = beam_range[ok]
    beam_pts = scan_in_g.points[ok]
    if len(beam_dir) == 0:
        return vmap
    dir_tree = cKDTree(beam_dir)
    chord = 2.0 * np.sin(0.5 * cfg.beam_half_angle)

    changed = False
    for key, chunk in vmap.voxels.items():
        if len(chunk) == 0:
            continue
        rel = chunk.points - sensor
        rng = np.linalg.norm(rel, axis=1)
        near = (rng > 1e-9) & (rng <= cfg.r)
        rows = np.nonzero(near)[0]
        if len(rows) == 0:
            continue
        dirs = rel[rows] / rng[rows, None]
        dd, bi = dir_tree.query(dirs, k=1)
        on_beam = dd <= chord
        seen_through = on_beam & (rng[rows] <= beam_range[bi] - cfg.rho)
        coincident = (np.linalg.norm(chunk.points[rows] - beam_pts[bi], axis=1)
                      < cfg.rho)
        if seen_through.any() or coincident.any():
            dp = chunk.dyn_prob[rows]
            dp = dp + cfg.delta_up * seen_through - cfg.delta_down * coincident
            chunk.dyn_prob[rows] = np.clip(dp, 0.0, 1.0)
            changed = True
        remove = chunk.dyn_prob > cfg.tau_d
        if remove.any():
            chunk.keep(~remove)
            changed = True
    if changed:
        vmap._invalidate()
    return vmap


def _local_box(vmap: VoxelMap, robot_voxel, cfg: MappingConfig):
    """Per-axis index range [c - h, c + h - 1] of the local cube
    (edge 2r + 4 v_s when r is a voxel multiple)."""
    h = int(np.ceil(cfg.r / cfg.v_s)) + 2
    lo = np.asarray(robot_voxel) - h
    hi = np.asarray(robot_voxel) + h - 1
    return lo, hi


def _in_box(key, lo, hi) -> bool:
    return all(lo[a] <= key[a] <= hi[a] for a in range(3))


def retile(vmap: VoxelMap, robot_position, cfg: MappingConfig):
    """Load/unload voxels so the local set covers the cube centered on the
    robot's voxel. Fires only when the robot has entered a new voxel and
    penetrated at least v_s / 4 past the crossed border (oscillation guard).

    Returns (local map snapshot, action list of ("load"|"unload", key)).
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
        return vmap.local_cloud(), []

    lo, hi = _local_box(vmap, cur, cfg)
    actions = []
    for key in sorted(vmap.nonlocal_manifest):
        if _in_box(key, lo, hi):
            chunk = vmap._read_chunk(key)
            vmap.voxels[key] = chunk
            del vmap.nonlocal_manifest[key]
            actions.append(("load", key))
    for key in sorted(vmap.voxels):
        if not _in_box(key, lo, hi):
            path = vmap._write_chunk(key, vmap.voxels[key])
            vmap.nonlocal_manifest[key] = path
            del vmap.voxels[key]
            actions.append(("unload", key))
    vmap.last_retile_voxel = cur
    if actions:
        vmap._invalidate()
    return vmap.local_cloud(), actions


# ---------------------------------------------------------------------------


def save_map(vmap: VoxelMap, out_dir) -> Path:
    """Persist the whole map (local and nonlocal) as manifest.json plus one
    NPCD v1 file per voxel. Round trips preserve points, normals and dyn_prob
    bit-exactly."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for key in sorted(vmap.all_keys()):
        chunk = vmap.voxels.get(key)
        if chunk is None:
            chunk = vmap._read_chunk(key)
        if len(chunk) == 0:
            continue
        name = "vx_{}_{}_{}.npcd".format(*key)
        has_normals = bool(np.isfinite(chunk.normals).all())
        cloud = PointCloud(chunk.points, FRAME_MAP,
                           normals=chunk.normals if has_normals else None,
                           dyn_prob=chunk.dyn_prob)
        try:
            write_npcd(out_dir / name, cloud)
        except OSError as exc:
            raise PersistenceError(f"failed to write {name}: {exc}",
                                   voxel=key) from exc
        entries.append({"index": list(key), "count": len(chunk), "file": name})
    manifest = {"format": MAP_FORMAT, "version": MAP_VERSION, "v_s": vmap.v_s,
                "voxels": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return out_dir


def load_map(path, spill_dir=None) -> VoxelMap:
    """Load a map database; every voxel starts RAM-resident (local). Fails on a
    missing or size-inconsistent voxel file and on a version mismatch."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise MapLoadError(f"no manifest.json in {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != MAP_FORMAT:
        raise MapLoadError(f"{manifest_path}: not a {MAP_FORMAT} manifest")
    if manifest.get("version") != MAP_VERSION:
        raise MapLoadError(
            f"{manifest_path}: unsupported version {manifest.get('version')}")
    vmap = VoxelMap(float(manifest["v_s"]), spill_dir=spill_dir)
    for entry in manifest["voxels"]:
        key = tuple(int(v) for v in entry["index"])
        fpath = path / entry["file"]
        if not fpath.exists():
            raise MapLoadError(f"missing voxel file {fpath}")
        cloud = read_npcd(fpath, frame=FRAME_MAP)
        if len(cloud) != entry["count"]:
            raise MapLoadError(
                f"{fpath}: has {len(cloud)} points, manifest says {entry['count']}")
        vmap.voxels[key] = VoxelChunk(cloud.points, cloud.normals, cloud.dyn_prob)
    vmap._invalidate()
    return vmap
