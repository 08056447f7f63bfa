import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from trailnav.geom import FRAME_MAP, PointCloud
from trailnav.mapping import (MapLoadError, MappingConfig, VoxelMap,
                              compute_normals, filter_dynamic, insert_scan,
                              load_map, refresh_normals, retile, save_map)
from trailnav.npcd import read_npcd


def _map_cfg(**kw):
    return MappingConfig(**kw)


def _grid_cloud(spacing=0.5, extent=5.0, z=0.0):
    xs = np.arange(-extent, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])
    return PointCloud(pts, FRAME_MAP)


def test_mapping_config_defaults():
    cfg = MappingConfig()
    assert cfg.rho == 0.1
    assert cfg.n_n == 15
    assert cfg.tau_d == 0.8
    assert cfg.v_s == 20.0
    with pytest.raises(ValueError):
        MappingConfig(tau_d=1.5)


def test_voxel_key_floor_semantics():
    vmap = VoxelMap(20.0)
    assert vmap.voxel_key([0.0, 0.0, 0.0]) == (0, 0, 0)
    assert vmap.voxel_key([-0.1, 19.9, 40.0]) == (-1, 0, 2)


def test_insert_scan_density_gate():
    vmap = VoxelMap(20.0)
    cfg = _map_cfg()
    insert_scan(vmap, _grid_cloud(spacing=0.5), cfg.rho)
    n0 = vmap.local_point_count()
    assert n0 == len(_grid_cloud(spacing=0.5))
    # Re-inserting the identical scan adds nothing.
    insert_scan(vmap, _grid_cloud(spacing=0.5), cfg.rho)
    assert vmap.local_point_count() == n0
    # No two map points closer than rho.
    pts = vmap.all_points_cloud().points
    pairs = cKDTree(pts).query_pairs(cfg.rho)
    assert not pairs


def test_insert_scan_self_conflict_within_one_scan():
    vmap = VoxelMap(20.0)
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.2, 0, 0]])
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), rho=0.1)
    out = vmap.all_points_cloud().points
    assert len(out) == 2   # the 0.05-away twin is dropped
    assert np.allclose(sorted(out[:, 0]), [0.0, 0.2])


def test_insert_scan_point_at_exactly_rho_is_not_a_candidate():
    # 0.25 and its square are exact, so the query returns exactly rho; only
    # points strictly farther than rho from the map may be inserted.
    vmap = VoxelMap(20.0)
    insert_scan(vmap, PointCloud(np.zeros((1, 3)), FRAME_MAP), rho=0.25)
    scan = np.array([[0.25, 0.0, 0.0], [0.0, 3.0, 0.0]])
    insert_scan(vmap, PointCloud(scan, FRAME_MAP), rho=0.25)
    out = vmap.all_points_cloud().points
    assert len(out) == 2
    assert not np.any(np.all(out == [0.25, 0.0, 0.0], axis=1))


class _UnboundedQuery:
    """A kd-tree whose ``query`` ignores ``distance_upper_bound``."""

    def __init__(self, tree):
        self.tree = tree

    def query(self, x, k=1, distance_upper_bound=np.inf):
        return self.tree.query(x, k=k)


def test_insert_scan_bounded_query_matches_unbounded():
    rng = np.random.default_rng(11)
    rho = 0.3
    fast, ref = VoxelMap(4.0), VoxelMap(4.0)
    cached = ref._local_arrays

    def unbounded():
        arrays = cached()
        if arrays[1] is None:
            return arrays
        return (arrays[0], _UnboundedQuery(arrays[1]), *arrays[2:])

    ref._local_arrays = unbounded
    base = rng.uniform(-6.0, 6.0, (800, 3))
    for _ in range(4):
        near = base[rng.integers(0, len(base), 400)] + \
            rng.normal(0.0, rho * 0.6, (400, 3))
        scan = PointCloud(np.vstack([rng.uniform(-6.0, 6.0, (400, 3)), near]),
                          FRAME_MAP, labels=rng.integers(0, 3, 800))
        insert_scan(fast, scan, rho)
        insert_scan(ref, scan, rho)
        assert len(fast.last_inserted) > 0
        assert [k for k, _ in fast.last_inserted] == \
            [k for k, _ in ref.last_inserted]
        for (_, a), (_, b) in zip(fast.last_inserted, ref.last_inserted):
            assert np.array_equal(a, b)
        assert fast.voxels.keys() == ref.voxels.keys()
        for key, chunk in fast.voxels.items():
            assert np.array_equal(chunk.points, ref.voxels[key].points)
            assert np.array_equal(chunk.labels, ref.voxels[key].labels)
        base = np.vstack([base, scan.points])


def test_insert_requires_map_frame():
    vmap = VoxelMap(20.0)
    with pytest.raises(ValueError):
        insert_scan(vmap, PointCloud(np.zeros((1, 3)), "L"), 0.1)


def test_compute_normals_plane_oriented_to_viewpoint():
    cloud = _grid_cloud(spacing=0.4)
    out = compute_normals(cloud, 15,
                          viewpoints=np.tile([0.0, 0.0, 2.0], (len(cloud), 1)))
    assert np.allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-9)
    assert np.all(out.normals[:, 2] > 0)   # toward the sensor above


def test_refresh_normals_fills_missing(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    insert_scan(vmap, _grid_cloud(spacing=0.4), cfg.rho)
    assert vmap.registration_reference() is None   # NaN until refreshed
    refresh_normals(vmap, cfg, [0.0, 0.0, 2.0])
    normals = vmap.registration_reference()[0].normals
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)


def test_filter_dynamic_seen_through_accumulates_and_removes(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    sensor = np.array([0.0, 0.0, 1.0])
    # A phantom point 5 m ahead of the sensor.
    phantom = PointCloud(np.array([[5.0, 0.0, 1.0]]), FRAME_MAP)
    insert_scan(vmap, phantom, cfg.rho)
    # Scans keep returning a wall 10 m ahead: the beam passes through the
    # phantom (delta_up = 0.2 per observation; removal above tau_d = 0.8).
    wall = PointCloud(np.array([[10.0, 0.0, 1.0]]), FRAME_MAP)
    for i in range(4):
        filter_dynamic(vmap, wall, sensor, cfg)
        assert vmap.local_point_count() >= 1  # phantom still there (<= tau_d)
    filter_dynamic(vmap, wall, sensor, cfg)   # 5th observation: 1.0 > 0.8
    pts = vmap.all_points_cloud().points
    assert not np.any(np.all(np.isclose(pts, [5.0, 0.0, 1.0]), axis=1))


def test_filter_dynamic_coincident_lowers_probability(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    sensor = np.array([0.0, 0.0, 1.0])
    target = PointCloud(np.array([[5.0, 0.0, 1.0]]), FRAME_MAP)
    insert_scan(vmap, target, cfg.rho)
    chunk = vmap.voxels[vmap.voxel_key([5.0, 0.0, 1.0])]
    chunk.dyn_prob[:] = 0.5
    # The scan re-observes the same point: probability must go down.
    filter_dynamic(vmap, target, sensor, cfg)
    assert chunk.dyn_prob[0] == pytest.approx(0.4)


def test_filter_dynamic_ignores_points_beyond_range(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=8.0)
    sensor = np.array([0.0, 0.0, 1.0])
    far = PointCloud(np.array([[9.0, 0.0, 1.0]]), FRAME_MAP)
    insert_scan(vmap, far, cfg.rho)
    wall = PointCloud(np.array([[12.0, 0.0, 1.0]]), FRAME_MAP)
    chunk = vmap.voxels[vmap.voxel_key([9.0, 0.0, 1.0])]
    filter_dynamic(vmap, wall, sensor, cfg)
    assert chunk.dyn_prob[0] == 0.0


def test_retile_local_box_extent(tmp_path):
    # r = 80, v_s = 20: the local cube spans 12 voxels per axis.
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=80.0, v_s=20.0)
    from trailnav.mapping import _local_box
    lo, hi = _local_box(vmap, (0, 0, 0), cfg)
    assert np.array_equal(hi - lo + 1, [12, 12, 12])


def test_retile_sizes_the_local_cube_in_the_maps_voxels(tmp_path):
    # A map of 5 m voxels retiled under a config that says 20 m: a voxel
    # 17 m out is within r = 20 m of the robot and stays local.
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=20.0, v_s=20.0)
    insert_scan(vmap, PointCloud(np.array([[17.0, 0.5, 0.5]]), FRAME_MAP),
                cfg.rho)
    _, actions = retile(vmap, [0.5, 0.5, 0.5], cfg)
    assert actions == []
    assert vmap.voxel_key([17.0, 0.5, 0.5]) in vmap.voxels


def test_retile_partitions_and_moves_voxels(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=10.0, v_s=5.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-40, 40, (2000, 3))
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), cfg.rho)
    _, actions = retile(vmap, [0.0, 0.0, 0.0], cfg)
    assert any(a == "unload" for a, _ in actions)
    # Partition invariant.
    assert not (set(vmap.voxels) & set(vmap.nonlocal_manifest))
    # Every local-cube voxel with points is local.
    from trailnav.mapping import _in_box, _local_box
    lo, hi = _local_box(vmap, (0, 0, 0), cfg)
    for key in vmap.nonlocal_manifest:
        assert not _in_box(key, lo, hi)
    n_total = vmap.point_count()
    # Move far away; content is preserved across retiles.
    _, actions2 = retile(vmap, [37.5, 2.5, 2.5], cfg)
    assert any(a == "load" for a, _ in actions2)
    assert vmap.point_count() == n_total


def test_retile_returns_the_map_and_leaves_its_cache_unbuilt(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=10.0, v_s=5.0)
    pts = np.random.default_rng(0).uniform(-40, 40, (2000, 3))
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), cfg.rho)
    assert vmap._cache is None
    out, actions = retile(vmap, [0.0, 0.0, 0.0], cfg)     # fires
    assert out is vmap and actions
    assert vmap._cache is None
    out, actions = retile(vmap, [0.5, 0.0, 0.0], cfg)     # same voxel
    assert out is vmap and actions == []
    assert vmap._cache is None


def test_retile_oscillation_guard(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=10.0, v_s=5.0)
    insert_scan(vmap, PointCloud(np.zeros((1, 3)), FRAME_MAP), cfg.rho)
    retile(vmap, [2.5, 2.5, 2.5], cfg)      # establish the reference voxel
    assert vmap.last_retile_voxel == (0, 0, 0)
    # Dither across the x=5 border without penetrating v_s/4 = 1.25 m.
    for x in (5.2, 4.8, 5.6, 4.9, 6.1):
        _, actions = retile(vmap, [x, 2.5, 2.5], cfg)
        assert actions == []
    assert vmap.last_retile_voxel == (0, 0, 0)
    # Deep penetration fires exactly one retile.
    retile(vmap, [6.3, 2.5, 2.5], cfg)
    assert vmap.last_retile_voxel == (1, 0, 0)


def test_save_load_round_trip_bit_exact(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path / "spill")
    cfg = _map_cfg()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-30, 30, (3000, 3))
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), cfg.rho)
    refresh_normals(vmap, cfg, [0, 0, 1.5])
    save_map(vmap, tmp_path / "db")
    assert (tmp_path / "db" / "manifest.json").exists()
    back = load_map(tmp_path / "db", spill_dir=tmp_path / "spill2")
    assert back.all_keys() == vmap.all_keys()
    for key in vmap.voxels:
        a, b = vmap.voxels[key], back.voxels[key]
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.dyn_prob, b.dyn_prob)


def test_load_map_validates(tmp_path):
    with pytest.raises(MapLoadError):
        load_map(tmp_path)   # no manifest
    (tmp_path / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(MapLoadError):
        load_map(tmp_path)


def test_load_map_missing_voxel_file(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path / "spill")
    insert_scan(vmap, PointCloud(np.zeros((1, 3)), FRAME_MAP), 0.1)
    save_map(vmap, tmp_path / "db")
    (tmp_path / "db" / "vx_0_0_0.npcd").unlink()
    with pytest.raises(MapLoadError):
        load_map(tmp_path / "db")


@pytest.mark.xfail(strict=True, reason=(
    "retile's oscillation guard takes the smallest penetration over the "
    "changed axes, so 1 mm past the y = 0 border it never fires again; "
    "ROADMAP.md item 2"))
def test_retile_follows_a_robot_just_past_a_voxel_border(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    retile(vmap, [0.0, 0.0, 0.0], cfg)
    for x in range(0, 201, 20):
        pos = [x + 1.0, -0.001, 0.5]
        retile(vmap, pos, cfg)
        # The last retile voxel stays within one voxel of the robot's.
        gap = np.subtract(vmap.voxel_key(pos), vmap.last_retile_voxel)
        assert np.abs(gap).max() <= 1, (pos, vmap.last_retile_voxel)


def _labelled_map(spill_dir):
    """Points over a 60 m square on 5 m voxels, with labels 1-3, normals and
    non-zero dyn_prob: the same map on every call."""
    rng = np.random.default_rng(3)
    vmap = VoxelMap(5.0, spill_dir=spill_dir)
    pts = rng.uniform(-30, 30, (3000, 3)) * [1.0, 1.0, 0.05]
    insert_scan(vmap, PointCloud(pts, FRAME_MAP,
                                 labels=rng.integers(1, 4, len(pts))), 0.1)
    refresh_normals(vmap, _map_cfg(), [0, 0, 1.5])
    for key in sorted(vmap.voxels):
        chunk = vmap.voxels[key]
        chunk.dyn_prob[:] = rng.uniform(0.0, 0.7, len(chunk))
    return vmap


# r = 5 m on 5 m voxels: the local cube spans voxels c - 3 .. c + 2.
_SPILL_CFG = MappingConfig(r=5.0, v_s=5.0)


def test_a_spilled_voxel_is_an_npcd_file_and_reloads_bit_exact(tmp_path):
    vmap = _labelled_map(tmp_path / "spill")
    before = {key: (c.points.copy(), c.normals.copy(), c.dyn_prob.copy())
              for key, c in vmap.voxels.items()}
    assert all(np.isfinite(n).all() for _, n, _ in before.values())
    retile(vmap, [0.0, 0.0, 0.0], _SPILL_CFG)
    spilled = sorted(vmap.nonlocal_manifest)
    assert len(spilled) > 10
    for key in spilled:
        path = vmap.nonlocal_manifest[key]
        assert path.parent == tmp_path / "spill"
        assert path.name == "spill_{}_{}_{}.npcd".format(*key)
        cloud = read_npcd(path)
        assert np.array_equal(cloud.points, before[key][0])
        assert np.array_equal(cloud.normals, before[key][1])
        assert np.array_equal(cloud.dyn_prob, before[key][2])
    # Retiling at the far corner reloads the spilled voxels near it.
    retile(vmap, [29.0, 29.0, 0.0], _SPILL_CFG)
    reloaded = [key for key in spilled if key in vmap.voxels]
    assert len(reloaded) > 3
    for key in reloaded:
        chunk = vmap.voxels[key]
        for got, want in zip((chunk.points, chunk.normals, chunk.dyn_prob),
                             before[key]):
            assert np.array_equal(got, want)
        assert np.array_equal(chunk.labels, np.zeros(len(chunk), np.int64))


def test_a_map_with_spilled_voxels_saves_what_a_resident_map_saves(tmp_path):
    resident = _labelled_map(tmp_path / "spill_a")
    spilled = _labelled_map(tmp_path / "spill_b")
    retile(spilled, [0.0, 0.0, 0.0], _SPILL_CFG)
    assert spilled.nonlocal_manifest and not resident.nonlocal_manifest
    save_map(resident, tmp_path / "a")
    save_map(spilled, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "manifest.json" in names and len(names) > 10
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


_BUMPY_SENSORS = ([-3.0, 1.0, 2.0], [4.0, -2.0, 2.5])


def _bumpy_map(tmp_path):
    """Two scans over a bumpy 18 m square on 5 m voxels, taken from
    ``_BUMPY_SENSORS``: the first scan's rows are refreshed from the first
    sensor, and the second leaves rows without normals in each of the 32
    voxels it touches."""
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    rng = np.random.default_rng(7)
    for scan in range(len(_BUMPY_SENSORS)):
        if scan:
            refresh_normals(vmap, cfg, _BUMPY_SENSORS[scan - 1])
        xy = rng.uniform(-9.0, 9.0, (1500, 2))
        z = 0.3 * np.sin(xy[:, 0]) * np.cos(0.7 * xy[:, 1])
        insert_scan(vmap, PointCloud(np.column_stack([xy, z]), FRAME_MAP),
                    cfg.rho)
    return vmap, cfg


def _full_tree_normals(vmap, cfg, sensor):
    """Normals of the last insertion's rows from one kd-tree over the whole
    post-insert local map (the reference refresh_normals must match), and
    each row's share of inserted points among its neighbours."""
    from trailnav.mapping import _normals_for
    chunks = [vmap.voxels[key] for key in sorted(vmap.voxels)]
    pts_all = np.vstack([chunk.points for chunk in chunks])
    new_mask = np.concatenate([np.zeros(len(chunk), bool) for chunk in chunks])
    offsets = dict(zip(sorted(vmap.voxels),
                       np.cumsum([0] + [len(c) for c in chunks[:-1]])))
    for key, rows in vmap.last_inserted:
        new_mask[offsets[key] + rows] = True
    targets = pts_all[new_mask]
    _, idx = cKDTree(pts_all).query(targets, k=cfg.n_n)
    views = np.tile(sensor, (len(targets), 1))
    new_share = new_mask[idx].mean(axis=1)
    return _normals_for(targets, pts_all[idx], views), new_share


def _plane_scan(rng, n, lo, hi):
    xy = rng.uniform(lo, hi, (n, 2))
    z = 0.3 * np.sin(xy[:, 0]) * np.cos(0.7 * xy[:, 1])
    return PointCloud(np.column_stack([xy, z]), FRAME_MAP)


# (base scan, inserted scan) makers on 5 m voxels; the inserted points always
# span at least 3 voxels.
_REFRESH_CASES = {
    "first_insert": lambda rng: (None, _plane_scan(rng, 1500, -9.0, 9.0)),
    "base_below_n_n": lambda rng: (_plane_scan(rng, 6, -1.0, 1.0),
                                   _plane_scan(rng, 1500, -9.0, 9.0)),
    "all_new_neighbours": lambda rng: (_plane_scan(rng, 800, -30.0, -20.0),
                                       _plane_scan(rng, 1500, -9.0, 9.0)),
    "all_old_neighbours": lambda rng: (
        _plane_scan(rng, 6000, -9.0, 9.0),
        PointCloud(np.column_stack([np.repeat(np.arange(-8.0, 9.0, 4.0), 5),
                                    np.tile(np.arange(-8.0, 9.0, 4.0), 5),
                                    np.full(25, 0.05)]), FRAME_MAP)),
    "mixed": lambda rng: (_plane_scan(rng, 1500, -9.0, 9.0),
                          _plane_scan(rng, 1500, -9.0, 9.0)),
}


@pytest.mark.parametrize("case", sorted(_REFRESH_CASES))
def test_refresh_normals_matches_one_tree_over_the_map(tmp_path, case):
    cfg = _map_cfg()
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    base, scan = _REFRESH_CASES[case](np.random.default_rng(5))
    base_sensor, sensor = [-3.0, 1.0, 2.0], [4.0, -2.0, 2.5]
    if base is not None:
        insert_scan(vmap, base, cfg.rho)
        refresh_normals(vmap, cfg, base_sensor)
    insert_scan(vmap, scan, cfg.rho)
    inserted = vmap.last_inserted
    assert len(inserted) >= 3
    expected, new_share = _full_tree_normals(vmap, cfg, sensor)
    if case == "all_new_neighbours":
        assert (new_share == 1.0).all()
    elif case == "all_old_neighbours":
        assert (new_share == 1.0 / cfg.n_n).all()   # the target itself
    elif case in ("base_below_n_n", "mixed"):
        assert ((new_share > 1.0 / cfg.n_n) & (new_share < 1.0)).any()
    refresh_normals(vmap, cfg, sensor)
    assert np.isfinite(expected).all()
    assert np.array_equal(np.vstack([vmap.voxels[key].normals[rows]
                                     for key, rows in inserted]), expected)


def test_refresh_normals_matches_per_voxel_calls(tmp_path):
    from trailnav.mapping import _normals_for
    vmap, cfg = _bumpy_map(tmp_path)
    pts_all = vmap.all_points_cloud().points
    tree = cKDTree(pts_all)
    expected, missing = {}, 0
    for key, chunk in vmap.voxels.items():
        rows = np.nonzero(~np.isfinite(chunk.normals).all(axis=1))[0]
        normals = chunk.normals.copy()
        if len(rows):
            missing += 1
            # A tiled per-point viewpoint array: refresh_normals' one
            # broadcast sensor position must give the same bits.
            views = np.tile(_BUMPY_SENSORS[-1], (len(rows), 1))
            _, idx = tree.query(chunk.points[rows], k=cfg.n_n)
            normals[rows] = _normals_for(chunk.points[rows], pts_all[idx],
                                         views)
        expected[key] = normals
    assert len(vmap.voxels) >= 4 and missing >= 4
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    for key, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.normals, expected[key]), key


def test_refresh_normals_builds_one_tree_over_the_inserted_points(
        tmp_path, monkeypatch):
    import trailnav.mapping as mapping
    vmap, cfg = _bumpy_map(tmp_path)
    assert len(vmap.last_inserted) >= 4
    inserted = np.vstack([vmap.voxels[key].points[rows]
                          for key, rows in vmap.last_inserted])
    builds = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(np.array(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(mapping, "cKDTree", CountingTree)
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    assert len(builds) == 1 and np.array_equal(builds[0], inserted)
    # The insertion record, and the pre-insert tree with it, is released.
    assert vmap.last_inserted == [] and vmap._pre_insert is None
    assert vmap.registration_reference() is not None
    # Nothing left to refresh: the cached arrays and tree survive the call.
    cache = vmap._local_arrays()
    builds.clear()
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    assert vmap._cache is cache
    assert builds == []


def test_a_dyn_prob_change_keeps_the_insertion_record(tmp_path):
    (vmap, cfg), (unfiltered, _) = (_bumpy_map(tmp_path / name)
                                    for name in "ab")
    inserted, pre_insert = vmap.last_inserted, vmap._pre_insert
    cache = vmap._local_arrays()
    key, rows = inserted[0]
    # A return on one of the new points is a coincident hit: it lowers that
    # point's dyn_prob, already 0, and drops nothing.
    filter_dynamic(vmap, PointCloud(vmap.voxels[key].points[rows[:1]],
                                    FRAME_MAP), [0.0, 0.0, 2.0], cfg)
    assert vmap.voxels[key].dyn_prob[rows[0]] == 0.0
    assert vmap.last_inserted is inserted and vmap._pre_insert is pre_insert
    assert vmap._cache is cache
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    refresh_normals(unfiltered, cfg, _BUMPY_SENSORS[-1])
    assert np.isfinite(vmap.voxels[key].normals[rows]).all()
    assert vmap.voxels.keys() == unfiltered.voxels.keys()
    for k, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.points, unfiltered.voxels[k].points), k
        assert np.array_equal(chunk.normals, unfiltered.voxels[k].normals), k


def test_a_drop_drops_the_insertion_record(tmp_path):
    vmap, cfg = _bumpy_map(tmp_path)
    key, rows = vmap.last_inserted[0]
    chunk = vmap.voxels[key]
    old = np.setdiff1d(np.arange(len(chunk)), rows)[0]
    chunk.dyn_prob[old] = 0.7          # one more see-through drops it
    sensor = np.array([0.0, 0.0, 2.0])
    ray = chunk.points[old] - sensor
    beyond = chunk.points[old] + ray / np.linalg.norm(ray)
    n = len(chunk)
    filter_dynamic(vmap, PointCloud(beyond[None], FRAME_MAP), sensor, cfg)
    assert len(chunk) == n - 1
    assert vmap.last_inserted == [] and vmap._pre_insert is None
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    assert vmap.registration_reference() is None   # new rows stay NaN


def test_filter_dynamic_with_no_beam_direction_changes_nothing(tmp_path):
    vmap, cfg = _bumpy_map(tmp_path)
    cache = vmap._local_arrays()
    dyn = {key: chunk.dyn_prob.copy() for key, chunk in vmap.voxels.items()}
    sensor = np.array([0.0, 0.0, 2.0])
    filter_dynamic(vmap, PointCloud(sensor[None], FRAME_MAP), sensor, cfg)
    assert vmap._cache is cache and vmap.last_inserted
    for key, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.dyn_prob, dyn[key])


def _filter_dynamic_per_voxel(vmap, scan_in_g, sensor, cfg):
    """Voxel-by-voxel reference for filter_dynamic."""
    beam_vec = scan_in_g.points - sensor
    beam_range = np.linalg.norm(beam_vec, axis=1)
    dir_tree = cKDTree(beam_vec / beam_range[:, None])
    chord = 2.0 * np.sin(0.5 * cfg.beam_half_angle)
    for chunk in vmap.voxels.values():
        rel = chunk.points - sensor
        rng = np.linalg.norm(rel, axis=1)
        rows = np.nonzero((rng > 1e-9) & (rng <= cfg.r))[0]
        if len(rows):
            dd, bi = dir_tree.query(rel[rows] / rng[rows, None], k=1)
            seen_through = (dd <= chord) & (rng[rows] <= beam_range[bi] - cfg.rho)
            coincident = (np.linalg.norm(chunk.points[rows] - scan_in_g.points[bi],
                                         axis=1) < cfg.rho)
            dp = (chunk.dyn_prob[rows] + cfg.delta_up * seen_through
                  - cfg.delta_down * coincident)
            chunk.dyn_prob[rows] = np.clip(dp, 0.0, 1.0)
        chunk.keep(chunk.dyn_prob <= cfg.tau_d)


def test_filter_dynamic_matches_per_voxel_reference(tmp_path):
    (vmap, cfg), (ref_map, _) = (_bumpy_map(tmp_path / name) for name in "ab")
    assert len(vmap.voxels) == 32
    for m in (vmap, ref_map):
        dyn_rng = np.random.default_rng(11)
        for key in sorted(m.voxels):
            m.voxels[key].dyn_prob[:] = dyn_rng.uniform(0.0, 0.8,
                                                        len(m.voxels[key]))
    # Returns 1 m beyond some map points (seen through) and on others
    # (coincident), spread over every voxel.
    sensor = np.array([1.0, 0.5, 2.0])
    pts = vmap.all_points_cloud().points
    pick = np.random.default_rng(3).choice(len(pts), 600, replace=False)
    ray = pts[pick[:400]] - sensor
    through = pts[pick[:400]] + ray / np.linalg.norm(ray, axis=1, keepdims=True)
    scan = PointCloud(np.vstack([through, pts[pick[400:]]]), FRAME_MAP)
    before = {key: len(chunk) for key, chunk in vmap.voxels.items()}
    filter_dynamic(vmap, scan, sensor, cfg)
    _filter_dynamic_per_voxel(ref_map, scan, sensor, cfg)
    assert vmap.voxels.keys() == ref_map.voxels.keys()
    for key, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.dyn_prob, ref_map.voxels[key].dyn_prob), key
        assert np.array_equal(chunk.points, ref_map.voxels[key].points), key
    # Points were dropped in many voxels, not just one.
    assert sum(len(c) < before[k] for k, c in vmap.voxels.items()) >= 4


def test_filter_dynamic_without_a_hit_keeps_the_cache(tmp_path):
    vmap, cfg = _bumpy_map(tmp_path)
    cache = vmap._local_arrays()
    dyn = {key: chunk.dyn_prob.copy() for key, chunk in vmap.voxels.items()}
    # A beam straight up from inside the map: in range of every point, on no
    # point's direction, and coincident with none.
    sensor = np.array([0.0, 0.0, 2.0])
    filter_dynamic(vmap, PointCloud(np.array([[0.0, 0.0, 30.0]]), FRAME_MAP),
                   sensor, cfg)
    assert vmap._cache is cache
    for key, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.dyn_prob, dyn[key])


def test_filter_dynamic_leaves_the_scans_own_new_points_alone(tmp_path):
    vmap, cfg = _bumpy_map(tmp_path)
    refresh_normals(vmap, cfg, _BUMPY_SENSORS[-1])
    for chunk in vmap.voxels.values():
        chunk.dyn_prob[:] = 0.7        # one more see-through drops a point
    # Returns 1 m beyond map points: the map points are seen through, and
    # the returns, off the surface, are inserted as new points.
    sensor = np.array([1.0, 0.5, 2.0])
    pts = vmap.all_points_cloud().points
    pick = np.random.default_rng(3).choice(len(pts), 400, replace=False)
    ray = pts[pick] - sensor
    scan = PointCloud(pts[pick] + ray / np.linalg.norm(ray, axis=1,
                                                       keepdims=True), FRAME_MAP)
    insert_scan(vmap, scan, cfg.rho)
    inserted = {key: vmap.voxels[key].points[rows].copy()
                for key, rows in vmap.last_inserted}
    assert sum(len(p) for p in inserted.values()) > 300
    before = vmap.local_point_count()
    filter_dynamic(vmap, scan, sensor, cfg)
    assert before - vmap.local_point_count() >= 300
    # Every new point is still there, last in its chunk, with dyn_prob 0.
    for key, new_pts in inserted.items():
        chunk = vmap.voxels[key]
        assert np.array_equal(chunk.points[len(chunk) - len(new_pts):], new_pts)
        assert (chunk.dyn_prob[len(chunk) - len(new_pts):] == 0.0).all()


def _filter_then_grow(vmap, scan, sensor, cfg):
    """The sequential teach upkeep: filter, then insert the scan and take its
    normals, the insertion gating against (and the normals merging from) the
    local arrays the filter started on, as a teach tick's registration
    cached them."""
    registered = vmap._local_arrays()
    filter_dynamic(vmap, scan, sensor, cfg)
    vmap._cache = registered   # the insertion's base: the pre-filter arrays
    insert_scan(vmap, scan, cfg.rho)
    refresh_normals(vmap, cfg, sensor)


def _grow_meanwhile(vmap, scan, sensor, cfg):
    """filter_dynamic with the insertion and the normals as its meanwhile."""
    def grow():
        insert_scan(vmap, scan, cfg.rho)
        refresh_normals(vmap, cfg, sensor)
    filter_dynamic(vmap, scan, sensor, cfg, meanwhile=grow)


_UPKEEP_SENSOR = np.array([2.5, 2.5, 1.5])
_PHANTOM_KEY, _NEW_KEY, _SPILLED_KEY = (1, 0, 1), (0, 0, 1), (3, 0, 0)


def _upkeep_scene(seed, spill_dir):
    """A map on 5 m voxels and one scan from ``_UPKEEP_SENSOR``, the same for
    one seed. The ground has random normals, labels and dyn_prob; the scan
    sees through and re-observes random ground points. Every point of voxel
    ``_PHANTOM_KEY`` is seen through at dyn_prob 0.7, and returns 0.3 m
    behind them refill it; returns above the sensor create ``_NEW_KEY``;
    returns on a post in ``_SPILLED_KEY``, which a retile spilled, reload
    it."""
    rng = np.random.default_rng(seed)
    vmap = VoxelMap(5.0, spill_dir=spill_dir)
    xy = rng.uniform([-12.0, -12.0], [20.0, 12.0], (3000, 2))
    ground = np.column_stack([xy, 0.3 * np.sin(xy[:, 0]) * np.cos(0.7 * xy[:, 1])])
    grid = np.stack(np.meshgrid([6.0, 6.6, 7.2, 7.8], [1.0, 1.6, 2.2, 2.8, 3.4],
                                [6.0, 6.6, 7.2], indexing="ij"), -1).reshape(-1, 3)
    phantoms = grid + rng.uniform(-0.05, 0.05, grid.shape)
    insert_scan(vmap, PointCloud(np.vstack([ground, phantoms]), FRAME_MAP,
                                 labels=rng.integers(1, 4, len(ground) + len(grid))),
                0.1)
    refresh_normals(vmap, _map_cfg(), [0.0, 0.0, 2.0])
    for key in sorted(vmap.voxels):
        chunk = vmap.voxels[key]
        chunk.dyn_prob[:] = (0.7 if key == _PHANTOM_KEY else
                             rng.uniform(0.0, 0.8, len(chunk)))
    retile(vmap, _UPKEEP_SENSOR, _SPILL_CFG)     # the local cube: -3 .. 2
    pts = vmap._local_arrays()[0]
    pts = pts[pts[:, 2] < 1.0]                   # the local ground
    pick = rng.choice(len(pts), 600, replace=False)
    ray = pts[pick[:400]] - _UPKEEP_SENSOR
    through = pts[pick[:400]] + ray / np.linalg.norm(ray, axis=1, keepdims=True)
    ray = phantoms - _UPKEEP_SENSOR
    behind = phantoms + 0.3 * ray / np.linalg.norm(ray, axis=1, keepdims=True)
    above = rng.uniform([1.0, 1.0, 6.0], [4.0, 4.0, 7.0], (60, 3))
    post = rng.uniform([16.0, 1.0, 1.0], [18.0, 4.0, 3.0], (60, 3))
    returns = np.vstack([through, pts[pick[400:]], behind, above, post])
    return vmap, PointCloud(returns, FRAME_MAP,
                            labels=rng.integers(1, 4, len(returns)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_upkeep_beside_the_filter_builds_the_sequential_map(seed):
    cfg = _map_cfg()
    with tempfile.TemporaryDirectory() as tmp:
        (vmap, scan), (ref, _) = (_upkeep_scene(seed, f"{tmp}/{name}")
                                  for name in "ab")
        assert _SPILLED_KEY in vmap.nonlocal_manifest
        assert _NEW_KEY not in vmap.voxels
        phantoms = vmap.voxels[_PHANTOM_KEY].points.copy()
        before = vmap.local_point_count()
        _grow_meanwhile(vmap, scan, _UPKEEP_SENSOR, cfg)
        _filter_then_grow(ref, scan, _UPKEEP_SENSOR, cfg)

        for m in (vmap, ref):
            assert _SPILLED_KEY in m.voxels and _NEW_KEY in m.voxels
            refilled = m.voxels[_PHANTOM_KEY].points
            assert len(refilled) and not (refilled[:, None] ==
                                          phantoms[None]).all(-1).any()
        assert vmap.local_point_count() - before < len(scan)  # drops too
        assert vmap.voxels.keys() == ref.voxels.keys()
        assert vmap.nonlocal_manifest.keys() == ref.nonlocal_manifest.keys()
        for key, chunk in vmap.voxels.items():
            for field in ("points", "normals", "dyn_prob", "labels"):
                got, want = getattr(chunk, field), getattr(ref.voxels[key], field)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (key, field)


@pytest.mark.parametrize("seed", [5, 17])
def test_the_visibility_blocks_join_without_a_seam(seed, tmp_path,
                                                   monkeypatch):
    import trailnav.mapping as mapping
    cfg = _map_cfg()
    (blocks, scan), (one, _), (ref, _) = (_upkeep_scene(seed, tmp_path / name)
                                          for name in "abc")
    local = len(blocks._local_arrays()[0])
    rows = local // 3 - 7                 # odd seams, and a short last block
    assert local > 3 * rows
    monkeypatch.setattr(mapping, "_VISIBILITY_ROWS", rows)
    _grow_meanwhile(blocks, scan, _UPKEEP_SENSOR, cfg)
    monkeypatch.setattr(mapping, "_VISIBILITY_ROWS", local)
    _grow_meanwhile(one, scan, _UPKEEP_SENSOR, cfg)
    _filter_then_grow(ref, scan, _UPKEEP_SENSOR, cfg)
    for other in (one, ref):
        assert blocks.voxels.keys() == other.voxels.keys()
        for key, chunk in blocks.voxels.items():
            for field in ("points", "normals", "dyn_prob", "labels"):
                got, want = (getattr(c, field) for c in (chunk,
                                                         other.voxels[key]))
                assert got.tobytes() == want.tobytes(), (key, field)


def test_a_failed_tree_build_reaches_the_caller_at_the_reference(
        tmp_path, monkeypatch):
    from concurrent.futures import wait
    import trailnav.mapping as mapping
    vmap, _ = _upkeep_scene(5, tmp_path)
    vmap._invalidate()

    def broken_build(pts):
        raise MemoryError("build failed")

    monkeypatch.setattr(mapping, "cKDTree", broken_build)
    vmap.prefetch_reference()
    wait([vmap._building[2]])          # the worker ran the broken build
    monkeypatch.undo()
    with pytest.raises(MemoryError, match="build failed"):
        vmap.registration_reference()
    # The failed build is gone; the next call starts a new one.
    reference, tree = vmap.registration_reference()
    assert tree.n == len(reference) == vmap.local_point_count()


def test_a_map_change_drops_the_tree_being_built(tmp_path, monkeypatch):
    import threading
    import trailnav.mapping as mapping
    vmap, _ = _upkeep_scene(5, tmp_path)
    vmap._invalidate()
    release, stale = threading.Event(), []

    def slow_build(pts):
        release.wait(timeout=10.0)
        stale.append(mapping.cKDTree(pts))
        return stale[-1]

    monkeypatch.setattr(mapping, "cKDTree", slow_build)
    vmap.prefetch_reference()
    monkeypatch.undo()
    before = vmap.local_point_count()
    vmap.voxels[_PHANTOM_KEY].append(np.full((4, 3), 7.0))
    vmap._invalidate()
    release.set()
    pts, tree, _ = vmap._local_arrays()
    assert len(pts) == vmap.local_point_count() > before
    assert tree not in stale and tree.n == len(pts)
    assert np.array_equal(pts, np.vstack([c.points
                                          for c in vmap._local_chunks()]))
    assert np.array_equal(tree.data, pts)


def test_a_failed_beam_search_reaches_the_caller_and_the_next_one_runs(
        tmp_path, monkeypatch):
    import trailnav.mapping as mapping
    (vmap, scan), (ref, _) = (_upkeep_scene(5, tmp_path / name)
                              for name in "ab")
    cfg = _map_cfg()
    before = {key: (c.points.copy(), c.dyn_prob.copy())
              for key, c in vmap.voxels.items()}
    grown = []

    def broken_search(*args):
        raise FloatingPointError("search failed")

    monkeypatch.setattr(mapping, "_visibility", broken_search)
    with pytest.raises(FloatingPointError, match="search failed"):
        filter_dynamic(vmap, scan, _UPKEEP_SENSOR, cfg,
                       meanwhile=lambda: grown.append(1))
    assert grown == [1]          # meanwhile ran; the map was left alone
    for key, (points, dyn) in before.items():
        assert np.array_equal(vmap.voxels[key].points, points)
        assert np.array_equal(vmap.voxels[key].dyn_prob, dyn)
    monkeypatch.undo()
    _grow_meanwhile(vmap, scan, _UPKEEP_SENSOR, cfg)
    _filter_then_grow(ref, scan, _UPKEEP_SENSOR, cfg)
    for key, chunk in ref.voxels.items():
        assert np.array_equal(vmap.voxels[key].points, chunk.points)
        assert np.array_equal(vmap.voxels[key].dyn_prob, chunk.dyn_prob)


def test_a_failed_meanwhile_waits_for_the_search_and_leaves_the_map(
        tmp_path, monkeypatch):
    import threading
    import time
    import trailnav.mapping as mapping
    vmap, scan = _upkeep_scene(5, tmp_path)
    before = {key: c.dyn_prob.copy() for key, c in vmap.voxels.items()}
    running, finished = threading.Event(), []
    visibility = mapping._visibility

    def slow_search(*args):
        running.set()
        time.sleep(0.2)
        out = visibility(*args)
        finished.append(1)
        return out

    def failing():
        running.wait(timeout=10.0)    # the pass has started on the worker
        raise KeyError("meanwhile failed")

    monkeypatch.setattr(mapping, "_visibility", slow_search)
    with pytest.raises(KeyError, match="meanwhile failed"):
        filter_dynamic(vmap, scan, _UPKEEP_SENSOR, _map_cfg(),
                       meanwhile=failing)
    assert finished == [1]            # the call returned after the search
    for key, dyn in before.items():
        assert np.array_equal(vmap.voxels[key].dyn_prob, dyn)


def test_bounded_beam_search_misses_only_beams_that_cannot_act():
    from trailnav.mapping import _nearest_beams
    cfg = _map_cfg()
    chord = 2.0 * np.sin(0.5 * cfg.beam_half_angle)
    rng = np.random.default_rng(4)
    beams = rng.normal(size=(3000, 3)) * [1.0, 1.0, 0.2]
    beams *= rng.uniform(0.5, 40.0, (len(beams), 1)) / np.linalg.norm(
        beams, axis=1, keepdims=True)
    # Map points near returns, at every range around rho + rho / chord.
    pts = beams[rng.integers(0, len(beams), 5000)] + rng.normal(0, 0.08,
                                                                (5000, 3))
    rng_pts = np.linalg.norm(pts, axis=1)
    dirs = pts / rng_pts[:, None]
    tree = cKDTree(beams / np.linalg.norm(beams, axis=1, keepdims=True))
    dd, bi = _nearest_beams(tree, dirs, rng_pts, chord, cfg.rho)
    ref_dd, ref_bi = tree.query(dirs, k=1)
    found = bi < tree.n
    assert np.array_equal(dd[found], ref_dd[found])
    assert np.array_equal(bi[found], ref_bi[found])
    far = rng_pts >= cfg.rho + cfg.rho / chord
    assert (~found).any() and (~found == (far & (ref_dd > chord))).all()
    # A missed beam neither passes through its point nor meets it.
    assert (ref_dd[~found] > chord).all()
    gap = np.linalg.norm(pts[~found] - beams[ref_bi[~found]], axis=1)
    assert (gap >= cfg.rho).all()
    assert ((rng_pts < cfg.rho + cfg.rho / chord) & (ref_dd > chord)
            & (np.linalg.norm(pts - beams[ref_bi], axis=1) < cfg.rho)).any()
