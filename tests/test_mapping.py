import numpy as np
import pytest
from scipy.spatial import cKDTree

from trailnav.geom import FRAME_MAP, PointCloud
from trailnav.mapping import (MapLoadError, MappingConfig, VoxelMap,
                              compute_normals, filter_dynamic, insert_scan,
                              load_map, refresh_normals, retile, save_map)


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
    insert_scan(vmap, _grid_cloud(spacing=0.5), [0.0, 0.0, 1.5], cfg.rho)
    n0 = vmap.local_point_count()
    assert n0 == len(_grid_cloud(spacing=0.5))
    # Re-inserting the identical scan adds nothing.
    insert_scan(vmap, _grid_cloud(spacing=0.5), [0.0, 0.0, 1.5], cfg.rho)
    assert vmap.local_point_count() == n0
    # No two map points closer than rho.
    pts = vmap.local_cloud(with_normals=False).points
    pairs = cKDTree(pts).query_pairs(cfg.rho)
    assert not pairs


def test_insert_scan_self_conflict_within_one_scan():
    vmap = VoxelMap(20.0)
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.2, 0, 0]])
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), [0, 0, 1.0], rho=0.1)
    out = vmap.local_cloud(with_normals=False).points
    assert len(out) == 2   # the 0.05-away twin is dropped
    assert np.allclose(sorted(out[:, 0]), [0.0, 0.2])


def test_insert_requires_map_frame():
    vmap = VoxelMap(20.0)
    with pytest.raises(ValueError):
        insert_scan(vmap, PointCloud(np.zeros((1, 3)), "L"), [0, 0, 0], 0.1)


def test_compute_normals_plane_oriented_to_viewpoint():
    cloud = _grid_cloud(spacing=0.4)
    out = compute_normals(cloud, 15,
                          viewpoints=np.tile([0.0, 0.0, 2.0], (len(cloud), 1)))
    assert np.allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-9)
    assert np.all(out.normals[:, 2] > 0)   # toward the sensor above


def test_refresh_normals_fills_missing(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    insert_scan(vmap, _grid_cloud(spacing=0.4), [0.0, 0.0, 2.0], cfg.rho)
    assert vmap.local_cloud().normals is None   # NaN until refreshed
    refresh_normals(vmap, cfg)
    normals = vmap.local_cloud().normals
    assert normals is not None
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)


def test_filter_dynamic_seen_through_accumulates_and_removes(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    sensor = np.array([0.0, 0.0, 1.0])
    # A phantom point 5 m ahead of the sensor.
    phantom = PointCloud(np.array([[5.0, 0.0, 1.0]]), FRAME_MAP)
    insert_scan(vmap, phantom, sensor, cfg.rho)
    # Scans keep returning a wall 10 m ahead: the beam passes through the
    # phantom (delta_up = 0.2 per observation; removal above tau_d = 0.8).
    wall = PointCloud(np.array([[10.0, 0.0, 1.0]]), FRAME_MAP)
    for i in range(4):
        filter_dynamic(vmap, wall, sensor, cfg)
        assert vmap.local_point_count() >= 1  # phantom still there (<= tau_d)
    filter_dynamic(vmap, wall, sensor, cfg)   # 5th observation: 1.0 > 0.8
    pts = vmap.local_cloud(with_normals=False).points
    assert not np.any(np.all(np.isclose(pts, [5.0, 0.0, 1.0]), axis=1))


def test_filter_dynamic_coincident_lowers_probability(tmp_path):
    vmap = VoxelMap(20.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    sensor = np.array([0.0, 0.0, 1.0])
    target = PointCloud(np.array([[5.0, 0.0, 1.0]]), FRAME_MAP)
    insert_scan(vmap, target, sensor, cfg.rho)
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
    insert_scan(vmap, far, sensor, cfg.rho)
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


def test_retile_partitions_and_moves_voxels(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=10.0, v_s=5.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-40, 40, (2000, 3))
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), [0, 0, 0], cfg.rho)
    _, actions = retile(vmap, [0.0, 0.0, 0.0], cfg)
    assert any(a == "unload" for a, _ in actions)
    # Partition invariant.
    assert not (vmap.local_set & set(vmap.nonlocal_manifest))
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


def test_retile_oscillation_guard(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg(r=10.0, v_s=5.0)
    insert_scan(vmap, PointCloud(np.zeros((1, 3)), FRAME_MAP), [0, 0, 0],
                cfg.rho)
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
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), [0, 0, 1.5], cfg.rho)
    refresh_normals(vmap, cfg)
    out = save_map(vmap, tmp_path / "db")
    assert (out / "manifest.json").exists()
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
    insert_scan(vmap, PointCloud(np.zeros((1, 3)), FRAME_MAP), [0, 0, 0], 0.1)
    save_map(vmap, tmp_path / "db")
    (tmp_path / "db" / "vx_0_0_0.npcd").unlink()
    with pytest.raises(MapLoadError):
        load_map(tmp_path / "db")


def _bumpy_map(tmp_path):
    """Two scans over a bumpy 18 m square on 5 m voxels: the second leaves
    rows without normals in each of the 32 voxels it touches."""
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = _map_cfg()
    rng = np.random.default_rng(7)
    for scan, sensor in enumerate(([-3.0, 1.0, 2.0], [4.0, -2.0, 2.5])):
        if scan:
            refresh_normals(vmap, cfg)
        xy = rng.uniform(-9.0, 9.0, (1500, 2))
        z = 0.3 * np.sin(xy[:, 0]) * np.cos(0.7 * xy[:, 1])
        insert_scan(vmap, PointCloud(np.column_stack([xy, z]), FRAME_MAP),
                    sensor, cfg.rho)
    return vmap, cfg


@pytest.mark.parametrize("use_last_inserted", [True, False])
def test_refresh_normals_matches_per_voxel_calls(tmp_path, use_last_inserted):
    from trailnav.mapping import _normals_for
    vmap, cfg = _bumpy_map(tmp_path)
    pts_all = vmap.local_cloud(with_normals=False).points
    expected, missing = {}, 0
    for key, chunk in vmap.voxels.items():
        rows = np.nonzero(~np.isfinite(chunk.normals).all(axis=1))[0]
        normals = chunk.normals.copy()
        if len(rows):
            missing += 1
            normals[rows] = _normals_for(chunk.points[rows], pts_all, cfg.n_n,
                                         chunk.viewpoints[rows])
        expected[key] = normals
    assert len(vmap.voxels) >= 4 and missing >= 4
    refresh_normals(vmap, cfg,
                    vmap.last_inserted if use_last_inserted else None)
    for key, chunk in vmap.voxels.items():
        assert np.array_equal(chunk.normals, expected[key]), key


def test_refresh_normals_builds_at_most_one_tree(tmp_path, monkeypatch):
    import trailnav.mapping as mapping
    vmap, cfg = _bumpy_map(tmp_path)
    assert len(vmap.last_inserted) >= 4
    builds = []

    class CountingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mapping, "cKDTree", CountingTree)
    refresh_normals(vmap, cfg, vmap.last_inserted)
    assert len(builds) <= 1
    assert vmap.local_cloud().normals is not None
    # Nothing left to refresh: the cached arrays and tree survive the call.
    cache = vmap._local_arrays()
    builds.clear()
    refresh_normals(vmap, cfg)
    refresh_normals(vmap, cfg, [(key, np.zeros(0, np.int64))
                                for key in vmap.voxels])
    assert vmap._cache is cache
    assert builds == []
