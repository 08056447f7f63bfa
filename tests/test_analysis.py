import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from trailnav.analysis import (DEFAULT_BIN_EDGES, bin_by_curvature,
                               cross_track_series, curvature_at,
                               fit_circle_curvature, perturbation_uncertainty,
                               scan_overlap)
from trailnav.geom import FRAME_MAP, PointCloud
from trailnav.mapping import (MappingConfig, VoxelMap, compute_normals,
                              insert_scan, retile)
from trailnav.trajectory import Trajectory


def _traj_from_xy(xy):
    xy = np.asarray(xy, dtype=np.float64)
    n = len(xy)
    positions = np.column_stack([xy, np.zeros(n)])
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(np.arange(n, dtype=float), positions, quats)


def _circle_xy(radius, n=100, arc=np.pi):
    th = np.linspace(0.0, arc, n)
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


def test_fit_circle_exact_radius():
    assert fit_circle_curvature(_circle_xy(10.0, n=10, arc=0.5)) == \
        pytest.approx(0.1, abs=1e-6)
    assert fit_circle_curvature(_circle_xy(2.0, n=10, arc=1.0)) == \
        pytest.approx(0.5, abs=1e-6)


def test_fit_circle_collinear_is_zero():
    xy = np.column_stack([np.linspace(0, 5, 10), np.zeros(10)])
    assert fit_circle_curvature(xy) == 0.0
    # Nearly straight (radius above the 1e6 m cut) also reports 0.
    xy_big = _circle_xy(1e8, n=10, arc=1e-6)
    assert fit_circle_curvature(xy_big) == 0.0


def test_fit_circle_noisy_within_five_percent():
    rng = np.random.default_rng(0)
    xy = _circle_xy(10.0, n=200, arc=2 * np.pi) + rng.normal(0, 0.01, (200, 2))
    assert fit_circle_curvature(xy) == pytest.approx(0.1, rel=0.05)


def test_curvature_at_uses_clipped_window():
    traj = _traj_from_xy(_circle_xy(5.0, n=50, arc=np.pi))
    for idx in (0, 25, 49):   # ends clip the window but stay on the circle
        assert curvature_at(traj, idx) == pytest.approx(0.2, abs=1e-6)
    with pytest.raises(ValueError):
        curvature_at(_traj_from_xy(_circle_xy(5.0, n=5)), 0)


def test_cross_track_identity_is_zero():
    ref = _traj_from_xy(np.column_stack([np.linspace(0, 10, 101),
                                         np.zeros(101)]))
    series = cross_track_series(ref, ref)
    assert np.allclose(series.eps_ct, 0.0, atol=1e-12)
    assert np.allclose(series.kappa, 0.0)


def test_cross_track_constant_offset():
    xs = np.linspace(0, 10, 101)
    ref = _traj_from_xy(np.column_stack([xs, np.zeros(101)]))
    run = _traj_from_xy(np.column_stack([xs, np.full(101, 0.3)]))
    series = cross_track_series(run, ref)
    assert np.allclose(series.eps_ct, 0.3, atol=1e-12)
    # Subsampled at 0.1 m along a 10 m path.
    assert len(series) == 101


def test_cross_track_invariant_under_rigid_motion():
    rng = np.random.default_rng(3)
    xs = np.linspace(0, 10, 101)
    ref_xy = np.column_stack([xs, 0.5 * np.sin(0.5 * xs)])
    run_xy = ref_xy + rng.normal(0, 0.05, ref_xy.shape)
    base = cross_track_series(_traj_from_xy(run_xy), _traj_from_xy(ref_xy))
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    shift = np.array([3.0, -2.0])
    moved = cross_track_series(_traj_from_xy(run_xy @ rot.T + shift),
                               _traj_from_xy(ref_xy @ rot.T + shift))
    assert np.allclose(moved.eps_ct, base.eps_ct, atol=1e-9)


def test_bin_by_curvature_uniform_closed_form():
    # Samples with kappa k and eps k fall one per bin; medians equal eps.
    kappas = np.array([0.005, 0.012, 0.05, 0.2])
    from trailnav.analysis import CrossTrackSeries
    series = CrossTrackSeries(np.arange(4.0), kappas.copy(), kappas.copy())
    stats = bin_by_curvature(series, edges=[0.01, 0.03, 0.13])
    counts = [b.count for b in stats.bins]
    assert counts == [1, 1, 1, 1]
    assert [b.median for b in stats.bins] == pytest.approx(list(kappas))
    # Empty bins report count 0 and no statistics.
    stats2 = bin_by_curvature(series, edges=[0.3, 0.4])
    assert stats2.bins[1].count == 0 and stats2.bins[1].median is None


def test_default_bin_edges_geometric():
    assert len(DEFAULT_BIN_EDGES) == 8
    assert DEFAULT_BIN_EDGES[0] == pytest.approx(0.01)
    assert DEFAULT_BIN_EDGES[-1] == pytest.approx(0.13)
    ratios = DEFAULT_BIN_EDGES[1:] / DEFAULT_BIN_EDGES[:-1]
    assert np.allclose(ratios, ratios[0])


def quantile_brute_force(values, q) -> float:
    """Sort-based type-7 quantile oracle."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 1:
        return float(v[0])
    pos = q * (len(v) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return float(v[lo] * (1 - frac) + v[hi] * frac)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       st.floats(0.0, 1.0))
def test_percentile_matches_sort_oracle(values, q):
    ours = float(np.percentile(np.array(values), 100 * q))
    assert ours == pytest.approx(quantile_brute_force(values, q), abs=1e-6)


def _map_with(points):
    vmap = VoxelMap(20.0)
    insert_scan(vmap, PointCloud(np.asarray(points, dtype=float), FRAME_MAP),
                rho=0.01)
    return vmap


def test_scan_overlap_extremes():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    vmap = _map_with(pts)
    assert scan_overlap(PointCloud(pts.copy(), FRAME_MAP), vmap, 0.5) == 100.0
    far = PointCloud(pts + [0, 10.0, 0], FRAME_MAP)
    assert scan_overlap(far, vmap, 0.5) == 0.0
    # Half the points inside the threshold.
    mixed = pts.copy()
    mixed[2:] += [0, 10.0, 0]
    assert scan_overlap(PointCloud(mixed, FRAME_MAP), vmap, 0.5) == 50.0


def test_scan_overlap_threshold_is_strict():
    vmap = _map_with([[0.0, 0.0, 0.0]])
    at = PointCloud(np.array([[0.5, 0.0, 0.0]]), FRAME_MAP)
    assert scan_overlap(at, vmap, 0.5) == 0.0    # exactly at -> not within
    assert scan_overlap(at, vmap, 0.5 + 1e-9) == 100.0
    with pytest.raises(ValueError):
        scan_overlap(PointCloud(np.zeros((0, 3)), FRAME_MAP), vmap, 0.5)


def test_scan_overlap_matches_a_whole_map_tree(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    rng = np.random.default_rng(4)
    insert_scan(vmap, PointCloud(rng.uniform(-30, 30, (3000, 3)), FRAME_MAP),
                rho=0.1)
    scan = PointCloud(rng.uniform(-30, 30, (500, 3)), FRAME_MAP)

    def direct(threshold):
        d, _ = cKDTree(vmap.all_points_cloud().points).query(scan.points, k=1)
        return 100.0 * float(np.mean(d < threshold))

    for spilled in (False, True):
        if spilled:
            retile(vmap, [0.0, 0.0, 0.0], MappingConfig(r=10.0, v_s=5.0))
        assert bool(vmap.nonlocal_manifest) == spilled
        for threshold in (0.5, 1.0, 2.0):
            assert scan_overlap(scan, vmap, threshold) == direct(threshold)


def _grid(spacing, extent, z=0.0, frame="L"):
    xs = np.arange(-extent, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])
    return PointCloud(pts, frame)


def test_perturbation_flat_plane_vs_wall():
    # A ground plane constrains nothing along +x: the error profile is flat.
    plane = _grid(0.3, 8.0)
    plane_map = compute_normals(_grid(0.25, 12.0), 15,
                                viewpoints=np.array([0.0, 0.0, 2.0]))
    _, plane_err, plane_std = perturbation_uncertainty(plane, plane_map,
                                                       half_range=2.0)
    assert np.isfinite(plane_err).all()
    assert plane_std < 1e-9

    # A wall at x = 5 makes the profile grow with the offset.
    ys = np.arange(-6.0, 6.0, 0.25)
    zs = np.arange(0.0, 3.0, 0.25)
    gy, gz = np.meshgrid(ys, zs)
    wall_pts = np.column_stack([np.full(gy.size, 5.0), gy.ravel(), gz.ravel()])
    wall_map = compute_normals(PointCloud(wall_pts, "L"), 15,
                               viewpoints=np.array([0.0, 0.0, 1.0]))
    wall = PointCloud(wall_pts.copy(), "L")
    offs, wall_err, wall_std = perturbation_uncertainty(wall, wall_map,
                                                        half_range=1.0)
    assert wall_std > 1e3 * max(plane_std, 1e-30)
    center = wall_err[np.argmin(np.abs(offs))]
    assert center == pytest.approx(0.0, abs=1e-12)
    assert wall_err[0] > center and wall_err[-1] > center


def test_perturbation_requires_normals():
    with pytest.raises(ValueError):
        perturbation_uncertainty(_grid(0.5, 2.0), _grid(0.5, 2.0))
