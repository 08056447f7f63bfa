"""Hand-worked cases for the benchmark's own output checks.

    python3 -m pytest perfbench/test_oracles.py
"""

import numpy as np
import pytest

from oracles import digest, point_to_polyline, tail_percentile, tail_rank

# An L: (0, 0) -> (4, 0) -> (4, 3).
ELL = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)]


@pytest.mark.parametrize("point, expected", [
    ((2.0, 0.0), 0.0),          # on the first segment
    ((4.0, 3.0), 0.0),          # on the last vertex
    ((2.0, 1.5), 1.5),          # above the first segment, foot inside it
    ((1.0, -2.0), 2.0),         # below the first segment
    ((5.0, 2.0), 1.0),          # right of the second segment
    ((-3.0, 4.0), 5.0),         # beyond the start: 3-4-5 to (0, 0)
    ((7.0, 7.0), 5.0),          # beyond the end: 3-4-5 to (4, 3)
    ((3.0, 1.0), 1.0),          # inside the corner, equidistant from both
    ((5.0, -1.0), np.sqrt(2)),  # outside the corner, nearest the vertex
])
def test_distance_to_ell(point, expected):
    assert point_to_polyline([point], ELL)[0] == pytest.approx(expected,
                                                                abs=1e-12)


def test_distance_is_per_point_and_ignores_repeated_vertices():
    line = [(0.0, 0.0), (0.0, 0.0), (10.0, 0.0)]
    d = point_to_polyline([(5.0, 3.0), (-4.0, 3.0), (13.0, -4.0)], line)
    np.testing.assert_allclose(d, [3.0, 5.0, 5.0], atol=1e-12)


def test_single_vertex_polyline_is_a_point():
    assert point_to_polyline([(3.0, 4.0)], [(0.0, 0.0)])[0] == \
        pytest.approx(5.0)


def test_distance_matches_dense_sampling():
    rng = np.random.default_rng(0)
    line = np.cumsum(rng.normal(size=(6, 2)), axis=0)
    pts = rng.normal(scale=3.0, size=(50, 2))
    t = np.linspace(0.0, 1.0, 20001)[:, None]
    dense = np.vstack([a + t * (b - a) for a, b in zip(line[:-1], line[1:])])
    brute = np.linalg.norm(pts[:, None] - dense[None], axis=2).min(axis=1)
    d = point_to_polyline(pts, line)
    assert np.all(d <= brute + 1e-12)
    np.testing.assert_allclose(d, brute, atol=1e-3)


def test_tail_rank_leaves_ten_above():
    assert tail_rank(10) is None
    assert tail_rank(11) == 0
    assert tail_rank(165) == 154
    assert 165 - 1 - tail_rank(165) == 10
    assert tail_percentile(20) == pytest.approx(50.0)


def test_digest_sees_values_and_shapes():
    a = np.arange(6.0)
    assert digest(a) == digest(a.copy())
    assert digest(a) != digest(a.reshape(2, 3))
    b = a.copy()
    b[3] = np.nextafter(b[3], 10.0)
    assert digest(a) != digest(b)
