import math

import numpy as np
import pytest

from sphshepard import DataError, build_zones, compute_delta, geodesic_distance, normalize, zones

AXIS_POINTS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)


def rand_points(n, seed):
    return normalize(np.random.default_rng(seed).normal(size=(n, 3)))


def brute_force_cap(points, center, radius):
    d = geodesic_distance(points, center)
    return set(np.nonzero(d <= radius)[0].tolist())


def brute_force_nearest(points, center, m):
    d = geodesic_distance(points, center)
    order = np.lexsort((np.arange(points.shape[0]), d))
    return order[:m]


# ------------------------------------------------------------------ deltas


def test_delta_matches_arithmetic_oracle():
    assert compute_delta(1000, 15, 1) == pytest.approx(math.acos(0.97), abs=1e-15)


def test_delta_argument_zero_gives_right_angle():
    assert compute_delta(30, 15, 1) == pytest.approx(math.pi / 2, abs=1e-15)


def test_delta_clamps_to_whole_sphere():
    # argument 1 - 2*2*1.5 = -5 clamps to -1
    assert compute_delta(10, 15, 4) == pytest.approx(math.pi, abs=0)


def test_delta_monotone_in_k_and_ratio():
    deltas = [compute_delta(1000, 15, k) for k in range(1, 30)]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))
    deltas = [compute_delta(1000, m, 1) for m in range(1, 200, 10)]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))


def test_delta_rejects_nonpositive_inputs():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            compute_delta(*bad)


# ------------------------------------------------------------------ build


def test_single_strip_when_delta_is_pi():
    ix = build_zones(AXIS_POINTS, np.pi)
    assert ix.zone_count == 1
    assert set(ix.strip_member_ids(1).tolist()) == set(range(6))


def test_axis_points_strip_placement():
    # Hand placement: colatitude 0 -> strip 1, pi/2 (a strip boundary) falls
    # into strip 3 under the half-open convention, pi -> final strip.
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    assert ix.zone_count == 4
    assert set(ix.strip_member_ids(1).tolist()) == {4}
    assert set(ix.strip_member_ids(2).tolist()) == set()
    assert set(ix.strip_member_ids(3).tolist()) == {0, 1, 2, 3}
    assert set(ix.strip_member_ids(4).tolist()) == {5}


def test_strip_count_formula():
    ix = build_zones(rand_points(1000, 0), compute_delta(1000, 15, 1))
    assert ix.zone_count == math.ceil(math.pi / compute_delta(1000, 15, 1)) == 13


def test_zone_invariants_random():
    pts = rand_points(400, 1)
    delta = 0.37
    ix = build_zones(pts, delta)
    assert np.all(np.diff(ix.points[:, 2]) >= 0.0)  # sorted ascending by z
    assert np.all(np.diff(ix.zone_offsets) >= 0)
    assert ix.zone_offsets[0] == 0 and ix.zone_offsets[-1] == 400
    # strip contents against the colatitude definition
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    want_strip = np.minimum((theta // delta).astype(int) + 1, ix.zone_count)
    seen = set()
    for k in range(1, ix.zone_count + 1):
        members = ix.strip_member_ids(k)
        assert set(members.tolist()) == set(np.nonzero(want_strip == k)[0].tolist())
        seen.update(members.tolist())
    assert seen == set(range(400))


def test_empty_point_set_is_valid():
    ix = build_zones(np.empty((0, 3)), 0.5)
    assert len(ix.query_cap([0.0, 0.0, 1.0], 1.0)) == 0


# ------------------------------------------------------------------ queries


def test_whole_sphere_query_returns_all():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    found = ix.query_cap([0.0, 0.0, 1.0], np.pi)
    assert set(found.ids.tolist()) == set(range(6))
    assert np.all(np.diff(found.distances) >= 0.0)


def test_small_cap_only_contains_pole():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    found = ix.query_cap([0.0, 0.0, 1.0], 0.1)
    assert found.ids.tolist() == [4]


def test_query_cap_matches_brute_force():
    pts = rand_points(500, 2)
    ix = build_zones(pts, compute_delta(500, 15, 1))
    rng = np.random.default_rng(3)
    for _ in range(50):
        center = normalize(rng.normal(size=3))
        radius = rng.uniform(0.02, np.pi)
        found = ix.query_cap(center, radius)
        assert set(found.ids.tolist()) == brute_force_cap(pts, center, radius)
        assert np.all(np.diff(found.distances) >= 0.0)


def test_query_cap_distance_ties_break_by_id():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    found = ix.query_cap([0.0, 0.0, 1.0], np.pi / 2)
    assert found.ids.tolist() == [4, 0, 1, 2, 3]


# ------------------------------------------------------------------ nearest


def test_nearest_all_points():
    found = build_zones(AXIS_POINTS, np.pi / 4).nearest_m([0.0, 0.0, 1.0], 6)
    assert len(found) == 6
    assert np.all(np.diff(found.distances) >= 0.0)
    assert found.ids[0] == 4


def test_nearest_self_distance_zero():
    found = build_zones(AXIS_POINTS, np.pi / 4).nearest_m([0.0, 0.0, 1.0], 1)
    assert found.ids.tolist() == [4]
    assert found.distances[0] == 0.0


def test_nearest_matches_brute_force():
    pts = rand_points(500, 4)
    ix = build_zones(pts, compute_delta(500, 15, 1))
    rng = np.random.default_rng(5)
    for _ in range(50):
        center = normalize(rng.normal(size=3))
        found = ix.nearest_m(center, 15, n_formula=500)
        assert np.array_equal(found.ids, brute_force_nearest(pts, center, 15))


def test_nearest_escalates_on_clustered_points():
    # All points inside a tiny cap around +z, query from -z: the first radii
    # find nothing and the escalation must keep growing the cap.
    rng = np.random.default_rng(6)
    pts = normalize(np.array([0.0, 0.0, 1.0]) + 0.01 * rng.normal(size=(40, 3)))
    found = build_zones(pts, compute_delta(40, 5, 1)).nearest_m(np.array([0.0, 0.0, -1.0]), 5)
    assert np.array_equal(found.ids, brute_force_nearest(pts, np.array([0.0, 0.0, -1.0]), 5))


def test_nearest_rejects_m_larger_than_point_count():
    with pytest.raises(ValueError):
        build_zones(AXIS_POINTS, np.pi / 4).nearest_m([0.0, 0.0, 1.0], 7)


def test_nearest_names_a_nan_center():
    ix = build_zones(rand_points(200, 29), compute_delta(200, 15, 1))
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]])
    with pytest.raises(DataError, match="center 2 has fewer than 5 points .* not finite"):
        ix.nearest_m(centers, 5)


def test_nearest_over_a_nan_point_raises_data_error():
    nodes = rand_points(200, 30)
    nodes[7] = [np.nan, 0.0, 0.5]
    ix = build_zones(nodes, compute_delta(200, 15, 1))
    with pytest.raises(DataError, match="center 0 has fewer than 200 points .* not finite"):
        ix.nearest_m(rand_points(3, 31), 200)


def test_escalation_radius_saturates():
    # once 2*sqrt(k)*m/n >= 2 the radius is the whole sphere
    n, m = 100, 10
    k_sat = math.ceil((n / m) ** 2)
    assert compute_delta(n, m, k_sat) == pytest.approx(math.pi, abs=0)


def test_query_radius_validated():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    for bad in (0.0, -1.0, 4.0):
        with pytest.raises(ValueError):
            ix.query_cap([0.0, 0.0, 1.0], bad)


# ------------------------------------------------------------------ batched nearest


def per_point_nearest(ix, center, m, n_formula):
    """The escalating search one center at a time, through query_cap: the oracle."""
    k = 1
    while True:
        found = ix.query_cap(center, compute_delta(n_formula, m, k))
        if len(found) >= m:
            return found.ids[:m], found.distances[:m]
        k += 1


def brute_force_nearest_batch(points, centers, m):
    """(ids, distances) of the m nearest by a full (distance, id) sort."""
    d = geodesic_distance(points[None, :, :], centers[:, None, :])
    ids = np.broadcast_to(np.arange(points.shape[0]), d.shape)
    order = np.lexsort((ids, d), axis=-1)[:, :m]
    return order, np.take_along_axis(d, order, axis=1)


def assert_same_neighbors(found, ids, dists):
    assert np.array_equal(found.ids, ids)
    assert np.array_equal(found.distances, dists)


@pytest.mark.parametrize("block", [zones.SEARCH_BLOCK, 7])
def test_batched_nearest_equals_stacked_single_queries(monkeypatch, block):
    monkeypatch.setattr(zones, "SEARCH_BLOCK", block)
    pts = rand_points(500, 20)
    ix = build_zones(pts, compute_delta(500, 15, 1))
    centers = np.vstack([pts[:100], rand_points(100, 21)])
    for m in (1, 10, 15):
        found = ix.nearest_m(centers, m, n_formula=500)
        assert found.ids.shape == found.distances.shape == (200, m)
        singles = [ix.nearest_m(c, m, n_formula=500) for c in centers]
        assert_same_neighbors(
            found, np.stack([s.ids for s in singles]), np.stack([s.distances for s in singles])
        )
        loops = [per_point_nearest(ix, c, m, 500) for c in centers]
        assert_same_neighbors(found, np.stack([i for i, _ in loops]), np.stack([d for _, d in loops]))


def test_batched_nearest_matches_brute_force_with_ties():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    centers = np.vstack([AXIS_POINTS, normalize(np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0]]))])
    for m in range(1, 7):
        assert_same_neighbors(ix.nearest_m(centers, m), *brute_force_nearest_batch(AXIS_POINTS, centers, m))
    # The four equatorial points tie at pi/2 from the north pole.
    assert ix.nearest_m(centers[4], 5).ids.tolist() == [4, 0, 1, 2, 3]


def test_batched_nearest_at_poles_and_strip_boundaries():
    pts = rand_points(500, 22)
    delta = compute_delta(500, 15, 1)
    ix = build_zones(pts, delta)
    theta = np.append(np.arange(ix.zone_count) * delta, np.pi)
    phi = np.random.default_rng(23).uniform(0.0, 2.0 * np.pi, theta.size)
    centers = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )
    assert centers[0].tolist() == [0.0, 0.0, 1.0] and centers[-1][2] == -1.0
    assert_same_neighbors(
        ix.nearest_m(centers, 15, n_formula=500), *brute_force_nearest_batch(pts, centers, 15)
    )


def test_batched_nearest_escalates_past_k2_on_clustered_nodes():
    rng = np.random.default_rng(24)
    pts = normalize(np.array([0.0, 0.0, 1.0]) + 0.05 * rng.normal(size=(300, 3)))
    centers = np.vstack([pts[:20], rand_points(30, 25), [[0.0, 0.0, -1.0]]])
    ix = build_zones(pts, compute_delta(300, 10, 1))
    # The k=2 cap around the south pole is empty, so that query needs k >= 3.
    assert len(ix.query_cap(centers[-1], compute_delta(300, 10, 2))) == 0
    assert_same_neighbors(ix.nearest_m(centers, 10), *brute_force_nearest_batch(pts, centers, 10))


def test_batched_nearest_with_zero_queries():
    ix = build_zones(rand_points(50, 26), 0.5)
    found = ix.nearest_m(np.empty((0, 3)), 5)
    assert found.ids.shape == found.distances.shape == (0, 5)
    assert len(found) == 0


def test_batched_nearest_matches_kd_tree_at_scale():
    spatial = pytest.importorskip("scipy.spatial")
    nodes = rand_points(16000, 27)
    ix = build_zones(nodes, compute_delta(16000, 15, 1))
    for centers, m in ((nodes, 15), (rand_points(2000, 28), 10)):
        found = ix.nearest_m(centers, m, n_formula=16000)
        # Chord order is geodesic order, so the tree finds the same sets.
        _, want = spatial.cKDTree(nodes).query(centers, k=m)
        assert np.array_equal(np.sort(found.ids, axis=1), np.sort(want, axis=1))
        assert np.array_equal(found.distances, geodesic_distance(nodes[found.ids], centers[:, None]))
