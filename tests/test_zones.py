import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def strip_ids(ix, k):
    """Point indices of strip k (1-based), by longitude: the first copy of its ring."""
    off, i = ix.zone_offsets, ix.zone_count - k
    return ix.ring_ids[2 * off[i] : off[i] + off[i + 1]]


def brute_force_cap(points, center, radius):
    d = geodesic_distance(points, center)
    return set(np.nonzero(d <= radius)[0].tolist())


def brute_force_nearest(points, center, m):
    d = geodesic_distance(points, center)
    order = np.lexsort((np.arange(points.shape[0]), d))
    return order[:m]


# ------------------------------------------------------------------ deltas


def test_index_keeps_its_own_read_only_copy_of_the_points():
    p = rand_points(2000, 50)
    ix = build_zones(p, compute_delta(2000, 10))
    centers = rand_points(50, 51)
    before = ix.nearest_m(centers, 10).ids.copy()
    p[:] = p[::-1].copy()
    assert np.array_equal(ix.nearest_m(centers, 10).ids, before)
    for arr in (ix.points, ix.zone_offsets, ix.ring_keys, ix.ring_ids):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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
    assert set(strip_ids(ix, 1).tolist()) == set(range(6))


def test_axis_points_strip_placement():
    # Hand placement: colatitude 0 -> strip 1, pi/2 (a strip boundary) falls
    # into strip 3 under the half-open convention, pi -> final strip.
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    assert ix.zone_count == 4
    assert set(strip_ids(ix, 1).tolist()) == {4}
    assert set(strip_ids(ix, 2).tolist()) == set()
    assert set(strip_ids(ix, 3).tolist()) == {0, 1, 2, 3}
    assert set(strip_ids(ix, 4).tolist()) == {5}


def test_strip_count_formula():
    ix = build_zones(rand_points(1000, 0), compute_delta(1000, 15, 1))
    assert ix.zone_count == math.ceil(math.pi / compute_delta(1000, 15, 1)) == 13


def test_zone_invariants_random():
    pts = rand_points(400, 1)
    delta = 0.37
    ix = build_zones(pts, delta)
    assert np.all(np.diff(ix.zone_offsets) >= 0)
    assert ix.zone_offsets[0] == 0 and ix.zone_offsets[-1] == 400
    # strip contents against the colatitude definition
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    want_strip = np.minimum((theta // delta).astype(int) + 1, ix.zone_count)
    seen = set()
    for k in range(1, ix.zone_count + 1):
        members = strip_ids(ix, k)
        assert set(members.tolist()) == set(np.nonzero(want_strip == k)[0].tolist())
        # each strip run sorted by longitude
        run = ix.points[members]
        assert np.all(np.diff(np.arctan2(run[:, 1], run[:, 0])) >= 0.0)
        seen.update(members.tolist())
    assert seen == set(range(400))


@pytest.mark.parametrize("delta", [0.0, -0.1, np.pi + 1e-9, np.nan])
def test_build_zones_rejects_delta_out_of_range(delta):
    with pytest.raises(ValueError, match="delta must be in"):
        build_zones(AXIS_POINTS, delta)


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
        found = ix.nearest_m(center, 15)
        assert np.array_equal(found.ids, brute_force_nearest(pts, center, 15))


def count_fill_calls(monkeypatch):
    """Record the number of centers of every `_fill_nearest` call, in call order."""
    calls = []
    fill = zones.ZoneIndex._fill_nearest

    def spy(self, centers, pending, *args):
        calls.append(pending.size)
        return fill(self, centers, pending, *args)

    monkeypatch.setattr(zones.ZoneIndex, "_fill_nearest", spy)
    return calls


def test_nearest_escalates_on_clustered_points(monkeypatch):
    # All points inside a tiny cap around +z, query from -z: the first radii
    # find nothing and the escalation must keep growing the cap, to about pi,
    # in a few rounds.
    rng = np.random.default_rng(6)
    pts = normalize(np.array([0.0, 0.0, 1.0]) + 0.01 * rng.normal(size=(40, 3)))
    ix = build_zones(pts, compute_delta(40, 5, 1))
    calls = count_fill_calls(monkeypatch)
    found = ix.nearest_m(np.array([0.0, 0.0, -1.0]), 5)
    assert 1 < len(calls) <= 5
    assert np.array_equal(found.ids, brute_force_nearest(pts, np.array([0.0, 0.0, -1.0]), 5))


def test_nearest_rejects_m_larger_than_point_count():
    with pytest.raises(ValueError):
        build_zones(AXIS_POINTS, np.pi / 4).nearest_m([0.0, 0.0, 1.0], 7)


def test_nearest_names_a_nan_center():
    ix = build_zones(rand_points(200, 29), compute_delta(200, 15, 1))
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]])
    with pytest.raises(DataError, match="center 2 has fewer than 5 points .* not finite"):
        ix.nearest_m(centers, 5)


def test_nearest_names_a_center_with_nan_z():
    ix = build_zones(rand_points(200, 32), compute_delta(200, 15, 1))
    with pytest.raises(DataError, match="center 0 has fewer than 5 points"):
        ix.nearest_m([0.0, 0.0, np.nan], 5)


def test_nan_centers_in_two_chunks_name_the_lowest_of_the_batch(monkeypatch):
    # Every chunk of a round is searched before the error, so it names the
    # lowest failing center of the batch, not of the first chunk that fails.
    monkeypatch.setattr(zones, "SEARCH_CHUNK", 3)
    ix = build_zones(rand_points(200, 35), compute_delta(200, 15, 1))
    centers = normalize(np.column_stack([rand_points(7, 36)[:, :2], np.linspace(-0.5, 0.5, 7)]))
    centers[1] = [np.nan, 0.0, 0.9]   # last in z order, so in the last chunk
    centers[5] = [np.nan, 0.0, -0.9]  # first in z order, so in the first chunk
    chunk_of = np.argsort(np.argsort(centers[:, 2], kind="stable")) // 3
    assert chunk_of[5] == 0 and chunk_of[1] == 2
    with pytest.raises(DataError, match="center 1 has fewer than 5 points"):
        ix.nearest_m(centers, 5)


def test_batch_search_takes_few_rounds(monkeypatch):
    nodes = rand_points(16000, 37)
    centers = rand_points(1000, 38)
    ix = build_zones(nodes, compute_delta(16000, 15, 1))
    calls = count_fill_calls(monkeypatch)
    found = ix.nearest_m(centers, 10)
    # One call per chunk in the first round; the few centers left over from
    # every chunk are then searched together, at a radius growing fast.
    first = math.ceil(1000 / zones.SEARCH_CHUNK)
    assert sum(calls[:first]) == 1000 and len(calls) <= first + 4
    ids, dists = brute_force_nearest_batch(nodes, centers[::20], 10)
    assert np.array_equal(found.ids[::20], ids) and np.array_equal(found.distances[::20], dists)


@pytest.mark.parametrize("row", [[np.nan, 0.0, 0.5], [0.6, 0.0, np.nan], [np.inf, 0.0, 0.0],
                                 [0.0, -np.inf, 0.0]], ids=["nan-x", "nan-z", "inf", "minus-inf"])
def test_build_rejects_a_non_finite_point(row):
    # Such a point has no strip or no longitude; the message names the first.
    nodes = rand_points(200, 30)
    nodes[7] = nodes[9] = row
    with pytest.raises(DataError, match=r"^point 7 is not finite$"):
        build_zones(nodes, compute_delta(200, 15, 1))


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


def per_point_nearest(ix, center, m):
    """The escalating search one center at a time, through query_cap: the oracle."""
    k = 1
    while True:
        found = ix.query_cap(center, compute_delta(ix.points.shape[0], m, k))
        if len(found) >= m:
            return found.ids[:m], found.distances[:m]
        k += 1


def brute_force_nearest_batch(points, centers, m):
    """(ids, distances) of the m nearest by a full (distance, id) sort."""
    d = geodesic_distance(points[None, :, :], centers[:, None, :])
    ids = np.broadcast_to(np.arange(points.shape[0]), d.shape)
    order = np.lexsort((ids, d), axis=-1)[:, :m]
    return order, np.take_along_axis(d, order, axis=1)


def brute_force_cap_sorted(points, center, radius):
    """(ids, distances) of the points within radius, by a full (distance, id) sort."""
    d = geodesic_distance(points, center)
    ids = np.flatnonzero(d <= radius)
    ids = ids[np.lexsort((ids, d[ids]))]
    return ids, d[ids]


def assert_same_neighbors(found, ids, dists):
    assert np.array_equal(found.ids, ids)
    assert np.array_equal(found.distances, dists)


@pytest.mark.parametrize("chunk", [zones.SEARCH_CHUNK, 7])
def test_batched_nearest_equals_stacked_single_queries(monkeypatch, chunk):
    monkeypatch.setattr(zones, "SEARCH_CHUNK", chunk)
    pts = rand_points(500, 20)
    ix = build_zones(pts, compute_delta(500, 15, 1))
    centers = np.vstack([pts[:100], rand_points(100, 21)])
    for m in (1, 10, 15):
        found = ix.nearest_m(centers, m)
        assert found.ids.shape == found.distances.shape == (200, m)
        singles = [ix.nearest_m(c, m) for c in centers]
        assert_same_neighbors(
            found, np.stack([s.ids for s in singles]), np.stack([s.distances for s in singles])
        )
        loops = [per_point_nearest(ix, c, m) for c in centers]
        assert_same_neighbors(found, np.stack([i for i, _ in loops]), np.stack([d for _, d in loops]))


def test_batched_nearest_matches_brute_force_with_ties():
    ix = build_zones(AXIS_POINTS, np.pi / 4)
    centers = np.vstack([AXIS_POINTS, normalize(np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0]]))])
    for m in range(1, 7):
        assert_same_neighbors(ix.nearest_m(centers, m), *brute_force_nearest_batch(AXIS_POINTS, centers, m))
    # The four equatorial points tie at pi/2 from the north pole.
    assert ix.nearest_m(centers[4], 5).ids.tolist() == [4, 0, 1, 2, 3]


def test_equidistant_points_across_the_mth_place_take_the_id_order(monkeypatch):
    # Eight points on one circle of latitude are exactly equidistant from the
    # north pole (its dot product with each is z), and two nearer points put
    # that tie across the 5th place.  Ids run against longitude, which is
    # the candidates' window order, so a sort by distance alone would not
    # give the (distance, id) order.
    lon = np.random.default_rng(40).permutation(8) * (np.pi / 4)
    ring = np.stack([0.6 * np.cos(lon), 0.6 * np.sin(lon), np.full(8, 0.8)], axis=1)
    near = normalize(np.array([[0.1, 0.0, 1.0], [0.0, -0.2, 1.0]]))
    far = rand_points(300, 41)
    pts = np.vstack([far[far[:, 2] < 0.5], ring, near])
    centers = np.vstack([rand_points(40, 42), [[0.0, 0.0, 1.0]], rand_points(40, 43)])
    ix = build_zones(pts, compute_delta(pts.shape[0], 5, 1))
    want = brute_force_nearest_batch(pts, centers, 5)
    assert np.diff(want[1][40]).tolist().count(0.0) == 2  # places 3..5 tie

    sorted_rows = []
    lexsort = np.lexsort

    def spy(keys, axis=-1):
        sorted_rows.append(np.shape(keys[0])[0])
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", spy)
    found = ix.nearest_m(centers, 5)
    monkeypatch.undo()
    assert sorted_rows == [1]  # the (distance, id) sort ran on the pole's row alone
    assert_same_neighbors(found, *want)


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
        ix.nearest_m(centers, 15), *brute_force_nearest_batch(pts, centers, 15)
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
        found = ix.nearest_m(centers, m)
        # Chord order is geodesic order, so the tree finds the same sets.
        _, want = spatial.cKDTree(nodes).query(centers, k=m)
        assert np.array_equal(np.sort(found.ids, axis=1), np.sort(want, axis=1))
        assert np.array_equal(found.distances, geodesic_distance(nodes[found.ids], centers[:, None]))



def on_sphere(theta, lam):
    """Unit vectors at colatitude theta and longitude lam."""
    theta, lam = np.asarray(theta, dtype=float), np.asarray(lam, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(lam), st * np.sin(lam), ct), axis=-1)


def test_points_on_the_longitude_bound_are_found():
    # A cap of radius r around colatitude theta reaches longitude offsets up
    # to asin(sin r / sin theta), at its two tangent points; put points just
    # inside the cap there, also where the window wraps past the seam.
    r = 0.2
    rho = r * (1.0 - 1e-9)
    pts = rand_points(200, 34)
    for theta in (0.25, 0.9, np.pi / 2, 2.5, np.pi - 0.21):
        theta_t = np.arccos(np.cos(theta) / np.cos(rho))
        dlam = np.arcsin(np.sin(rho) / np.sin(theta)) * np.array([1.0, -1.0])
        for lam in (0.0, 0.3, np.pi - 0.05, np.pi, -np.pi + 0.01, -2.0):
            center = on_sphere(theta, lam)
            tangent = on_sphere(theta_t, lam + dlam)
            assert np.all(geodesic_distance(tangent, center) <= r)
            both = np.vstack([tangent, pts])
            found = build_zones(both, compute_delta(200, 15, 1)).query_cap(center, r)
            assert {0, 1} <= set(found.ids.tolist())
            assert_same_neighbors(found, *brute_force_cap_sorted(both, center, r))


# ------------------------------------------------------------------ properties


@st.composite
def search_cases(draw):
    """A point set with its strip width, centers and m.

    Besides random points the set holds points exactly on strip boundaries,
    the poles, points on the seam with y = +0 and y = -0 (x < 0, where
    arctan2 gives +pi and -pi), points sharing a longitude, and exact copies.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from([0.09, 0.2, 0.37, np.pi / 4, 1.0, np.pi]))
    q = math.ceil(np.pi / delta)
    parts = [rand_points(draw(st.integers(0, 60)), int(rng.integers(1 << 30)))]
    k = np.array(draw(st.lists(st.integers(0, q), max_size=8)), dtype=float)
    parts.append(on_sphere(np.minimum(k * delta, np.pi), rng.uniform(-np.pi, np.pi, k.size)))
    if draw(st.booleans()):
        parts.append(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    for sign_y in draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=4)):
        t = rng.uniform(0.0, np.pi)
        parts.append(np.array([[-np.sin(t), sign_y, np.cos(t)]]))
    lams = draw(st.lists(st.sampled_from([0.0, 1.0, np.pi / 2, np.pi, -np.pi, -2.0]), max_size=3))
    for lam in lams:
        parts.append(on_sphere(rng.uniform(0.0, np.pi, 4), np.full(4, lam)))
    pts = np.vstack(parts)
    if pts.shape[0] and draw(st.booleans()):
        pts = np.vstack([pts, pts[rng.integers(pts.shape[0], size=3)]])
    if pts.shape[0] == 0:
        pts = np.array([[-1.0, 0.0, 0.0]])
    n = pts.shape[0]
    centers = np.vstack([
        rand_points(draw(st.integers(0, 10)), int(rng.integers(1 << 30))),
        pts[rng.integers(n, size=draw(st.integers(0, 10)))],
        on_sphere(rng.uniform(0.0, np.pi, 4), [np.pi, -np.pi, np.pi - 1e-9, 0.0]),
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]],
    ])
    m = draw(st.integers(1, min(n, 12)))
    chunk = draw(st.sampled_from([zones.SEARCH_CHUNK, 3]))
    return pts, delta, centers, m, chunk


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(search_cases())
def test_batched_nearest_equals_brute_force_and_single_queries(case):
    pts, delta, centers, m, chunk = case
    ix = build_zones(pts, delta)
    with mock.patch.object(zones, "SEARCH_CHUNK", chunk):
        found = ix.nearest_m(centers, m)
    assert_same_neighbors(found, *brute_force_nearest_batch(pts, centers, m))
    for c, ids, dists in zip(centers[::5], found.ids[::5], found.distances[::5]):
        single = ix.nearest_m(c, m)
        assert np.array_equal(single.ids, ids) and np.array_equal(single.distances, dists)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(search_cases(), st.floats(1e-3, np.pi))
def test_query_cap_equals_brute_force(case, radius):
    pts, delta, centers, _, _ = case
    ix = build_zones(pts, delta)
    for c in centers[::3]:
        assert_same_neighbors(ix.query_cap(c, radius), *brute_force_cap_sorted(pts, c, radius))


# Maps of the sphere onto itself under which geodesic_distance's dot product
# x1*x2 + y1*y2 + z1*z2 is bit-for-bit unchanged: they permute its first two
# terms (addition commutes exactly) or negate both factors of one term.
SYMMETRIES = {
    "quarter turn about z": lambda p: np.stack([-p[:, 1], p[:, 0], p[:, 2]], axis=1),
    "reflection in the equator": lambda p: p * [1.0, 1.0, -1.0],
    "swap of x and y": lambda p: p[:, [1, 0, 2]],
}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(search_cases())
def test_nearest_is_unchanged_under_exact_symmetries(case):
    pts, delta, centers, m, _ = case
    found = build_zones(pts, delta).nearest_m(centers, m)
    for name, move in SYMMETRIES.items():
        moved = build_zones(move(pts), delta).nearest_m(move(centers), m)
        assert np.array_equal(moved.ids, found.ids), name
        assert np.array_equal(moved.distances, found.distances), name
