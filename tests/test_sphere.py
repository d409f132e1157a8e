import numpy as np
import pytest

from sphshepard import build_zones, geodesic_distance, normalize

NORTH = np.array([0.0, 0.0, 1.0])


def test_normalize_scales_axis_vector():
    assert np.allclose(normalize([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0], atol=0)


def test_normalize_identity_on_unit_input():
    assert np.allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)


def test_normalize_345_triangle():
    assert np.allclose(normalize([3.0, 4.0, 0.0]), [0.6, 0.8, 0.0])


def test_normalize_rejects_vectors_of_another_length():
    with pytest.raises(ValueError, match="expected 3-vectors"):
        normalize([1.0, 2.0])


def linalg_normalized(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def gaussian_rows(*shape):
    return np.random.default_rng(sum(shape)).standard_normal((*shape, 3))


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize(np.array([[1.0, 0, 0], [0, 0, 0]]))
    tiny = gaussian_rows(500) * 1e-200  # every square underflows to 0, as in np.linalg.norm
    assert not np.linalg.norm(tiny, axis=-1).any()
    with pytest.raises(ValueError, match="zero vector"):
        normalize(tiny)


@pytest.mark.parametrize("v", [
    gaussian_rows(), gaussian_rows(1000), gaussian_rows(7, 11), gaussian_rows(300, 4)[::3, 1],
], ids=["(3,)", "(n, 3)", "(a, b, 3)", "strided"])
def test_normalize_equals_dividing_by_linalg_norm_bit_for_bit(v):
    assert normalize(v).tobytes() == linalg_normalized(v).tobytes()


@pytest.mark.parametrize("scale", [1e-160, 1e150, 1e200])
def test_normalize_matches_linalg_norm_where_squares_lose_range(scale):
    # 1e-160: squares are subnormal; 1e150: their sum is near the top of the
    # range; 1e200: they overflow to inf, so every coordinate becomes 0.
    v = gaussian_rows(500) * scale
    with np.errstate(over="ignore"):
        got, want = normalize(v), linalg_normalized(v)
    assert got.tobytes() == want.tobytes()
    if scale == 1e200:
        assert not got.any()


def test_normalize_batch_unit_norm():
    rng = np.random.default_rng(1)
    v = normalize(rng.normal(size=(200, 3)))
    assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) <= 1e-12


def test_geodesic_coincident_points():
    assert geodesic_distance([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]) == 0.0


def test_geodesic_antipodal():
    assert geodesic_distance([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == pytest.approx(np.pi)


def test_geodesic_orthogonal_axes():
    assert geodesic_distance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(np.pi / 2)


def test_geodesic_clamping_absorbs_rounding():
    rng = np.random.default_rng(2)
    u = normalize(rng.normal(size=(500, 3)))
    d = geodesic_distance(u, u)
    assert np.all(np.isfinite(d))
    assert np.all(d >= 0.0)


def test_geodesic_symmetry_and_range():
    rng = np.random.default_rng(3)
    u = normalize(rng.normal(size=(300, 3)))
    v = normalize(rng.normal(size=(300, 3)))
    duv = geodesic_distance(u, v)
    dvu = geodesic_distance(v, u)
    assert np.array_equal(duv, dvu)
    assert np.all((0.0 <= duv) & (duv <= np.pi))


def test_geodesic_triangle_inequality():
    rng = np.random.default_rng(4)
    u, v, w = (normalize(rng.normal(size=(500, 3))) for _ in range(3))
    lhs = geodesic_distance(u, w)
    rhs = geodesic_distance(u, v) + geodesic_distance(v, w)
    assert np.all(lhs <= rhs + 1e-10)


def test_geodesic_zero_iff_equal():
    rng = np.random.default_rng(5)
    u = normalize(rng.normal(size=(200, 3)))
    # arccos resolves coincident unit vectors only to ~sqrt(eps)
    assert np.all(geodesic_distance(u, u) <= 1e-7)
    shifted = normalize(u + 1e-3)
    assert np.all(geodesic_distance(u, shifted) > 0.0)


def cap_ids(points, center, radius):
    """Ids of `points` in the cap, from the zone index's cap query."""
    return build_zones(points, 0.5).query_cap(center, radius).ids


def test_cap_whole_sphere_contains_everything():
    rng = np.random.default_rng(6)
    pts = normalize(rng.normal(size=(100, 3)))
    assert np.all(geodesic_distance(NORTH, pts) <= np.pi)
    assert sorted(cap_ids(pts, NORTH, np.pi).tolist()) == list(range(100))


def test_cap_contains_center():
    assert cap_ids(NORTH[None], NORTH, 0.1).tolist() == [0]


def test_cap_excludes_distant_point():
    pts = np.array([[1.0, 0.0, 0.0], NORTH])
    assert cap_ids(pts, NORTH, 0.1).tolist() == [1]
