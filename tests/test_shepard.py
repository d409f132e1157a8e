import numpy as np
import pytest

from sphshepard import (
    ConfigError,
    DataError,
    InverseMultiquadric,
    ShepardConfig,
    evaluate,
    fit,
    geodesic_distance,
    normalize,
    rrmse,
    sh_basis,
    sh_dim,
    spiral_points,
    weights,
)
from sphshepard import shepard
from sphshepard.localfit import PATH_LSTSQ, PATH_MISSED


def rand_points(n, seed):
    return normalize(np.random.default_rng(seed).normal(size=(n, 3)))


def make_model(n=300, seed=0, degree=1, values=None, nodes=None, **kw):
    nodes = rand_points(n, seed) if nodes is None else nodes
    if values is None:
        values = np.exp(nodes[:, 0]) + nodes[:, 1] * nodes[:, 2]
    config = ShepardConfig(degree=degree, **kw)
    return fit(nodes, values, config), nodes, values


# ------------------------------------------------------------------ config


def test_config_validates_neighborhood_sizes():
    with pytest.raises(ConfigError):
        ShepardConfig(n_z=0)
    with pytest.raises(ConfigError):
        ShepardConfig(n_w=0)
    with pytest.raises(ConfigError):
        ShepardConfig(n_z=8, degree=2)  # 8 < (2+1)^2
    with pytest.raises(ConfigError, match="degree"):
        ShepardConfig(n_z=20, degree=3)  # above harmonics.MAX_DEGREE
    with pytest.raises(ConfigError, match="degree"):
        ShepardConfig(degree=-2)
    for rtol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="rtol"):
            ShepardConfig(rtol=rtol)


def test_fit_needs_enough_nodes():
    with pytest.raises(ConfigError):
        fit(rand_points(10, 0), np.zeros(10), ShepardConfig(n_z=15))


def test_fit_rejects_non_finite_node():
    nodes = rand_points(50, 0)
    nodes[7, 1] = np.nan
    with pytest.raises(DataError, match="node 7"):
        fit(nodes, np.zeros(50), ShepardConfig())


def test_fit_rejects_non_finite_value():
    values = np.zeros(50)
    values[3] = np.inf
    with pytest.raises(DataError, match="node 3"):
        fit(rand_points(50, 0), values, ShepardConfig())


def test_length_mismatch_rejected():
    with pytest.raises(DataError, match="50 nodes but 49 values"):
        fit(rand_points(50, 0), np.zeros(49), ShepardConfig())


def test_fit_names_a_duplicate_node():
    nodes = rand_points(1000, 40)
    nodes[6] = nodes[5]
    values = np.exp(nodes[:, 2])
    with pytest.raises(DataError, match="nodes 5 and 6 have equal coordinates"):
        fit(nodes, values, ShepardConfig(degree=2))
    values[6] = values[5] + 1.0  # conflicting data: also a DataError, not a SolveError
    with pytest.raises(DataError, match="nodes 5 and 6"):
        fit(nodes, values, ShepardConfig(degree=2))


def test_fit_names_a_duplicate_that_precedes_its_node():
    nodes = rand_points(1000, 41)
    nodes[40] = nodes[987]
    # In node 987's row the copy comes first (equal distance, lower id), and
    # the self distance reads 2.1e-8, not 0: only the coordinates can tell.
    row = shepard.build_zones(nodes, np.pi / 8).nearest_m(nodes[987], 15)
    assert row.ids[:2].tolist() == [40, 987]
    assert row.distances[0] == row.distances[1] > 0.0
    with pytest.raises(DataError, match="nodes 40 and 987 have equal coordinates"):
        fit(nodes, np.zeros(1000), ShepardConfig())


def off_sphere(points):
    """Copies of `points` whose row 5 is scaled by 3, by 1 + 1e-10 and by
    1e200 (its squared length overflows), or zeroed."""
    copies = [points.copy() for _ in range(4)]
    for bad, scale in zip(copies, (3.0, 1.0 + 1e-10, 1e200, 0.0)):
        bad[5] *= scale
    return copies


def test_fit_rejects_points_off_the_unit_sphere():
    nodes = rand_points(50, 0)
    for bad in off_sphere(nodes):
        with pytest.raises(DataError, match="node 5 has length"):
            fit(bad, np.zeros(50), ShepardConfig())
    with pytest.raises(DataError, match=r"shape \(3,\) or \(p, 3\)"):
        fit(nodes[:, :2], np.zeros(50), ShepardConfig())


# ------------------------------------------------------------------ fit


def test_every_local_is_centered_on_its_node():
    model, nodes, _ = make_model(n=120, seed=1)
    assert np.array_equal(model.neighbor_ids[:, 0], np.arange(120))
    assert np.array_equal(nodes[model.neighbor_ids[:, 0]], nodes)


def test_constant_data_reproduced_by_every_local():
    model, nodes, _ = make_model(n=100, seed=2, degree=0, values=np.full(100, 3.25))
    pts = rand_points(30, 3)
    for j in range(0, 100, 7):
        got = model.local_fit(j)(pts)
        assert np.max(np.abs(got - 3.25)) <= 1e-10


def test_single_patch_when_n_equals_nz():
    nodes = rand_points(15, 4)
    values = nodes[:, 0] ** 2
    model = fit(nodes, values, ShepardConfig(n_z=15, degree=1))
    # every neighborhood is the whole node set, so every local interpolates all data
    for j in range(15):
        got = model.local_fit(j)(nodes)
        assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


def test_solve_path_codes_and_fallback_view():
    model, _, _ = make_model(n=400, seed=4, degree=-1, kernel=InverseMultiquadric(0.05),
                             strict=False)
    assert model.solve_path.dtype == np.uint8
    assert model.solve_path.max() <= PATH_MISSED
    assert np.array_equal(model.used_fallback, model.solve_path >= PATH_LSTSQ)
    for j in range(0, 400, 37):
        local = model.local_fit(j)
        assert local.solve_path == model.solve_path[j]
        assert (local.solve_path >= PATH_LSTSQ) == model.used_fallback[j]


def test_fit_is_deterministic():
    m1, _, _ = make_model(n=150, seed=5)
    m2, _, _ = make_model(n=150, seed=5)
    assert np.array_equal(m1.coeff_a, m2.coeff_a)
    assert np.array_equal(m1.coeff_b, m2.coeff_b)


# ------------------------------------------------------------------ weights


def test_single_neighbor_weight_is_one():
    model, nodes, _ = make_model(n=50, seed=6)
    w = weights(np.array([0.0, 0.0, 1.0]), model, np.array([3]), np.array([0.4]))
    assert w.tolist() == [1.0]


def test_equal_distances_split_evenly():
    model, nodes, _ = make_model(n=50, seed=7)
    w = weights(np.array([0.0, 0.0, 1.0]), model, np.array([1, 2]), np.array([0.3, 0.3]))
    assert w == pytest.approx([0.5, 0.5], abs=1e-15)


def test_coincident_point_takes_full_weight():
    model, nodes, _ = make_model(n=50, seed=8)
    x = nodes[17]
    d = geodesic_distance(nodes[[17, 3, 9]], x)
    w = weights(x, model, np.array([17, 3, 9]), d)
    assert w.tolist() == [1.0, 0.0, 0.0]


def test_empty_neighbor_set_signals():
    model, nodes, _ = make_model(n=50, seed=9)
    with pytest.raises(ValueError):
        weights(np.array([0.0, 0.0, 1.0]), model, np.array([], dtype=int), np.array([]))


def test_partition_of_unity():
    model, nodes, _ = make_model(n=200, seed=10)
    rng = np.random.default_rng(11)
    from sphshepard.zones import build_zones, compute_delta

    index = build_zones(nodes, compute_delta(200, 10, 1))
    for _ in range(100):
        x = normalize(rng.normal(size=3))
        found = index.nearest_m(x, 10)
        w = weights(x, model, found.ids, found.distances)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


# ------------------------------------------------------------------ evaluate


def test_interpolates_at_the_nodes():
    model, nodes, values = make_model(n=250, seed=12, degree=2)
    got = evaluate(model, nodes)
    assert np.max(np.abs(got - values)) <= 1e-7 * (1.0 + np.abs(values).max())


def test_constant_field_reproduced_everywhere():
    model, _, _ = make_model(n=120, seed=13, degree=0, values=np.full(120, -2.5))
    got = evaluate(model, spiral_points(80).points)
    assert np.max(np.abs(got + 2.5)) <= 1e-10


def test_blend_reproduces_degree_one_harmonic():
    nodes = rand_points(1000, 14)
    model = fit(nodes, nodes[:, 2], ShepardConfig(degree=1))
    pts = spiral_points(600).points
    assert rrmse(evaluate(model, pts), pts[:, 2]) <= 1e-7


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_blend_reproduces_random_harmonics(degree):
    rng = np.random.default_rng(40 + degree)
    coeffs = rng.normal(size=sh_dim(degree))
    g = lambda p: sh_basis(p, degree) @ coeffs
    nodes = rand_points(400, 15 + degree)
    model = fit(nodes, g(nodes), ShepardConfig(degree=degree))
    pts = rand_points(200, 16)
    expect = g(pts)
    assert np.max(np.abs(evaluate(model, pts) - expect) / (1.0 + np.abs(expect))) <= 1e-7


def test_locality_of_the_blend():
    nodes = rand_points(500, 17)
    values = np.sin(2.0 * nodes[:, 0])
    x = normalize(np.array([0.0, 0.0, 1.0]))
    # perturb the datum farthest from x; the fit and weight neighborhoods
    # around x cannot see it
    far = int(np.argmax(geodesic_distance(nodes, x)))
    values2 = values.copy()
    values2[far] += 100.0
    cfg = ShepardConfig(degree=1)
    f1 = evaluate(fit(nodes, values, cfg), x[None])[0]
    f2 = evaluate(fit(nodes, values2, cfg), x[None])[0]
    assert abs(f1 - f2) <= 1e-12


def test_more_weight_neighbors_than_nodes_is_clamped():
    nodes = rand_points(15, 18)
    values = nodes[:, 0]
    model = fit(nodes, values, ShepardConfig(n_z=15, n_w=40, degree=0))
    got = evaluate(model, spiral_points(20).points)
    assert np.all(np.isfinite(got))


def test_evaluate_reuses_the_fitted_index(monkeypatch):
    model, _, _ = make_model(n=100, seed=25)
    assert model.index.points.shape == (100, 3)

    def no_build(*args):
        raise AssertionError("evaluate built a zone index")

    monkeypatch.setattr(shepard, "build_zones", no_build)
    assert np.all(np.isfinite(evaluate(model, rand_points(5, 26))))


def test_evaluate_rejects_non_finite_point():
    model, _, _ = make_model(n=50, seed=20)
    pts = rand_points(4, 21)
    pts[2, 0] = np.inf
    with pytest.raises(DataError, match="point 2"):
        evaluate(model, pts)


def test_evaluate_rejects_points_off_the_unit_sphere():
    model, _, _ = make_model(n=50, seed=20)
    pts = rand_points(8, 21)
    for bad in off_sphere(pts):
        with pytest.raises(DataError, match="point 5 has length"):
            evaluate(model, bad)
    with pytest.raises(DataError, match="point 0 has length"):
        evaluate(model, np.array([2.0, 0.0, 0.0]))
    # (30, 2) would reshape to 20 points of 3 coordinates.
    with pytest.raises(DataError, match=r"shape \(3,\) or \(p, 3\)"):
        evaluate(model, rand_points(30, 22)[:, :2])
    with pytest.raises(DataError, match=r"shape \(3,\) or \(p, 3\)"):
        evaluate(model, pts[None])


def reference_blend(model, points, gamma, degree, n_w=10):
    """The blend one point at a time from brute-force neighbours and the
    kernel's chord form; returns (values, sum of term magnitudes)."""
    nodes = model.nodes
    values, scale = [], []
    for x in points:
        chord = np.linalg.norm(nodes - x, axis=1)
        near = np.lexsort((np.arange(len(nodes)), chord))[:n_w]
        g = 2.0 * np.arcsin(np.minimum(0.5 * chord[near], 1.0))
        if g[0] <= 1e-12:
            w = (np.arange(n_w) == 0).astype(float)
        else:
            w = (1.0 / g) / np.sum(1.0 / g)
        rel = nodes[model.neighbor_ids[near]] - x
        # 1 + gamma^2 - 2 gamma cos t == (1 - gamma)^2 + gamma |x - y|^2
        psi = ((1.0 - gamma) ** 2 + gamma * np.sum(rel * rel, axis=-1)) ** -0.5
        terms = np.hstack([model.coeff_a[near] * psi, model.coeff_b[near] * sh_basis(x, degree)])
        local = terms.sum(axis=1)
        values.append(w @ local)
        scale.append(w @ np.abs(terms).sum(axis=1) + abs(w @ local))
    return np.array(values), np.array(scale)


@pytest.mark.parametrize("degree", [-1, 2])
def test_batched_evaluate_matches_reference_blend(degree):
    model, nodes, _ = make_model(n=400, seed=22, degree=degree)
    rng = np.random.default_rng(23)
    near_nodes = normalize(nodes[:20] + 1e-9 * rng.normal(size=(20, 3)))
    pts = np.vstack([rand_points(300, 24), nodes[20:40], near_nodes])
    got = evaluate(model, pts)
    want, scale = reference_blend(model, pts, 0.5, degree)
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale)


def test_evaluate_is_deterministic():
    model, nodes, _ = make_model(n=150, seed=19)
    pts = spiral_points(50).points
    assert np.array_equal(evaluate(model, pts), evaluate(model, pts))
