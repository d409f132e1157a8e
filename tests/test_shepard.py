import numpy as np
import pytest

from sphshepard import (
    ConfigError,
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


def test_fit_needs_enough_nodes():
    with pytest.raises(ConfigError):
        fit(rand_points(10, 0), np.zeros(10), ShepardConfig(n_z=15))


# ------------------------------------------------------------------ fit


def test_every_local_is_centered_on_its_node():
    model, nodes, _ = make_model(n=120, seed=1)
    assert np.array_equal(model.neighbor_ids[:, 0], np.arange(120))
    assert np.array_equal(model.centers[:, 0], nodes)


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
        assert local.used_fallback == model.used_fallback[j]


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
        found = index.nearest_m(x, 10, n_formula=200)
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


def test_evaluate_is_deterministic():
    model, nodes, _ = make_model(n=150, seed=19)
    pts = spiral_points(50).points
    assert np.array_equal(evaluate(model, pts), evaluate(model, pts))
