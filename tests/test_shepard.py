import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphshepard import (
    ConfigError,
    DataError,
    InverseMultiquadric,
    ShepardConfig,
    evaluate,
    fit,
    geodesic_distance,
    normalize,
    random_uniform_sphere,
    rrmse,
    sh_basis,
    sh_dim,
    spiral_points,
    weights,
)
from sphshepard import shepard
from sphshepard.localfit import PATH_LSTSQ, PATH_MISSED, RTOL, eval_local
from sphshepard.sphere import unit_lengths


def rand_points(n, seed):
    return normalize(np.random.default_rng(seed).normal(size=(n, 3)))


def local_fit(model, j):
    """Local fit j of `model` as a function of the evaluation points."""
    c, centers = model.config, model.nodes[model.neighbor_ids[j]]
    return lambda x: eval_local(c.kernel, c.degree, centers, model.coeff_a[j], model.coeff_b[j], x)


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


def test_config_rejects_non_integer_sizes_and_degree():
    for kw in ({"n_z": 15.5}, {"n_w": 2.5}, {"degree": 1.5}, {"n_z": "15"}, {"degree": None}):
        with pytest.raises(ConfigError, match="must be an integer"):
            ShepardConfig(**kw)
    assert ShepardConfig(n_z=np.int64(15), n_w=np.int32(10), degree=np.int8(2)).n_z == 15
    for gamma in ("0.5", None, float("nan")):
        with pytest.raises(ConfigError, match="gamma"):
            InverseMultiquadric(gamma)
    with pytest.raises(ConfigError, match="at_cos"):
        ShepardConfig(kernel=0.5)


def test_non_numeric_input_is_a_data_error():
    model, nodes, values = make_model(n=60, seed=7)
    with pytest.raises(DataError, match="nodes are not numbers"):
        fit([["a", "b", "c"]] * 60, values, ShepardConfig())
    with pytest.raises(DataError, match="values are not numbers"):
        fit(nodes, ["x"] * 60, ShepardConfig())
    with pytest.raises(DataError, match="evaluation points are not numbers"):
        evaluate(model, [[1.0, 0.0], [0.0, 1.0, 0.0]])


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


@pytest.mark.parametrize("shape", [(5, 10), (50, 1)])
def test_values_with_more_than_one_axis_rejected(shape):
    with pytest.raises(DataError, match=re.escape(f"50 nodes but 50 values of shape {shape}")):
        fit(rand_points(50, 0), np.zeros(shape), ShepardConfig())


def test_one_node_takes_a_scalar_value():
    model = fit([0.0, 0.0, 1.0], 2.5, ShepardConfig(n_z=1, n_w=1))
    assert evaluate(model, [0.0, 0.0, 1.0]) == pytest.approx([2.5], rel=1e-14)


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


def test_fit_with_one_node_rows_names_a_duplicate_node():
    # A row of one holds only the lower-id copy; the check must still see both.
    nodes = rand_points(50, 42)
    nodes[7] = nodes[3]
    values = np.arange(50) + 0.665
    with pytest.raises(DataError, match="nodes 3 and 7 have equal coordinates"):
        fit(nodes, values, ShepardConfig(n_z=1, n_w=1))


@pytest.mark.parametrize("n_z", [1, 2])
def test_fit_names_a_duplicate_beside_a_node_within_rounding(n_z):
    # Node 52 lies within rounding of the pair 50/51: node 50's self distance
    # reads 1.5e-8 but node 52's distance from it reads 0, so a neighbor row
    # of one or two holds node 52 and only one copy of the pair.
    j = [0.5311368831348725, 0.7971927168145042, 0.2870146052584823]
    k = [0.5311368830533151, 0.7971927168880681, 0.2870146052084818]
    nodes = np.vstack([random_uniform_sphere(50, 3).points, j, j, k])
    with pytest.raises(DataError, match="nodes 50 and 51 have equal coordinates"):
        fit(nodes, np.arange(53.0), ShepardConfig(n_z=n_z, n_w=3, degree=-1))


def test_fit_holds_no_whole_neighborhood_copy():
    # The solve gathers each chunk's neighborhoods from the nodes through the
    # ids; one (n, n_z, 3) copy of them all would take the peak past the bound.
    nodes = random_uniform_sphere(20000, 1).points
    values = np.exp(nodes[:, 2]) + nodes[:, 0]
    config = ShepardConfig(degree=-1, strict=False)  # a dense cloud: some rows miss
    gathered = nodes.shape[0] * config.n_z * nodes.itemsize * 3
    tracemalloc.start()
    try:
        fit(nodes, values, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gathered


def test_fit_with_one_node_rows():
    nodes = rand_points(40, 43)
    values = np.cos(nodes[:, 0])
    model = fit(nodes, values, ShepardConfig(n_z=1))
    assert model.neighbor_ids.tolist() == [[j] for j in range(40)]
    assert np.all(np.abs(evaluate(model, nodes) - values) <= RTOL * np.abs(values))


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
        length = float(unit_lengths(bad)[0][5])  # quoted as a Python float, not a numpy repr
        message = re.escape(f"node 5 has length {length!r}, not 1")
        with pytest.raises(DataError, match=message) as info:
            fit(bad, np.zeros(50), ShepardConfig())
        assert "np.float64" not in str(info.value)
    with pytest.raises(DataError, match=r"shape \(3,\) or \(p, 3\)"):
        fit(nodes[:, :2], np.zeros(50), ShepardConfig())


# ------------------------------------------------------------------ fit


def test_every_local_is_centered_on_its_node():
    model, nodes, _ = make_model(n=120, seed=1)
    assert np.array_equal(model.neighbor_ids[:, 0], np.arange(120))
    assert np.array_equal(nodes[model.neighbor_ids[:, 0]], nodes)


def test_model_keeps_its_own_copy_of_the_callers_arrays():
    model, nodes, values = make_model(n=2000, seed=5, degree=2)
    x = spiral_points(50).points
    before = evaluate(model, x)
    nodes[:] = nodes[::-1].copy()
    values[:] = 0.0
    assert evaluate(model, x).tobytes() == before.tobytes()


def test_model_arrays_are_read_only():
    model, _, _ = make_model(n=100, seed=6)
    index = model.index
    for arr in (model.nodes, model.neighbor_ids, model.coeff_a, model.coeff_b, model.solve_path,
                index.points, index.zone_offsets, index.ring_keys, index.ring_ids):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_constant_data_reproduced_by_every_local():
    model, nodes, _ = make_model(n=100, seed=2, degree=0, values=np.full(100, 3.25))
    pts = rand_points(30, 3)
    for j in range(0, 100, 7):
        got = local_fit(model, j)(pts)
        assert np.max(np.abs(got - 3.25)) <= 1e-10


def test_single_patch_when_n_equals_nz():
    nodes = rand_points(15, 4)
    values = nodes[:, 0] ** 2
    model = fit(nodes, values, ShepardConfig(n_z=15, degree=1))
    # every neighborhood is the whole node set, so every local interpolates all data
    for j in range(15):
        got = local_fit(model, j)(nodes)
        assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


def test_solve_path_codes_and_fallback_view():
    model, _, _ = make_model(n=400, seed=4, degree=-1, kernel=InverseMultiquadric(0.05),
                             strict=False)
    assert model.solve_path.dtype == np.uint8
    assert model.solve_path.max() <= PATH_MISSED
    assert np.array_equal(model.used_fallback, model.solve_path >= PATH_LSTSQ)


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


def test_evaluate_in_many_chunks_equals_one_chunk(monkeypatch):
    model, nodes, _ = make_model(n=300, seed=27)
    pts = np.vstack([rand_points(45, 28), nodes[:5]])  # five points on nodes
    whole = evaluate(model, pts)
    calls = []

    def spy(x, *args):
        calls.append(len(x))
        return weights(x, *args)

    monkeypatch.setattr(shepard, "EVAL_CHUNK", 7)
    monkeypatch.setattr(shepard, "weights", spy)
    assert evaluate(model, pts).tobytes() == whole.tobytes()
    assert calls == [7] * 7 + [1]


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


# ------------------------------------------------------------------ properties


@st.composite
def fitted_models(draw):
    """A model fitted to random smooth data, with its nodes, values and a
    generator for evaluation points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.integers(-1, 2))
    n_z = draw(st.integers(max(sh_dim(degree), 3), 20))
    n = draw(st.integers(n_z, 300))
    config = ShepardConfig(
        n_z=n_z,
        n_w=draw(st.integers(1, 12)),
        kernel=InverseMultiquadric(draw(st.sampled_from([0.2, 0.5, 0.8]))),
        degree=degree,
    )
    nodes = rand_points(n, int(rng.integers(1 << 30)))
    c = rng.normal(size=4)
    values = c[0] + np.exp(c[1] * nodes[:, 0]) + c[2] * nodes[:, 1] * nodes[:, 2] + np.sin(c[3] * nodes[:, 2])
    return fit(nodes, values, config), nodes, values, rng


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(fitted_models())
def test_weights_are_a_partition_of_unity(case):
    model, nodes, _, rng = case
    x = np.vstack([rand_points(int(rng.integers(1, 40)), int(rng.integers(1 << 30))), nodes[:5]])
    k = min(model.config.n_w, nodes.shape[0])
    found = model.index.nearest_m(x, k)
    w = weights(x, model, found.ids, found.distances)
    assert w.shape == (x.shape[0], k)
    assert np.all(w >= 0.0)
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= k * np.finfo(float).eps)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(fitted_models())
def test_evaluate_interpolates_at_the_nodes(case):
    # At node j the blend is local fit j alone, which meets the residual
    # tolerance RTOL * ||f|| over its neighborhood.
    model, nodes, values, _ = case
    scale = np.linalg.norm(values[model.neighbor_ids], axis=1)
    assert np.all(np.abs(evaluate(model, nodes) - values) <= RTOL * scale)


@st.composite
def harmonic_fits(draw):
    """A model fitted to a random harmonic of degree <= its L, the harmonic's
    degree and coefficients, and random evaluation points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.integers(0, 2))
    n_z = draw(st.integers(max(sh_dim(degree), 3), 20))
    config = ShepardConfig(
        n_z=n_z,
        n_w=draw(st.integers(1, 12)),
        kernel=InverseMultiquadric(draw(st.sampled_from([0.2, 0.5, 0.8]))),
        degree=degree,
    )
    nodes = rand_points(draw(st.integers(n_z, 300)), int(rng.integers(1 << 30)))
    h = draw(st.integers(0, degree))
    coeffs = rng.normal(size=sh_dim(h))
    pts = rand_points(int(rng.integers(1, 60)), int(rng.integers(1 << 30)))
    return fit(nodes, sh_basis(nodes, h) @ coeffs, config), h, coeffs, pts


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(harmonic_fits())
def test_evaluate_reproduces_harmonics_up_to_the_degree(case):
    # Every local fit reproduces a harmonic of degree <= L, so the blend does;
    # 1e-7 is acceptance criterion 5(c)'s bound (worst of 600 random cases
    # of this strategy: 1.8e-9).
    model, h, coeffs, pts = case
    assert rrmse(evaluate(model, pts), sh_basis(pts, h) @ coeffs) <= 1e-7


# Inputs every malformed case below starts from: valid, so any error comes
# from the one defect a case puts in.
GOOD_NODES = rand_points(40, 60)
GOOD_VALUES = np.cos(3.0 * GOOD_NODES[:, 0])
GOOD_CONFIG = ShepardConfig(n_z=10, n_w=5, degree=1)
NOT_A_NUMBER = st.sampled_from(["x", "", "1,0", None, {"a": 1}, [1.0, 2.0], 10**400])


@st.composite
def malformed_points(draw, points, duplicates=False):
    """`points` (p, 3), with p >= 2, carrying one defect."""
    pts = points.copy()
    i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, 2))
    kinds = ["columns", "rank", "non-finite", "non-unit", "non-numeric", "ragged", "complex"]
    kind = draw(st.sampled_from(kinds + ["duplicate"] * duplicates))
    if kind == "columns":
        return draw(st.sampled_from([pts[:, :0], pts[:, :1], pts[:, :2], np.hstack([pts, pts[:, :1]])]))
    if kind == "rank":
        return draw(st.sampled_from([pts[None], pts[:, :, None], pts.ravel(), pts[0, 0]]))
    if kind == "non-finite":
        pts[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return pts
    if kind == "non-unit":
        pts[i] *= draw(st.floats(0.0, 1e300).filter(lambda s: abs(s - 1.0) > 1e-6))
        return pts
    if kind == "duplicate":
        pts[i] = pts[(i + draw(st.integers(1, len(pts) - 1))) % len(pts)]
        return pts
    if kind == "complex":
        return pts.astype(complex)
    rows = pts.tolist()
    if kind == "non-numeric":
        rows[i][j] = draw(NOT_A_NUMBER)
    else:
        del rows[i][j]
    return rows


@st.composite
def malformed_values(draw):
    values = GOOD_VALUES.copy()
    i = draw(st.integers(0, len(values) - 1))
    kind = draw(st.sampled_from(["length", "non-finite", "non-numeric", "complex"]))
    if kind == "length":
        return values[:i] if draw(st.booleans()) else np.append(values, 1.0)
    if kind == "complex":
        return values.astype(complex)
    if kind == "non-finite":
        values[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return values
    values = values.tolist()
    values[i] = draw(NOT_A_NUMBER)
    return values


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.data())
def test_fit_rejects_malformed_input_with_data_or_config_error(data):
    if data.draw(st.booleans()):
        nodes, values = data.draw(malformed_points(GOOD_NODES, duplicates=True)), GOOD_VALUES
    else:
        nodes, values = GOOD_NODES, data.draw(malformed_values())
    with pytest.raises((DataError, ConfigError)):
        fit(nodes, values, GOOD_CONFIG)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(malformed_points(rand_points(8, 61)))
def test_evaluate_rejects_malformed_points_with_data_error(points):
    model = fit(GOOD_NODES, GOOD_VALUES, GOOD_CONFIG)
    with pytest.raises(DataError):
        evaluate(model, points)


@st.composite
def malformed_configs(draw):
    """Keyword arguments of ShepardConfig with one wrong type or value."""
    kind = draw(st.sampled_from(["type", "kernel", "size", "degree", "n_z below (L+1)^2", "gamma"]))
    if kind == "type":
        wrong = st.one_of(st.floats(allow_nan=True), st.text(max_size=3),
                          NOT_A_NUMBER.filter(lambda x: not isinstance(x, int)))
        return {draw(st.sampled_from(["n_z", "n_w", "degree"])): draw(wrong)}
    if kind == "kernel":
        return {"kernel": draw(st.one_of(st.floats(0.0, 1.0), NOT_A_NUMBER))}
    if kind == "size":
        return {draw(st.sampled_from(["n_z", "n_w"])): draw(st.integers(max_value=0))}
    if kind == "degree":
        return {"degree": draw(st.integers().filter(lambda d: not -1 <= d <= 2))}
    if kind == "n_z below (L+1)^2":
        degree = draw(st.integers(1, 2))
        return {"degree": degree, "n_z": draw(st.integers(1, sh_dim(degree) - 1))}
    gamma = st.one_of(st.floats().filter(lambda g: not 0.0 < g < 1.0), st.text(max_size=3),
                      NOT_A_NUMBER)
    return {"gamma": draw(gamma)}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(malformed_configs())
def test_config_rejects_malformed_values_with_config_error(kw):
    with pytest.raises(ConfigError):
        if "gamma" in kw:
            kw["kernel"] = InverseMultiquadric(kw.pop("gamma"))
        ShepardConfig(**kw)
