import logging
import math

import numpy as np
import pytest

from sphshepard import localfit
from sphshepard import (
    InverseMultiquadric,
    LocalInterpolant,
    SolveError,
    normalize,
    sh_basis,
    sh_dim,
)

IMQ = InverseMultiquadric(0.5)
FLAT = InverseMultiquadric(0.05)


def rand_points(n, seed):
    return normalize(np.random.default_rng(seed).normal(size=(n, 3)))


def random_harmonic(degree, seed):
    coeffs = np.random.default_rng(seed).normal(size=sh_dim(degree))
    return lambda p: sh_basis(p, degree) @ coeffs


def fit_one(nodes, values, degree):
    """Fit one neighborhood as a batch of one; nodes (m, 3), values (m,)."""
    nodes = np.asarray(nodes, dtype=float)
    a, b, path = localfit.solve_saddle_batch(
        IMQ, degree, nodes[None], np.asarray(values, dtype=float)[None]
    )
    return LocalInterpolant(nodes, a[0], b[0], IMQ, degree, solve_path=int(path[0]))


def test_single_node_no_augmentation():
    # 1x1 system with A = [psi(0)] = [2]:  a = v / 2
    z = fit_one(np.array([[0.0, 0.0, 1.0]]), [3.0], -1)
    assert z.a == pytest.approx([1.5], abs=1e-14)
    assert z.b.shape == (0,)


def test_two_poles_constant_augmentation():
    # Moment condition plus symmetry force a = 0 and Y0 * b = 1.
    nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    z = fit_one(nodes, [1.0, 1.0], 0)
    assert z.a == pytest.approx([0.0, 0.0], abs=1e-12)
    assert z.b == pytest.approx([2.0 * math.sqrt(math.pi)], abs=1e-12)
    assert z(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_interpolates_its_own_nodes():
    nodes = rand_points(15, 0)
    values = np.sin(3.0 * nodes[:, 0]) + nodes[:, 1]
    z = fit_one(nodes, values, 2)
    got = z(nodes)
    assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


def test_zero_data_gives_zero_function():
    nodes = rand_points(12, 1)
    z = fit_one(nodes, np.zeros(12), 1)
    assert np.max(np.abs(z(rand_points(40, 2)))) == 0.0


def test_reproduces_degree_one_coordinate():
    # z is in the degree-1 harmonic span, so the fit must reproduce it
    # everywhere, not just at the nodes.
    nodes = rand_points(10, 3)
    z = fit_one(nodes, nodes[:, 2], 1)
    held_out = rand_points(50, 4)
    assert np.max(np.abs(z(held_out) - held_out[:, 2])) <= 1e-8


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_reproduces_random_harmonics(degree, seed=20):
    g = random_harmonic(degree, seed)
    nodes = rand_points(15, seed + 1)
    z = fit_one(nodes, g(nodes), degree)
    pts = rand_points(60, seed + 2)
    expect = g(pts)
    assert np.max(np.abs(z(pts) - expect)) <= 1e-7 * (1.0 + np.max(np.abs(expect)))


def test_moment_conditions_hold():
    nodes = rand_points(15, 5)
    values = np.random.default_rng(6).normal(size=15)
    z = fit_one(nodes, values, 2)
    basis = sh_basis(nodes, 2)
    bound = 1e-8 * np.linalg.norm(z.a) * np.abs(basis).max(axis=0)
    assert np.all(np.abs(basis.T @ z.a) <= bound)


def test_permutation_invariance():
    nodes = rand_points(14, 7)
    values = np.cos(2.0 * nodes[:, 1])
    z = fit_one(nodes, values, 2)
    perm = np.random.default_rng(8).permutation(14)
    z_perm = fit_one(nodes[perm], values[perm], 2)
    assert np.max(np.abs(z_perm.a - z.a[perm])) <= 1e-12 * (1.0 + np.abs(z.a).max())
    pts = rand_points(30, 9)
    assert np.max(np.abs(z_perm(pts) - z(pts))) <= 1e-12


def test_solution_unique_under_shuffled_assembly():
    nodes = rand_points(15, 10)
    values = np.exp(nodes[:, 0])
    z1 = fit_one(nodes, values, 1)
    shuffle = np.random.default_rng(11).permutation(15)
    z2 = fit_one(nodes[shuffle], values[shuffle], 1)
    pts = rand_points(40, 12)
    assert np.max(np.abs(z1(pts) - z2(pts))) <= 1e-10


def test_inconsistent_duplicate_nodes_fail_with_context():
    nodes = rand_points(10, 14)
    nodes[1] = nodes[0]
    values = np.zeros(10)
    values[0], values[1] = 0.0, 1.0  # same node, contradictory data
    with pytest.raises(SolveError) as err:
        fit_one(nodes, values, -1)
    assert err.value.node_index == 0
    assert "neighborhood of node 0" in str(err.value)


def test_consistent_duplicate_nodes_use_fallback():
    nodes = rand_points(10, 15)
    nodes[1] = nodes[0]
    values = np.exp(nodes[:, 2])
    z = fit_one(nodes, values, -1)
    assert z.solve_path == localfit.PATH_LSTSQ
    got = z(nodes)
    assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


# ------------------------------------------------------------------ retry ladder


def neighborhoods(n, seed):
    """The 15-nearest neighborhood of every node of a random cloud, with data."""
    nodes = rand_points(n, seed)
    ids = np.argsort(-(nodes @ nodes.T), axis=1, kind="stable")[:, :15]
    values = np.exp(nodes[:, 2]) + nodes[:, 0]
    return nodes[ids], values[ids]


def _lu_solve_extended_per_system(M, rhs):
    """The extended-precision rung one system at a time: the oracle."""
    a = np.asarray(M, dtype=np.longdouble).copy()
    x = np.asarray(rhs, dtype=np.longdouble).copy()
    n = a.shape[0]
    for c in range(n):
        p = c + int(np.argmax(np.abs(a[c:, c])))
        if a[p, c] == 0.0:
            return None
        if p != c:
            a[[c, p]] = a[[p, c]]
            x[[c, p]] = x[[p, c]]
        if c + 1 < n:
            mult = a[c + 1 :, c] / a[c, c]
            a[c + 1 :, c + 1 :] -= mult[:, None] * a[c, c + 1 :]
            x[c + 1 :] -= mult * x[c]
    for c in range(n - 1, -1, -1):
        x[c] = (x[c] - a[c, c + 1 :] @ x[c + 1 :]) / a[c, c]
    return x.astype(float)


@pytest.mark.parametrize("degree", [-1, 2])
def test_extended_rung_matches_per_system_algorithm(degree):
    pts, vals = neighborhoods(1000, 30)
    _, _, M, rhs = localfit._saddle_systems(FLAT, degree, pts[:300], vals[:300])
    got, solved = localfit._lu_solve_extended(M, rhs)
    want = np.stack([_lu_solve_extended_per_system(Mi, ri) for Mi, ri in zip(M, rhs)])
    assert solved.all()
    assert np.array_equal(got, want)


def test_extended_rung_flags_singular_row_only():
    pts, vals = neighborhoods(1000, 31)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    pts[5, 1], vals[5, 1] = pts[5, 0], vals[5, 0]  # duplicate node
    _, _, M, rhs = localfit._saddle_systems(FLAT, -1, pts, vals)
    assert _lu_solve_extended_per_system(M[5], rhs[5]) is None
    got, solved = localfit._lu_solve_extended(M, rhs)
    others = np.arange(20) != 5
    alone, alone_solved = localfit._lu_solve_extended(M[others], rhs[others])
    assert solved.tolist() == others.tolist()
    assert alone_solved.all()
    assert np.array_equal(got[others], alone)


@pytest.mark.parametrize("chunk", [256, 3])
def test_lu_solve_flags_singular_row_and_keeps_the_others(monkeypatch, chunk):
    pts, vals = neighborhoods(1000, 33)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    # A consistent duplicate node: an exactly singular system.
    pts[5, 1], vals[5, 1] = pts[5, 0], vals[5, 0]
    _, _, M, rhs = localfit._saddle_systems(IMQ, -1, pts, vals)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, rhs[..., None])
    before = M.copy()
    sol, singular = localfit._lu_solve(M, rhs)
    assert np.nonzero(singular)[0].tolist() == [5]
    assert not sol[5].any()
    assert np.array_equal(M, before)
    for i in np.nonzero(~singular)[0]:
        assert np.array_equal(sol[i], np.linalg.solve(M[i], rhs[i]))
    # Through the chunk loop, the singular system shares a chunk of `chunk`
    # rows; it alone climbs the ladder, and the others keep their solutions.
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    a, _, path = localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert np.nonzero(path != localfit.PATH_LU)[0].tolist() == [5]
    assert path[5] == localfit.PATH_LSTSQ
    assert np.array_equal(a[~singular], sol[~singular])


def test_equatorial_l1_neighborhood_takes_lstsq_and_spares_its_chunk():
    pts, vals = neighborhoods(1000, 34)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    # Fifteen nodes on the equator: the z harmonic column is exactly 0, so
    # this L=1 system is exactly singular whatever the data.
    lon = np.linspace(0.0, 2.0 * np.pi, 15, endpoint=False)
    pts[9] = np.stack([np.cos(lon), np.sin(lon), np.zeros(15)], axis=1)
    vals[9] = np.exp(np.cos(lon)) + np.sin(2.0 * lon)
    _, _, M, rhs = localfit._saddle_systems(IMQ, 1, pts, vals)
    assert not M[9, :, 15 + 2].any()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M[9], rhs[9])
    a, b, path = localfit.solve_saddle_batch(IMQ, 1, pts, vals)
    assert path[9] == localfit.PATH_LSTSQ
    assert np.isfinite(a[9]).all() and np.isfinite(b[9]).all()
    for i in range(20):
        if i != 9:
            assert path[i] == localfit.PATH_LU
            assert np.array_equal(np.hstack([a[i], b[i]]), np.linalg.solve(M[i], rhs[i]))


@pytest.mark.parametrize("degree", [-1, 2])
def test_ladder_results_do_not_depend_on_chunk_size(monkeypatch, degree):
    pts, vals = neighborhoods(1000, 0)
    assembled = []
    saddle_systems = localfit._saddle_systems

    def spy(*args):
        assembled.append(args[2])
        return saddle_systems(*args)

    monkeypatch.setattr(localfit, "_saddle_systems", spy)
    results = []
    for chunk in (localfit.SOLVE_CHUNK, 7):
        monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
        assembled.clear()
        results.append(localfit.solve_saddle_batch(FLAT, degree, pts, vals, strict=False))
        assert max(len(p) for p in assembled) <= chunk
        assert np.array_equal(np.concatenate(assembled), pts)
    whole, chunked = results
    assert np.count_nonzero(whole[2] != localfit.PATH_LU) > 7
    for x, y in zip(whole, chunked):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("degree", [-1, 2])
def test_rows_passing_first_check_keep_plain_lu_solution(degree):
    pts, vals = neighborhoods(1000, 0)
    a, b, path = localfit.solve_saddle_batch(FLAT, degree, pts, vals, strict=False)
    A, Y, M, rhs = localfit._saddle_systems(FLAT, degree, pts, vals)
    plain = np.linalg.solve(M, rhs[..., None])[..., 0]
    first_ok = localfit._residuals_ok(A, Y, vals, plain[:, :15], plain[:, 15:], localfit.DEFAULT_RTOL)
    # This flat-limit cloud reaches every rung of the ladder.
    assert np.bincount(path, minlength=5).all()
    assert np.array_equal(path == localfit.PATH_LU, first_ok)
    assert np.array_equal(np.hstack([a, b])[first_ok], plain[first_ok])


def contradictory_batch():
    """Eight well-conditioned neighborhoods; rows 3 and 5 hold one node twice
    with two different values, which no interpolant can fit."""
    pts, vals = neighborhoods(300, 32)
    pts, vals = pts[:8].copy(), vals[:8].copy()
    for i in (5, 3):
        pts[i, 1], vals[i, 1] = pts[i, 0], vals[i, 0] + 1.0
    return pts, vals


@pytest.mark.parametrize("chunk", [256, 1])
def test_strict_error_names_lowest_missing_neighborhood(monkeypatch, chunk):
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    pts, vals = contradictory_batch()
    with pytest.raises(SolveError) as err:
        localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert err.value.node_index == 3


def test_non_strict_marks_misses_and_warns_once(caplog):
    pts, vals = contradictory_batch()
    with caplog.at_level(logging.WARNING, logger="sphshepard.localfit"):
        a, b, path = localfit.solve_saddle_batch(IMQ, -1, pts, vals, strict=False)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert np.nonzero(path == localfit.PATH_MISSED)[0].tolist() == [3, 5]
    assert [r.getMessage().split(" neighborhoods")[0] for r in caplog.records] == ["2 of 8"]
