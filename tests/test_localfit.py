import logging
import math
import os
import sys
import threading

import numpy as np
import pytest

from sphshepard import datasets, localfit, shepard
from sphshepard import (
    InverseMultiquadric,
    ShepardConfig,
    SolveError,
    fit,
    normalize,
    random_uniform_sphere,
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
    """Fit one neighborhood as a batch of one; nodes (m, 3), values (m,).

    Returns the fitted function z, its coefficients a and b, and its solve path.
    """
    nodes = np.asarray(nodes, dtype=float)
    a, b, path = localfit.solve_saddle_batch(
        IMQ, degree, nodes[None], np.asarray(values, dtype=float)[None]
    )
    return (lambda x: localfit.eval_local(IMQ, degree, nodes, a[0], b[0], x)), a[0], b[0], path[0]


def test_single_node_no_augmentation():
    # 1x1 system with A = [psi(0)] = [2]:  a = v / 2
    _, a, b, _ = fit_one(np.array([[0.0, 0.0, 1.0]]), [3.0], -1)
    assert a == pytest.approx([1.5], abs=1e-14)
    assert b.shape == (0,)


def test_two_poles_constant_augmentation():
    # Moment condition plus symmetry force a = 0 and Y0 * b = 1.
    nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    z, a, b, _ = fit_one(nodes, [1.0, 1.0], 0)
    assert a == pytest.approx([0.0, 0.0], abs=1e-12)
    assert b == pytest.approx([2.0 * math.sqrt(math.pi)], abs=1e-12)
    assert z(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_interpolates_its_own_nodes():
    nodes = rand_points(15, 0)
    values = np.sin(3.0 * nodes[:, 0]) + nodes[:, 1]
    z = fit_one(nodes, values, 2)[0]
    got = z(nodes)
    assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


def test_zero_data_gives_zero_function():
    nodes = rand_points(12, 1)
    z = fit_one(nodes, np.zeros(12), 1)[0]
    assert np.max(np.abs(z(rand_points(40, 2)))) == 0.0


def test_reproduces_degree_one_coordinate():
    # z is in the degree-1 harmonic span, so the fit must reproduce it
    # everywhere, not just at the nodes.
    nodes = rand_points(10, 3)
    z = fit_one(nodes, nodes[:, 2], 1)[0]
    held_out = rand_points(50, 4)
    assert np.max(np.abs(z(held_out) - held_out[:, 2])) <= 1e-8


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_reproduces_random_harmonics(degree, seed=20):
    g = random_harmonic(degree, seed)
    nodes = rand_points(15, seed + 1)
    z = fit_one(nodes, g(nodes), degree)[0]
    pts = rand_points(60, seed + 2)
    expect = g(pts)
    assert np.max(np.abs(z(pts) - expect)) <= 1e-7 * (1.0 + np.max(np.abs(expect)))


def test_moment_conditions_hold():
    nodes = rand_points(15, 5)
    values = np.random.default_rng(6).normal(size=15)
    a = fit_one(nodes, values, 2)[1]
    basis = sh_basis(nodes, 2)
    bound = 1e-8 * np.linalg.norm(a) * np.abs(basis).max(axis=0)
    assert np.all(np.abs(basis.T @ a) <= bound)


def test_permutation_invariance():
    nodes = rand_points(14, 7)
    values = np.cos(2.0 * nodes[:, 1])
    z, a, _, _ = fit_one(nodes, values, 2)
    perm = np.random.default_rng(8).permutation(14)
    z_perm, a_perm, _, _ = fit_one(nodes[perm], values[perm], 2)
    assert np.max(np.abs(a_perm - a[perm])) <= 1e-12 * (1.0 + np.abs(a).max())
    pts = rand_points(30, 9)
    assert np.max(np.abs(z_perm(pts) - z(pts))) <= 1e-12


def test_solution_unique_under_shuffled_assembly():
    nodes = rand_points(15, 10)
    values = np.exp(nodes[:, 0])
    z1 = fit_one(nodes, values, 1)[0]
    shuffle = np.random.default_rng(11).permutation(15)
    z2 = fit_one(nodes[shuffle], values[shuffle], 1)[0]
    pts = rand_points(40, 12)
    assert np.max(np.abs(z1(pts) - z2(pts))) <= 1e-10


def test_inconsistent_duplicate_nodes_are_missed():
    nodes = rand_points(10, 14)
    nodes[1] = nodes[0]
    values = np.zeros(10)
    values[0], values[1] = 0.0, 1.0  # same node, contradictory data
    _, a, b, path = fit_one(nodes, values, -1)
    assert path == localfit.PATH_MISSED
    assert np.isfinite(a).all()


def test_consistent_duplicate_nodes_use_fallback():
    nodes = rand_points(10, 15)
    nodes[1] = nodes[0]
    values = np.exp(nodes[:, 2])
    z, _, _, path = fit_one(nodes, values, -1)
    assert path == localfit.PATH_LSTSQ
    got = z(nodes)
    assert np.max(np.abs(got - values)) <= 1e-8 * np.linalg.norm(values)


# ------------------------------------------------------------------ retry ladder


def cloud(n, seed):
    """A random cloud of nodes with data, and the ids of each node's 15 nearest."""
    nodes = rand_points(n, seed)
    ids = np.argsort(-(nodes @ nodes.T), axis=1, kind="stable")[:, :15]
    return nodes, np.exp(nodes[:, 2]) + nodes[:, 0], ids


def neighborhoods(n, seed):
    """The 15-nearest neighborhood of every node of a random cloud, with data."""
    nodes, values, ids = cloud(n, seed)
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
    M, rhs = localfit._saddle_systems(FLAT, degree, pts[:300], vals[:300])
    got = localfit._lu_solve_extended(M, rhs)
    want = np.stack([_lu_solve_extended_per_system(Mi, ri) for Mi, ri in zip(M, rhs)])
    assert not np.isnan(got).any()
    assert np.array_equal(got, want)


def test_extended_rung_flags_singular_row_only():
    pts, vals = neighborhoods(1000, 31)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    pts[5, 1], vals[5, 1] = pts[5, 0], vals[5, 0]  # duplicate node
    M, rhs = localfit._saddle_systems(FLAT, -1, pts, vals)
    assert _lu_solve_extended_per_system(M[5], rhs[5]) is None
    got = localfit._lu_solve_extended(M, rhs)
    others = np.arange(20) != 5
    alone = localfit._lu_solve_extended(M[others], rhs[others])
    assert np.isnan(got).any(axis=1).tolist() == (~others).tolist()
    assert np.isnan(got[5]).all()
    assert not np.isnan(alone).any()
    assert np.array_equal(got[others], alone)


def duplicate_node_batch():
    """Twenty neighborhoods; row 5 holds one node twice with one value, a
    consistent duplicate, so its system is exactly singular."""
    pts, vals = neighborhoods(1000, 33)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    pts[5, 1], vals[5, 1] = pts[5, 0], vals[5, 0]
    return pts, vals


def equatorial_batch():
    """Twenty neighborhoods; row 9 holds fifteen nodes on the equator, where
    the z harmonic column is exactly 0, so its L=1 system is exactly
    singular whatever the data."""
    pts, vals = neighborhoods(1000, 34)
    pts, vals = pts[:20].copy(), vals[:20].copy()
    lon = np.linspace(0.0, 2.0 * np.pi, 15, endpoint=False)
    pts[9] = np.stack([np.cos(lon), np.sin(lon), np.zeros(15)], axis=1)
    vals[9] = np.exp(np.cos(lon)) + np.sin(2.0 * lon)
    return pts, vals


@pytest.mark.parametrize("chunk", [256, 3])
def test_lu_solve_flags_singular_row_and_keeps_the_others(monkeypatch, chunk):
    pts, vals = duplicate_node_batch()
    M, rhs = localfit._saddle_systems(IMQ, -1, pts, vals)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, rhs[..., None])
    before = M.copy()
    sol = localfit._lu_solve(M, rhs)
    singular = np.arange(20) == 5
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
    pts, vals = equatorial_batch()
    M, rhs = localfit._saddle_systems(IMQ, 1, pts, vals)
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
        results.append(localfit.solve_saddle_batch(FLAT, degree, pts, vals))
        # Chunks may be assembled out of order on two threads, and each is a
        # gathered copy: it equals exactly one slice of pts, and every slice
        # is assembled once.
        slices = [pts[lo : lo + chunk] for lo in range(0, len(pts), chunk)]
        matches = [[k for k, sl in enumerate(slices) if np.array_equal(p, sl)] for p in assembled]
        assert sorted(matches) == [[k] for k in range(len(slices))]
    whole, chunked = results
    assert np.count_nonzero(whole[2] != localfit.PATH_LU) > 7
    for x, y in zip(whole, chunked):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("degree", [-1, 2])
def test_rows_passing_first_check_keep_plain_lu_solution(degree):
    pts, vals = neighborhoods(1000, 0)
    a, b, path = localfit.solve_saddle_batch(FLAT, degree, pts, vals)
    M, rhs = localfit._saddle_systems(FLAT, degree, pts, vals)
    plain = np.linalg.solve(M, rhs[..., None])[..., 0]
    first_ok = localfit._residuals(M, rhs, plain, 15)[1]
    # This flat-limit cloud reaches every rung of the ladder.
    assert np.bincount(path, minlength=5).all()
    assert np.array_equal(path == localfit.PATH_LU, first_ok)
    assert np.array_equal(np.hstack([a, b])[first_ok], plain[first_ok])


def _refine_keep_best_all_rows(M, rhs, sol):
    """Keep-best refinement that steps every row at every step: the oracle."""
    best = sol
    best_norm = np.linalg.norm(rhs - np.einsum("nij,nj->ni", M, best), axis=1)
    for _ in range(localfit._REFINE_STEPS):
        resid = rhs - np.einsum("nij,nj->ni", M, best)
        cand = best + np.linalg.solve(M, resid[..., None])[..., 0]
        cand_norm = np.linalg.norm(rhs - np.einsum("nij,nj->ni", M, cand), axis=1)
        better = cand_norm < best_norm
        if not np.any(better):
            break
        best = np.where(better[:, None], cand, best)
        best_norm = np.where(better, cand_norm, best_norm)
    return best


@pytest.mark.parametrize("degree", [-1, 2])
def test_refinement_equals_all_rows_oracle(degree):
    pts, vals = neighborhoods(1000, 0)
    _, _, path = localfit.solve_saddle_batch(FLAT, degree, pts, vals)
    M, rhs = localfit._saddle_systems(FLAT, degree, pts, vals)
    # Every row that escalated, and the rows among them that reach every rung.
    for rows in (path != localfit.PATH_LU, path >= localfit.PATH_LSTSQ):
        assert np.count_nonzero(rows) > 20
        sol = np.linalg.solve(M[rows], rhs[rows][..., None])[..., 0]
        got = localfit._refine_keep_best(M[rows], rhs[rows], sol)
        assert got.tobytes() == _refine_keep_best_all_rows(M[rows], rhs[rows], sol).tobytes()


def flat_batch():
    pts, vals = neighborhoods(1000, 0)
    return pts[:200], vals[:200]


@pytest.mark.parametrize(
    "kernel, degree, batch",
    [(FLAT, -1, flat_batch), (FLAT, 2, flat_batch), (IMQ, -1, duplicate_node_batch),
     (IMQ, 1, equatorial_batch)],
    ids=["flat-L-1", "flat-L2", "duplicate-node", "equatorial-L1"],
)
def test_batched_lstsq_equals_numpy_lstsq_per_system(kernel, degree, batch):
    # The lstsq rung calls numpy's private gufunc; a numpy that changes it
    # fails here.
    M, rhs = localfit._saddle_systems(kernel, degree, *batch())
    got = localfit._lstsq_solve(M, rhs)
    want = np.stack([np.linalg.lstsq(Mi, ri, rcond=None)[0] for Mi, ri in zip(M, rhs)])
    assert got.tobytes() == want.tobytes()


def _climb_ladder_per_row(M, rhs, m, sol):
    """The retry ladder one system at a time: refinement, the per-system
    extended LU, then np.linalg.lstsq, each answer kept only where it lowers
    the residual.  The oracle."""
    sol, path = sol.copy(), np.empty(len(sol), dtype=np.uint8)
    for i in range(len(sol)):
        Mi, ri = M[i : i + 1], rhs[i : i + 1]

        def ok(x):
            return localfit._residuals(Mi, ri, x[None], m)[1][0]

        def norm(x):
            return localfit._residuals(Mi, ri, x[None], m)[0][0]

        best = localfit._refine_keep_best(Mi, ri, sol[i : i + 1])[0]
        path[i] = localfit.PATH_REFINED
        if not ok(best):
            path[i] = localfit.PATH_EXTENDED
            x = _lu_solve_extended_per_system(M[i], rhs[i])
            if x is not None and norm(x) < norm(best):
                best = x
        if not ok(best):
            path[i] = localfit.PATH_LSTSQ
            x = np.linalg.lstsq(M[i], rhs[i], rcond=None)[0]
            if norm(x) < norm(best):
                best = x
            if not ok(best):
                path[i] = localfit.PATH_MISSED
        sol[i] = best
    return sol, path


@pytest.mark.parametrize(
    "kernel, degree, batch",
    [(FLAT, -1, flat_batch), (FLAT, 2, flat_batch), (IMQ, -1, duplicate_node_batch),
     (IMQ, 1, equatorial_batch)],
    ids=["flat-L-1", "flat-L2", "duplicate-node", "equatorial-L1"],
)
def test_ladder_equals_per_row_oracle(kernel, degree, batch):
    M, rhs = localfit._saddle_systems(kernel, degree, *batch())
    sol = localfit._lu_solve(M, rhs)
    fail = ~localfit._residuals(M, rhs, sol, 15)[1]
    got_sol, got_path = localfit._climb_ladder(M[fail], rhs[fail], 15, sol[fail])
    want_sol, want_path = _climb_ladder_per_row(M[fail], rhs[fail], 15, sol[fail])
    assert got_path.tolist() == want_path.tolist()
    assert got_sol.tobytes() == want_sol.tobytes()
    if batch is flat_batch:  # the flat batch ends on every path
        assert set(got_path.tolist()) == set(range(localfit.PATH_REFINED, localfit.PATH_MISSED + 1))
    else:  # the singular row meets a zero pivot and ends on lstsq
        assert got_path.tolist() == [localfit.PATH_LSTSQ]


def nan_lstsq_row(monkeypatch, row):
    """Make the lstsq rung fail for batch row `row` of each call, as a gelsd
    that does not converge does: a NaN solution and the invalid flag raised."""
    lstsq = localfit._lstsq

    def spoiled(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        out[0][row] = np.divide(0.0, 0.0)
        return out

    monkeypatch.setattr(localfit, "_lstsq", spoiled)


def two_duplicate_node_batch():
    """duplicate_node_batch with a second consistent duplicate, in row 12."""
    pts, vals = duplicate_node_batch()
    pts[12, 3], vals[12, 3] = pts[12, 2], vals[12, 2]
    return pts, vals


def test_failed_lstsq_row_is_missed(monkeypatch):
    # Rows 5 and 12 alone reach the lstsq rung, in one call, which rescues both.
    pts, vals = two_duplicate_node_batch()
    want = localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert np.nonzero(want[2])[0].tolist() == [5, 12]
    assert (want[2][[5, 12]] == localfit.PATH_LSTSQ).all()
    nan_lstsq_row(monkeypatch, 1)
    a, b, path = localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert path[5] == localfit.PATH_LSTSQ and path[12] == localfit.PATH_MISSED
    assert np.isfinite(a).all()
    keep = np.arange(20) != 12
    assert np.array_equal(a[keep], want[0][keep])


def equatorial_set():
    """A hundred nodes evenly spaced on the equator and a hundred random ones
    above 48 degrees of latitude: each equatorial node's fifteen nearest lie
    on the equator, so its L=1 system is exactly singular and takes lstsq."""
    lon = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    equator = np.stack([np.cos(lon), np.sin(lon), np.zeros(100)], axis=1)
    caps = rand_points(400, 35)
    nodes = np.vstack([equator, caps[np.abs(caps[:, 2]) > 0.75][:100]])
    return nodes, np.exp(nodes[:, 0]) + np.sin(2.0 * nodes[:, 1]) + nodes[:, 2]


def test_failed_lstsq_row_raises_solve_error(monkeypatch):
    # Under 256 nodes, all the local systems are solved in one chunk, so the
    # lstsq rung runs once, on every equatorial neighborhood, and rescues each.
    nodes, values = equatorial_set()
    config = ShepardConfig(degree=1)
    rescued = np.flatnonzero(fit(nodes, values, config).solve_path == localfit.PATH_LSTSQ)
    assert rescued.size == 100
    nan_lstsq_row(monkeypatch, 37)
    with pytest.raises(SolveError) as err:
        fit(nodes, values, config)
    assert err.value.node_index == rescued[37]


def test_failed_lstsq_row_is_missed_when_not_strict(monkeypatch, caplog):
    nodes, values = equatorial_set()
    config = ShepardConfig(degree=1, strict=False)
    want = fit(nodes, values, config)
    j = np.flatnonzero(want.solve_path == localfit.PATH_LSTSQ)[37]
    nan_lstsq_row(monkeypatch, 37)
    with caplog.at_level(logging.WARNING, logger="sphshepard.shepard"):
        model = fit(nodes, values, config)
    assert np.flatnonzero(model.solve_path == localfit.PATH_MISSED).tolist() == [j]
    assert np.isfinite(model.coeff_a).all()
    keep = np.arange(200) != j
    assert np.array_equal(model.coeff_a[keep], want.coeff_a[keep])
    assert np.array_equal(model.coeff_b[keep], want.coeff_b[keep])
    assert [r.getMessage().split(" neighborhoods")[0] for r in caplog.records] == ["1 of 200"]


def contradictory_batch():
    """Eight well-conditioned neighborhoods; rows 3 and 5 hold one node twice
    with two different values, which no interpolant can fit."""
    pts, vals = neighborhoods(300, 32)
    pts, vals = pts[:8].copy(), vals[:8].copy()
    for i in (5, 3):
        pts[i, 1], vals[i, 1] = pts[i, 0], vals[i, 0] + 1.0
    return pts, vals


def test_solver_marks_misses_and_neither_raises_nor_logs(caplog):
    pts, vals = contradictory_batch()
    with caplog.at_level(logging.DEBUG):
        a, b, path = localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert np.nonzero(path == localfit.PATH_MISSED)[0].tolist() == [3, 5]
    assert caplog.records == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [5, 7])
def test_threaded_solve_marks_every_miss(monkeypatch, chunk, workers):
    # Rows 5 and 12 reach the lstsq rung, which fails them both.  With
    # 5-row chunks row 5 is in chunk 1 (the worker's) and row 12 in chunk 2
    # (the caller's); with 7-row chunks row 5 is the caller's, row 12 the worker's.
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    monkeypatch.setattr(localfit, "SOLVE_WORKERS", workers)
    pts, vals = two_duplicate_node_batch()
    nan_lstsq_row(monkeypatch, 0)
    path = localfit.solve_saddle_batch(IMQ, -1, pts, vals)[2]
    assert np.nonzero(path == localfit.PATH_MISSED)[0].tolist() == [5, 12]


def flat_limit_set():
    """f1 at 1000 random nodes (seed 0); with gamma = 0.05 and L = -1 about a
    tenth of the local systems miss the tolerance, the lowest at node 4."""
    nodes = random_uniform_sphere(1000, 0).points
    return nodes, datasets.test_function("f1", nodes)


@pytest.mark.parametrize("chunk", [256, 1])
def test_strict_error_names_lowest_missing_neighborhood(monkeypatch, chunk):
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    nodes, values = flat_limit_set()
    model = fit(nodes, values, ShepardConfig(kernel=FLAT, strict=False))
    j = np.flatnonzero(model.solve_path == localfit.PATH_MISSED)[0]

    def no_remeasure(*args):  # the solver's check alone decides the miss
        raise AssertionError("fit re-measured a local fit")

    monkeypatch.setattr(shepard, "eval_local", no_remeasure)
    with pytest.raises(SolveError) as err:
        fit(nodes, values, ShepardConfig(kernel=FLAT))
    assert err.value.node_index == j == 4
    assert str(err.value) == (
        "neighborhood of node 4: no rung of the retry ladder met the residual tolerance "
        "localfit.RTOL; ShepardConfig(strict=False) keeps the lowest-residual attempt"
    )


@pytest.mark.parametrize("chunk", [256, 7, 1024])
@pytest.mark.parametrize("degree", [-1, 2])
def test_two_solve_threads_give_the_one_thread_results(monkeypatch, degree, chunk):
    # On one thread or two, the nodes, values and ids of a cloud and the
    # neighborhoods gathered from them give the bytes of the one-thread
    # gathered solve.
    nodes, values, ids = cloud(1000, 0)
    pts, vals = nodes[ids], values[ids]
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    threads = set()
    saddle_systems = localfit._saddle_systems

    def assembly_spy(*args):
        threads.add(threading.get_ident())
        return saddle_systems(*args)

    monkeypatch.setattr(localfit, "_saddle_systems", assembly_spy)
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that a shared write would show
    try:
        for inputs in ((nodes, values, ids), (pts, vals)):
            for workers in (1, 2):
                monkeypatch.setattr(localfit, "SOLVE_WORKERS", workers)
                threads.clear()
                results.append(localfit.solve_saddle_batch(FLAT, degree, *inputs))
                # The caller and one worker thread, but no worker for one chunk.
                assert len(threads) == min(workers, math.ceil(len(pts) / chunk))
    finally:
        sys.setswitchinterval(switch)
    want = results[2]  # the gathered neighborhoods on one thread
    # This flat-limit cloud reaches every rung of the ladder.
    assert np.bincount(want[2], minlength=5).all()
    for got in results:
        for x, y in zip(want, got):
            assert x.tobytes() == y.tobytes()


def test_solve_threads_follow_the_cpus(monkeypatch):
    # With the real SOLVE_WORKERS: on one CPU (as under `taskset -c 0`) the
    # caller solves every chunk alone; on two or more, it and one worker do.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pts, vals = neighborhoods(300, 0)
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", 7)
    threads, saddle_systems = set(), localfit._saddle_systems

    def assembly_spy(*args):
        threads.add(threading.get_ident())
        return saddle_systems(*args)

    monkeypatch.setattr(localfit, "_saddle_systems", assembly_spy)
    localfit.solve_saddle_batch(IMQ, -1, pts, vals)
    assert len(threads) == min(2, cpus)
    assert threading.get_ident() in threads


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [4, 5], ids=["lowest-in-worker-chunk", "lowest-in-caller-chunk"])
def test_threaded_misses_name_the_lowest_row_and_warn_once(monkeypatch, caplog, chunk, workers):
    # The lowest miss is node 4: with 4-row chunks it is in chunk 1 (the
    # worker's), with 5-row chunks in chunk 0 (the caller's).
    monkeypatch.setattr(localfit, "SOLVE_CHUNK", chunk)
    monkeypatch.setattr(localfit, "SOLVE_WORKERS", workers)
    nodes, values = flat_limit_set()
    with caplog.at_level(logging.WARNING):
        model = fit(nodes, values, ShepardConfig(kernel=FLAT, strict=False))
    missed = np.flatnonzero(model.solve_path == localfit.PATH_MISSED)
    assert missed[0] == 4
    assert [(r.name, r.getMessage().split(" neighborhoods")[0]) for r in caplog.records] == [
        ("sphshepard.shepard", f"{missed.size} of 1000")
    ]
    with pytest.raises(SolveError) as err:
        fit(nodes, values, ShepardConfig(kernel=FLAT))
    assert err.value.node_index == missed[0]
