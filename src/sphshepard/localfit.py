"""Local kernel interpolants with spherical-harmonic augmentation.

One local interpolant over an m-point neighborhood has the form

    Z(x) = sum_i a_i psi(g(x, x_i)) + sum_k b_k Y_k(x)

and is determined by the interpolation conditions Z(x_i) = f_i together
with the moment conditions sum_i a_i Y_k(x_i) = 0, i.e. the saddle-point
system

    [ A   Y ] [a]   [f]
    [ Y^T 0 ] [b] = [0],     A[i,j] = psi(g(x_i, x_j)),  Y[i,k] = Y_k(x_i).

With no harmonics (L = -1) Y is an empty block of U = 0 columns.

Neighborhoods are solved SOLVE_CHUNK at a time: a chunk gathers its points
and data through the neighbor ids, then its systems are assembled, solved
once by batched dense LU with partial pivoting and checked against the
interpolation and moment tolerances, both read off one residual rhs - M sol;
with two CPUs and two chunks or more, one worker thread takes the odd chunks
(results are byte-identical).  On dense node sets the kernel block is nearly
flat and its condition number can pass 1/eps, so the chunk's neighborhoods
that miss the check climb a retry ladder.  After refinement, each rescue
rung solves the rows still failing and keeps its answer only where it lowers
the full residual; a row a rung cannot solve comes back NaN, which never does:

    refined   keep-best iterative refinement of the LU solution; each step
              runs only on the rows the step before improved;
    extended  LU with partial pivoting in extended precision, vectorized
              over the chunk (it adds nothing where np.longdouble is plain
              double, as on platforms without 80-bit or 128-bit floats);
    lstsq     minimum-norm least squares (LAPACK gelsd), one batched call
              per chunk, which also covers genuinely singular systems.

Every neighborhood carries the code of the rung that met the tolerance
(`lu` when the first solve did), or `missed` when none did; a missed
neighborhood keeps its lowest-residual attempt.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import harmonics

# Relative tolerance of every neighborhood's residual check (_residuals).
RTOL = 1e-8

MOMENT_ABS_FLOOR = 1e-10

_REFINE_STEPS = 3

# Neighborhoods assembled, solved and escalated together.  This bounds the
# systems held at once (the ladder's extended-precision copies included) and
# what an exactly singular system costs its chunk's first solve; 1024 rows
# are no faster and peak higher.
SOLVE_CHUNK = 256

# Threads that solve chunks, the caller included; numpy's batched solvers release the
# GIL.  Each thread adds a malloc arena holding one chunk's working set to peak RSS.
SOLVE_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)

# Solve-path codes, in ladder order.
PATH_LU, PATH_REFINED, PATH_EXTENDED, PATH_LSTSQ, PATH_MISSED = range(5)
PATH_NAMES = ("lu", "refined", "extended", "lstsq", "missed")


def eval_local(kernel, degree: int, centers, a, b, x) -> np.ndarray:
    """Values Z(x) of local interpolants, broadcast over leading axes.

    centers (..., m, 3), a (..., m) and b (..., (L+1)^2) describe the local
    fits; x (..., 3) holds the points.  The leading axes of the fits and of
    the points broadcast against each other.
    """
    x = np.asarray(x, dtype=float)
    dots = np.clip(np.einsum("...ik,...k->...i", centers, x), -1.0, 1.0)
    out = np.einsum("...i,...i->...", kernel.at_cos(dots), a)
    if degree >= 0:
        out = out + np.einsum("...u,...u->...", harmonics.sh_basis(x, degree), b)
    return out


def _lu_solve(M, rhs):
    """Batched LU solve of one chunk of systems.

    A chunk that holds exactly singular systems (a zero pivot, which
    `slogdet` reports as sign 0) is solved again with an identity in their
    place.  Their solution is left at zero, so that they fail the residual
    check and no refinement step improves them; every other system gets its
    plain LU solution.
    """
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(M)[0] == 0.0
    M = np.where(singular[:, None, None], np.eye(M.shape[-1]), M)
    sol = np.linalg.solve(M, rhs[..., None])[..., 0]
    sol[singular] = 0.0
    return sol


def _residuals(M, rhs, sol, m):
    """Residual norms, and the tolerance check, of each neighborhood's solution.

    One product r = rhs - M sol serves both: ||r|| ranks a rung's attempts.
    The check asks ||r[:, :m]|| <= RTOL ||f|| of the interpolation residual,
    and max|r[:, m:]| <= max|Y| (RTOL ||a|| + MOMENT_ABS_FLOOR ||f||) of the
    moment residual -Y^T a (rhs and M's lower-right block are zero there);
    the absolute term keeps the check meaningful for harmonic data, whose true
    a is zero.  At L = -1 the moment block is empty and both maxima read 0.
    """
    r = rhs - (M @ sol[..., None])[..., 0]
    scale = np.linalg.norm(rhs[:, :m], axis=1)
    moment = np.abs(r[:, m:]).max(axis=1, initial=0.0)
    y_max = np.abs(M[:, :m, m:]).max(axis=(1, 2), initial=0.0)
    moment_bound = y_max * (RTOL * np.linalg.norm(sol[:, :m], axis=1) + MOMENT_ABS_FLOOR * scale)
    ok = (np.linalg.norm(r[:, :m], axis=1) <= RTOL * scale) & (moment <= moment_bound)
    return np.linalg.norm(r, axis=1), ok


def _refine_keep_best(M, rhs, sol):
    """Iterative refinement that never accepts a worse residual.

    Near-singular systems can make plain refinement oscillate or diverge;
    corrections are applied per row only where they shrink the residual.
    A row that did not improve would repeat the same step, so each step
    runs only on the rows the step before improved.  An exactly singular
    row gets a zero correction, which does not improve it.  The correction
    solves for the residual's own rounding, so it stays an einsum: with the
    `M @ sol` of _residuals, flat-limit rrmse (n=4000, gamma=0.05, L=-1) rose 5 %.
    """
    best = sol.copy()
    resid = rhs - np.einsum("nij,nj->ni", M, best)
    best_norm = np.linalg.norm(resid, axis=1)
    rows = np.arange(len(M))
    for _ in range(_REFINE_STEPS):
        Mr = M[rows]
        cand = best[rows] + _lu_solve(Mr, resid)
        resid = rhs[rows] - np.einsum("nij,nj->ni", Mr, cand)
        cand_norm = np.linalg.norm(resid, axis=1)
        better = cand_norm < best_norm[rows]
        rows, resid = rows[better], resid[better]
        if not rows.size:
            break
        best[rows] = cand[better]
        best_norm[rows] = cand_norm[better]
    return best


def _lu_solve_extended(M, rhs):
    """LU with partial pivoting in extended precision over a batch of systems.

    80-bit arithmetic (where the platform provides it) pushes the residual
    floor far below double rounding, which rescues neighborhoods whose
    double-precision condition number exceeds 1/eps.  The loops run over
    pivot columns; every operation acts on all rows at once and rounds as
    the per-system algorithm does, back-substitution sums included.  A zero
    pivot is replaced by NaN, which spreads through its row alone, so a row
    that meets one comes back NaN, as a failed row of the lstsq rung does.
    """
    a = np.array(M, dtype=np.longdouble)
    x = np.array(rhs, dtype=np.longdouble)
    k, n = x.shape
    rows = np.arange(k)
    for c in range(n):
        p = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
        a[rows, c], a[rows, p] = a[rows, p], a[rows, c]
        x[rows, c], x[rows, p] = x[rows, p], x[rows, c]
        a[a[:, c, c] == 0.0, c, c] = np.nan
        if c + 1 < n:
            mult = a[:, c + 1 :, c] / a[:, c, c, None]
            a[:, c + 1 :, c + 1 :] -= mult[:, :, None] * a[:, c, None, c + 1 :]
            x[:, c + 1 :] -= mult * x[:, c, None]
    # cumsum adds left to right, as the per-system dot product does.
    x[:, -1] /= a[:, -1, -1]
    for c in range(n - 2, -1, -1):
        dot = np.cumsum(a[:, c, c + 1 :] * x[:, c + 1 :], axis=1)[:, -1]
        x[:, c] = (x[:, c] - dot) / a[:, c, c]
    return x.astype(float)


# np.linalg.lstsq takes one matrix per call, and numpy has no public batched
# least-squares solver, so the lstsq rung calls the private gufunc behind it.
_lstsq = np.linalg._umath_linalg.lstsq


def _lstsq_solve(M, rhs):
    """np.linalg.lstsq(M[i], rhs[i], rcond=None)[0] for every system i at once.

    LAPACK gelsd runs on each system, with lstsq's default cutoff on the
    singular values, eps times the larger matrix dimension.  A system whose
    SVD does not converge comes back NaN (np.linalg.lstsq would raise
    LinAlgError), so it loses every residual comparison and ends `missed`.
    """
    with np.errstate(all="ignore"):
        x = _lstsq(M, rhs[..., None], np.finfo(float).eps * M.shape[-1], signature="ddd->ddid")[0]
    return x[..., 0]


def _climb_ladder(M, rhs, m, sol):
    """Escalate rows that missed RTOL after the first LU; returns (sol, path)."""
    path = np.full(len(sol), PATH_REFINED, dtype=np.uint8)
    sol = _refine_keep_best(M, rhs, sol)
    best, ok = _residuals(M, rhs, sol, m)
    todo, best = np.nonzero(~ok)[0], best[~ok]
    for code, rung in ((PATH_EXTENDED, _lu_solve_extended), (PATH_LSTSQ, _lstsq_solve)):
        path[todo] = code
        Mt, rt = M[todo], rhs[todo]
        cand = rung(Mt, rt)
        norm, cand_ok = _residuals(Mt, rt, cand, m)
        take = norm < best  # a NaN row never wins
        sol[todo[take]] = cand[take]
        best[take] = norm[take]
        still = ~(take & cand_ok)  # a row not taken keeps its failed solution
        todo, best = todo[still], best[still]
    path[todo] = PATH_MISSED
    return sol, path


def _saddle_systems(kernel, degree, pts, vals):
    """Systems M (n, m+U, m+U), blocks A = M[:, :m, :m] and Y = M[:, :m, m:],
    and right-hand sides rhs (n, m+U), data f = rhs[:, :m]."""
    n, m, _ = pts.shape
    u = harmonics.sh_dim(degree)
    A = kernel.at_cos(np.clip(np.einsum("nik,njk->nij", pts, pts), -1.0, 1.0))
    Y = harmonics.sh_basis(pts, degree)
    M = np.zeros((n, m + u, m + u))
    M[:, :m, :m] = A
    M[:, :m, m:] = Y
    M[:, m:, :m] = np.transpose(Y, (0, 2, 1))
    rhs = np.concatenate([vals, np.zeros((n, u))], axis=1)
    return M, rhs


def solve_saddle_batch(kernel, degree, pts, vals, ids=None):
    """Solve the saddle-point systems of many equally-sized neighborhoods.

    Neighborhood i is pts[ids[i]] of pts (N, 3), with data vals[ids[i]] of vals
    (N,); each chunk gathers its own.  Without ids, pts (n, m, 3) and vals (n, m)
    are the neighborhoods.  Returns a (n, m), b (n, U) and path (n,), each
    neighborhood's PATH_* code (uint8); one that no rung brings within the
    tolerances keeps its lowest-residual attempt, marked PATH_MISSED.
    """
    pts, vals = np.asarray(pts, dtype=float).reshape(-1, 3), np.asarray(vals, dtype=float)
    ids = np.arange(vals.size).reshape(vals.shape) if ids is None else ids
    n, m = ids.shape
    sol = np.empty((n, m + harmonics.sh_dim(degree)))
    path = np.full(n, PATH_LU, dtype=np.uint8)
    workers = min(SOLVE_WORKERS, max(1, -(-n // SOLVE_CHUNK)))

    def solve_rows(start):
        """Solve chunks start, start + workers, start + 2 * workers, ..."""
        for lo in range(start * SOLVE_CHUNK, n, workers * SOLVE_CHUNK):
            rows = slice(lo, lo + SOLVE_CHUNK)
            chunk_path = path[rows]
            M, rhs = _saddle_systems(kernel, degree, pts[ids[rows]], np.take(vals, ids[rows]))
            x = _lu_solve(M, rhs)
            fail = ~_residuals(M, rhs, x, m)[1]
            if fail.any():
                x[fail], chunk_path[fail] = _climb_ladder(M[fail], rhs[fail], m, x[fail])
            sol[rows] = x

    # The pool starts a thread only when a chunk is submitted to it.
    with ThreadPoolExecutor(1) as pool:
        others = [pool.submit(solve_rows, k) for k in range(1, workers)]
        solve_rows(0)
        for other in others:
            other.result()
    return sol[:, :m], sol[:, m:], path
