"""Local kernel interpolants with spherical-harmonic augmentation.

One local interpolant over an m-point neighborhood has the form

    Z(x) = sum_i a_i psi(g(x, x_i)) + sum_k b_k Y_k(x)

and is determined by the interpolation conditions Z(x_i) = f_i together
with the moment conditions sum_i a_i Y_k(x_i) = 0, i.e. the saddle-point
system

    [ A   Y ] [a]   [f]
    [ Y^T 0 ] [b] = [0],     A[i,j] = psi(g(x_i, x_j)),  Y[i,k] = Y_k(x_i).

Neighborhoods are solved SOLVE_CHUNK at a time: a chunk's systems are
assembled, solved once by batched dense LU with partial pivoting and checked
against the interpolation and moment tolerances.  On dense node sets the
kernel block is nearly flat and its condition number can pass 1/eps, so the
chunk's neighborhoods that miss the check climb a retry ladder; each rung
takes the rows the one before left failing and keeps its answer only where
it lowers the full residual:

    refined   keep-best iterative refinement of the LU solution;
    extended  LU with partial pivoting in extended precision, vectorized
              over the chunk (it adds nothing where np.longdouble is plain
              double, as on platforms without 80-bit or 128-bit floats);
    lstsq     a least-squares solve per neighborhood, which also covers
              genuinely singular systems.

Every neighborhood carries the code of the rung that met the tolerance
(`lu` when the first solve did), or `missed` when none did.  A miss raises
SolveError with the offending neighborhood's batch row, unless
``strict=False``, which keeps the lowest-residual attempt and logs one
warning per call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import SolveError

log = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-8

# Moment residuals are measured against ||a||; data that is exactly a
# harmonic drives the true a to zero, leaving only solver noise, so a small
# absolute term scaled by ||f|| keeps the check meaningful there.
MOMENT_ABS_FLOOR = 1e-10

_REFINE_STEPS = 3

# Neighborhoods assembled, solved and escalated together.  This bounds the
# systems held at once (the ladder's extended-precision copies included) and
# what an exactly singular system costs its chunk's first solve; 1024 rows
# are no faster and peak higher.
SOLVE_CHUNK = 256

# Solve-path codes, in ladder order.
PATH_LU, PATH_REFINED, PATH_EXTENDED, PATH_LSTSQ, PATH_MISSED = range(5)
PATH_NAMES = ("lu", "refined", "extended", "lstsq", "missed")


@dataclass(frozen=True)
class LocalInterpolant:
    """Fitted coefficients of one augmented local interpolant."""

    centers: np.ndarray   # (m, 3) neighborhood nodes, nearest first
    a: np.ndarray         # (m,) kernel coefficients
    b: np.ndarray         # ((L+1)^2,) harmonic coefficients
    kernel: object
    degree: int
    solve_path: int = PATH_LU

    def __call__(self, x) -> np.ndarray:
        """Evaluate Z at x (shape (3,) or (..., 3))."""
        return eval_local(self.kernel, self.degree, self.centers, self.a, self.b, x)


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
    """Batched LU solve of one chunk of systems; returns (sol, singular).

    A chunk that holds exactly singular systems (a zero pivot, which
    `slogdet` reports as sign 0) is solved again with an identity in their
    place, restored afterwards.  They are left at zero and flagged, so that
    they fail the residual check and go straight to the extended-precision
    rung; every other system gets its plain LU solution.
    """
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0], np.zeros(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(M)[0] == 0.0
    saved = M[singular]
    M[singular] = np.eye(M.shape[-1])
    try:
        sol = np.linalg.solve(M, rhs[..., None])[..., 0]
    finally:
        M[singular] = saved
    sol[singular] = 0.0
    return sol, singular


def _residual_norms(M, rhs, sol):
    return np.linalg.norm(rhs - (M @ sol[..., None])[..., 0], axis=1)


def _refine_keep_best(M, rhs, sol):
    """Iterative refinement that never accepts a worse residual.

    Near-singular systems can make plain refinement oscillate or diverge;
    corrections are applied per row only where they shrink the residual.
    """
    best = sol
    best_norm = np.linalg.norm(rhs - np.einsum("nij,nj->ni", M, best), axis=1)
    for _ in range(_REFINE_STEPS):
        resid = rhs - np.einsum("nij,nj->ni", M, best)
        cand = best + np.linalg.solve(M, resid[..., None])[..., 0]
        cand_norm = np.linalg.norm(rhs - np.einsum("nij,nj->ni", M, cand), axis=1)
        better = cand_norm < best_norm
        if not np.any(better):
            break
        best = np.where(better[:, None], cand, best)
        best_norm = np.where(better, cand_norm, best_norm)
    return best


def _lu_solve_extended(M, rhs):
    """LU with partial pivoting in extended precision over a batch of systems.

    80-bit arithmetic (where the platform provides it) pushes the residual
    floor far below double rounding, which rescues neighborhoods whose
    double-precision condition number exceeds 1/eps.  The loops run over
    pivot columns; every operation acts on all rows at once and rounds as
    the per-system algorithm does, back-substitution sums included.
    Returns (sol, solved); rows that meet a zero pivot are not solved and
    leave the other rows untouched.
    """
    a = np.array(M, dtype=np.longdouble)
    x = np.array(rhs, dtype=np.longdouble)
    k, n = x.shape
    rows = np.arange(k)
    solved = np.ones(k, dtype=bool)
    for c in range(n):
        p = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
        a[rows, c], a[rows, p] = a[rows, p], a[rows, c]
        x[rows, c], x[rows, p] = x[rows, p], x[rows, c]
        zero = a[:, c, c] == 0.0
        if zero.any():
            # The whole pivot column is zero there, so a unit pivot
            # eliminates nothing and keeps those rows finite.
            solved &= ~zero
            a[zero, c, c] = 1.0
        if c + 1 < n:
            mult = a[:, c + 1 :, c] / a[:, c, c, None]
            a[:, c + 1 :, c + 1 :] -= mult[:, :, None] * a[:, c, None, c + 1 :]
            x[:, c + 1 :] -= mult * x[:, c, None]
    for c in range(n - 1, -1, -1):
        dot = np.zeros(k, dtype=np.longdouble)
        for j in range(c + 1, n):
            dot += a[:, c, j] * x[:, j]
        x[:, c] = (x[:, c] - dot) / a[:, c, c]
    return x.astype(float), solved


def _climb_ladder(M, rhs, A, Y, vals, sol, singular, rtol):
    """Escalate rows that missed `rtol` after the first LU; returns (sol, path)."""
    m = A.shape[1]

    def ok(rows):
        return _residuals_ok(A[rows], Y[rows], vals[rows], sol[rows, :m], sol[rows, m:], rtol)

    path = np.full(len(sol), PATH_REFINED, dtype=np.uint8)
    live = ~singular
    if live.any():
        sol[live] = _refine_keep_best(M[live], rhs[live], sol[live])

    todo = np.nonzero(~ok(slice(None)))[0]
    path[todo] = PATH_EXTENDED
    best_norm = _residual_norms(M[todo], rhs[todo], sol[todo])
    extended, solved = _lu_solve_extended(M[todo], rhs[todo])
    ext_norm = _residual_norms(M[todo], rhs[todo], extended)
    take = solved & (ext_norm < best_norm)
    sol[todo[take]] = extended[take]
    best_norm[take] = ext_norm[take]

    still = ~ok(todo)
    todo, best_norm = todo[still], best_norm[still]
    path[todo] = PATH_LSTSQ
    if todo.size:
        lsq = np.stack([np.linalg.lstsq(M[i], rhs[i], rcond=None)[0] for i in todo])
        take = _residual_norms(M[todo], rhs[todo], lsq) < best_norm
        sol[todo[take]] = lsq[take]
        path[todo[~ok(todo)]] = PATH_MISSED
    return sol, path


def _saddle_systems(kernel, degree, pts, vals):
    """Blocks A (n, m, m), Y (n, m, U), systems M and right-hand sides rhs.

    A is a view of M's kernel block, so the batch is held in memory once.
    """
    n, m, _ = pts.shape
    u = harmonics.sh_dim(degree)

    A = kernel.at_cos(np.clip(np.einsum("nik,njk->nij", pts, pts), -1.0, 1.0))
    Y = harmonics.sh_basis(pts, degree)

    M = np.zeros((n, m + u, m + u))
    M[:, :m, :m] = A
    if u:
        M[:, :m, m:] = Y
        M[:, m:, :m] = np.transpose(Y, (0, 2, 1))
    rhs = np.concatenate([vals, np.zeros((n, u))], axis=1)
    return M[:, :m, :m], Y, M, rhs


def solve_saddle_batch(kernel, degree, pts, vals, rtol=DEFAULT_RTOL, strict=True):
    """Solve the saddle-point systems of many equally-sized neighborhoods.

    pts: (n, m, 3) neighborhoods, vals: (n, m) data.  Returns (a, b, path)
    with shapes (n, m), (n, U), (n,); `path` holds each neighborhood's
    PATH_* code (uint8).  A neighborhood whose best solution still misses
    the tolerances raises SolveError naming the lowest such batch row,
    unless ``strict=False``, which keeps the lowest-residual attempt and
    marks it PATH_MISSED (used by parameter sweeps that must stay finite in
    ill-conditioned corners of the shape-parameter range).
    """
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    n, m = vals.shape
    sol = np.empty((n, m + harmonics.sh_dim(degree)))
    path = np.full(n, PATH_LU, dtype=np.uint8)
    for lo in range(0, n, SOLVE_CHUNK):
        rows = slice(lo, lo + SOLVE_CHUNK)
        f, chunk_path = vals[rows], path[rows]
        A, Y, M, rhs = _saddle_systems(kernel, degree, pts[rows], f)
        x, singular = _lu_solve(M, rhs)
        fail = ~_residuals_ok(A, Y, f, x[:, :m], x[:, m:], rtol)
        if fail.any():
            x[fail], chunk_path[fail] = _climb_ladder(
                M[fail], rhs[fail], A[fail], Y[fail], f[fail], x[fail], singular[fail], rtol
            )
        sol[rows] = x
        missed = np.nonzero(chunk_path == PATH_MISSED)[0]
        if strict and missed.size:
            i = missed[0]
            resid = np.linalg.norm(A[i] @ x[i, :m] + Y[i] @ x[i, m:] - f[i])
            raise SolveError(
                f"saddle-point solution misses tolerance {rtol:g} "
                f"(interpolation residual {resid:.3e}, "
                f"data norm {np.linalg.norm(f[i]):.3e})",
                node_index=lo + i,
            )
    n_missed = int(np.count_nonzero(path == PATH_MISSED))
    if n_missed:
        log.warning(
            "%d of %d neighborhoods miss the residual tolerance %g; "
            "their lowest-residual attempts are kept",
            n_missed, n, rtol,
        )
    return sol[:, :m], sol[:, m:], path


def _residuals_ok(A, Y, vals, a, b, rtol):
    """Per-neighborhood check of interpolation and moment residuals."""
    u = Y.shape[-1]
    pred = np.einsum("nij,nj->ni", A, a)
    if u:
        pred = pred + np.einsum("niu,nu->ni", Y, b)
    scale = np.linalg.norm(vals, axis=1)
    ok = np.linalg.norm(pred - vals, axis=1) <= rtol * scale
    if u:
        moment = np.abs(np.einsum("niu,ni->nu", Y, a)).max(axis=1)
        y_max = np.abs(Y).max(axis=(1, 2))
        ok &= moment <= y_max * (
            rtol * np.linalg.norm(a, axis=1) + MOMENT_ABS_FLOOR * scale
        )
    return ok

