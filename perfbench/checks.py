"""Output checks that recompute the method's results apart from the program.

Nothing here imports sphshepard.  Every reference is built from the
method's definition: neighbours from a k-d tree on the 3-D vectors (chord
order equals geodesic order on the unit sphere), the inverse multiquadric
from the chord length, the degree <= 2 harmonics from associated Legendre
functions in spherical coordinates, and f1 from its closed form.

Each ``check_*`` function returns a list of messages, empty when the output
passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

EPS = np.finfo(float).eps

# The local solver's contract (README "Numerical notes"): interpolation
# residual <= rtol * ||f||, moment residual <= max|Y| * (rtol * ||a|| +
# floor * ||f||).
INTERP_RTOL = 1e-8
MOMENT_ABS_FLOOR = 1e-10

# Two distances closer than this (in chord length) count as a tie.
TIE_TOL = 1e-12

# A point this close to a node (geodesic) takes that node's value.
COINCIDENCE_TOL = 1e-12

# Allowed disagreement between two evaluations of the blend, in units of
# eps times the sum of magnitudes of the terms that make up the value.
BLEND_ULPS = 64.0

MAX_MESSAGES = 5


def f1(p) -> np.ndarray:
    """Test function f1 = (exp(x) + 2 exp(y + z)) / 10."""
    p = np.asarray(p, dtype=float)
    return (np.exp(p[..., 0]) + 2.0 * np.exp(p[..., 1] + p[..., 2])) / 10.0


def rrmse(predicted, truth) -> float:
    return float(np.linalg.norm(predicted - truth) / np.linalg.norm(truth))


def imq(gamma: float, chord2) -> np.ndarray:
    """Inverse multiquadric from squared chord length.

    1 + g^2 - 2 g cos t equals (1 - g)^2 + g |x - y|^2 on the unit sphere.
    """
    return ((1.0 - gamma) ** 2 + gamma * chord2) ** -0.5


def _legendre(l: int, m: int, c, s):
    """Associated Legendre P_l^m(cos t) for l <= 2, without Condon-Shortley phase."""
    table = {
        (0, 0): lambda: np.ones_like(c),
        (1, 0): lambda: c,
        (1, 1): lambda: s,
        (2, 0): lambda: 0.5 * (3.0 * c * c - 1.0),
        (2, 1): lambda: 3.0 * c * s,
        (2, 2): lambda: 3.0 * s * s,
    }
    return table[(l, m)]()


def sh_reference(p, degree: int) -> np.ndarray:
    """Real orthonormal spherical harmonics, degree-major, m = -l..l.

    Y_l^0 = N_l0 P_l(cos t), Y_l^m = sqrt2 N_lm P_l^m(cos t) cos(m phi) and
    Y_l^-m = sqrt2 N_lm P_l^m(cos t) sin(m phi) for m > 0, with
    N_lm = sqrt((2l + 1)/(4 pi) (l - m)!/(l + m)!).
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    theta = np.arctan2(np.hypot(x, y), z)
    phi = np.arctan2(y, x)
    c, s = np.cos(theta), np.sin(theta)
    cols = []
    for l in range(degree + 1):
        for m in range(-l, l + 1):
            k = abs(m)
            norm = math.sqrt(
                (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - k) / math.factorial(l + k)
            )
            leg = _legendre(l, k, c, s)
            if m == 0:
                cols.append(norm * leg)
            elif m > 0:
                cols.append(math.sqrt(2.0) * norm * leg * np.cos(k * phi))
            else:
                cols.append(math.sqrt(2.0) * norm * leg * np.sin(k * phi))
    if not cols:
        return np.empty(p.shape[:-1] + (0,))
    return np.stack(cols, axis=-1)


def _cap(problems: list[str]) -> list[str]:
    if len(problems) > MAX_MESSAGES:
        return problems[:MAX_MESSAGES] + [f"... and {len(problems) - MAX_MESSAGES} more"]
    return problems


def check_neighbors(nodes, neighbor_ids) -> list[str]:
    """Each row must be, as a set, the m nearest nodes to its own node.

    A row may differ from the k-d tree's only by nodes tied with the m-th
    nearest distance.
    """
    nodes = np.asarray(nodes, dtype=float)
    neighbor_ids = np.asarray(neighbor_ids)
    n = nodes.shape[0]
    if neighbor_ids.ndim != 2 or neighbor_ids.shape[0] != n:
        return [f"neighbor_ids has shape {neighbor_ids.shape}, expected ({n}, m)"]
    m = neighbor_ids.shape[1]
    if neighbor_ids.min() < 0 or neighbor_ids.max() >= n:
        return ["neighbor_ids holds an index outside the node set"]
    chord, ids = cKDTree(nodes).query(nodes, k=min(m + 1, n))
    want = np.sort(ids[:, :m], axis=1)
    got = np.sort(neighbor_ids, axis=1)
    problems = []
    for j in np.nonzero((want != got).any(axis=1))[0]:
        if np.any(np.diff(got[j]) == 0):
            problems.append(f"node {j}: repeated neighbour id")
            continue
        extra = np.setdiff1d(got[j], want[j])
        d_extra = np.linalg.norm(nodes[extra] - nodes[j], axis=1)
        if np.any(np.abs(d_extra - chord[j, m - 1]) > TIE_TOL):
            problems.append(f"node {j}: neighbours {extra.tolist()} are not among the {m} nearest")
    return _cap(problems)


def check_local_residuals(
    nodes, values, neighbor_ids, coeff_a, coeff_b, gamma, degree, chunk=2000
) -> list[str]:
    """Recompute every local system's interpolation and moment residuals.

    Each must meet the solver contract, plus the rounding of the
    recomputation itself: (m + u) eps times the norm of the term magnitudes.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    n, m = neighbor_ids.shape
    u = (degree + 1) ** 2
    rounding = (m + u) * EPS
    problems = []
    for lo in range(0, n, chunk):
        ids = neighbor_ids[lo : lo + chunk]
        X = nodes[ids]
        f = values[ids]
        a = coeff_a[lo : lo + chunk]
        b = coeff_b[lo : lo + chunk]
        diff = X[:, :, None, :] - X[:, None, :, :]
        A = imq(gamma, np.einsum("nijk,nijk->nij", diff, diff))
        Y = sh_reference(X, degree)
        terms = np.einsum("nij,nj->ni", A, a) + np.einsum("niu,nu->ni", Y, b)
        mags = np.einsum("nij,nj->ni", A, np.abs(a)) + np.einsum("niu,nu->ni", np.abs(Y), np.abs(b))
        f_norm = np.linalg.norm(f, axis=1)
        resid = np.linalg.norm(terms - f, axis=1)
        bad = resid > INTERP_RTOL * f_norm + rounding * np.linalg.norm(mags, axis=1)
        if u:
            moment = np.abs(np.einsum("niu,ni->nu", Y, a)).max(axis=1)
            moment_mag = np.einsum("niu,ni->nu", np.abs(Y), np.abs(a)).max(axis=1)
            y_max = np.abs(Y).max(axis=(1, 2))
            limit = y_max * (
                INTERP_RTOL * np.linalg.norm(a, axis=1) + MOMENT_ABS_FLOOR * f_norm
            )
            bad |= moment > limit + rounding * moment_mag
        bad |= ~np.isfinite(resid)
        for i in np.nonzero(bad)[0]:
            problems.append(
                f"neighbourhood {lo + i}: interpolation residual {resid[i]:.3e} "
                f"for data norm {f_norm[i]:.3e}, or moment residual over tolerance"
            )
    return _cap(problems)


def reference_blend(nodes, neighbor_ids, coeff_a, coeff_b, gamma, degree, n_w, points):
    """Blend the model's local fits at `points`, independently of the program.

    Returns (values, scale): the blended values and, per point, the sum of
    magnitudes of the terms that make them up, for a round-off tolerance.
    """
    nodes = np.asarray(nodes, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    k = min(n_w, nodes.shape[0])
    chord, ids = cKDTree(nodes).query(points, k=k)
    chord, ids = chord.reshape(len(points), k), ids.reshape(len(points), k)
    g = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
    centers = nodes[neighbor_ids[ids]]                    # (p, k, n_z, 3)
    rel = centers - points[:, None, None, :]
    terms_a = coeff_a[ids] * imq(gamma, np.einsum("pkiq,pkiq->pki", rel, rel))
    terms_b = coeff_b[ids] * sh_reference(points, degree)[:, None, :]
    local = terms_a.sum(axis=-1) + terms_b.sum(axis=-1)
    mags = np.abs(terms_a).sum(axis=-1) + np.abs(terms_b).sum(axis=-1)
    on_node = g[:, 0] <= COINCIDENCE_TOL
    inv = 1.0 / np.where(on_node[:, None], 1.0, g)
    w = np.where(on_node[:, None], np.arange(k) == 0, inv / inv.sum(axis=1, keepdims=True))
    values = (w * local).sum(axis=1)
    return values, (w * mags).sum(axis=1) + np.abs(values)


def check_close(got, want, scale, what: str) -> list[str]:
    """|got - want| within BLEND_ULPS * eps * scale, pointwise."""
    got = np.asarray(got, dtype=float)
    err = np.abs(got - want)
    tol = BLEND_ULPS * EPS * scale
    return _cap(
        [
            f"{what} at sample {i}: {float(got[i])!r} vs {float(want[i])!r} "
            f"(|diff| {err[i]:.3e} > {tol[i]:.3e})"
            for i in np.nonzero(~(err <= tol))[0]
        ]
    )


def check_rrmse(value: float, low: float, high: float, what: str) -> list[str]:
    if not low <= value <= high:
        return [f"{what} rrmse {value:.4e} outside [{low:.4e}, {high:.4e}]"]
    return []


def check_finite(what: str, *arrays) -> list[str]:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            return [f"{what}: {int(np.size(arr) - np.isfinite(arr).sum())} non-finite values"]
    return []
