"""Modified Shepard partition-of-unity interpolation on the sphere.

The surface is blended from one local interpolant per node,

    F(x) = sum_j Z_j(x) * Wbar_j(x),

where Z_j is the augmented kernel interpolant fitted to the n_z nodes
nearest node j, and the weights Wbar_j are inverse geodesic distances
1/g(x, x_j) normalized over the n_w nodes nearest the evaluation point
(the localizing cutoff plus truncation leaves exactly those n_w active).
The weights are non-negative and sum to one, so the blend preserves
anything every local interpolant reproduces exactly.

Both the fitting and the evaluation stage find their neighborhoods through
one latitude-zone index, built by `fit` and kept on the model, with one
batched search per stage (cap radii escalate per point until the required
neighbor count is reached).  Evaluation blends EVAL_CHUNK points at a time
with array code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .errors import ConfigError, DataError
from .kernels import InverseMultiquadric
from .localfit import DEFAULT_RTOL, PATH_LSTSQ, LocalInterpolant, eval_local, solve_saddle_batch
from .sphere import NORM_TOL
from .zones import ZoneIndex, build_zones, compute_delta

# Geodesic distance at or below which an evaluation point is treated as one
# of the nodes (the 1/g weight is singular there).
COINCIDENCE_TOL = 1e-12

# Below this, arccos of a dot product has lost most digits; recompute the
# distance from the chord, which is exact at zero separation.
_CHORD_RECOMPUTE = 1e-6

# Evaluation points blended per step; bounds the (points, n_w, n_z, 3)
# gather of the local fits' centers.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class ShepardConfig:
    """Localization parameters and local-fit family for one model.

    Construction checks every parameter and raises ConfigError for
    n_z or n_w below 1, a degree L outside -1..harmonics.MAX_DEGREE,
    n_z < (L+1)^2, or an `rtol` that is not finite and positive; the
    kernel checks its own shape parameter.

    ``strict=False`` keeps the best-effort solution when a local system
    cannot meet `rtol` (instead of raising); the fit marks such
    neighborhoods `missed` in the model's `solve_path` and logs a warning.
    """

    n_z: int = 15
    n_w: int = 10
    kernel: object = InverseMultiquadric(0.5)
    degree: int = -1
    rtol: float = DEFAULT_RTOL
    strict: bool = True

    def __post_init__(self):
        if self.n_z < 1 or self.n_w < 1:
            raise ConfigError(
                f"neighborhood sizes must be positive, got n_z={self.n_z}, n_w={self.n_w}"
            )
        if not -1 <= self.degree <= harmonics.MAX_DEGREE:
            raise ConfigError(
                f"degree L must be between -1 and {harmonics.MAX_DEGREE}, got {self.degree}"
            )
        u = harmonics.sh_dim(self.degree)
        if self.n_z < u:
            raise ConfigError(
                f"n_z must satisfy n_z >= (L+1)^2; got n_z={self.n_z} < {u} "
                f"for degree L={self.degree}"
            )
        if not 0.0 < self.rtol < np.inf:
            raise ConfigError(f"rtol must be finite and positive, got {self.rtol}")


@dataclass(frozen=True)
class ShepardModel:
    """All n fitted local interpolants, the configuration and the zone index.

    Local fit j is centered on nodes[neighbor_ids[j]]; its first row is node j.
    """

    nodes: np.ndarray         # (n, 3)
    config: ShepardConfig
    neighbor_ids: np.ndarray  # (n, n_z), row j = nodes fitted by local j
    coeff_a: np.ndarray       # (n, n_z)
    coeff_b: np.ndarray       # (n, (L+1)^2)
    solve_path: np.ndarray    # (n,) uint8 localfit.PATH_* code per local fit
    index: ZoneIndex = field(repr=False)  # zone index over `nodes`, for evaluation

    @property
    def used_fallback(self) -> np.ndarray:
        """(n,) bool, neighborhoods that reached the least-squares rung."""
        return self.solve_path >= PATH_LSTSQ

    def local_fit(self, j: int) -> LocalInterpolant:
        return LocalInterpolant(
            centers=self.nodes[self.neighbor_ids[j]],
            a=self.coeff_a[j],
            b=self.coeff_b[j],
            kernel=self.config.kernel,
            degree=self.config.degree,
            solve_path=int(self.solve_path[j]),
        )


def _unit_points(points, what: str) -> np.ndarray:
    """`points` as a (p, 3) array, checked to be finite unit vectors.

    Accepts one point (3,) or a stack (p, 3) whose rows have length 1 within
    NORM_TOL; otherwise raises DataError naming the first offending row.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
        raise DataError(f"{what}s must have shape (3,) or (p, 3), got {pts.shape}")
    pts = pts.reshape(-1, 3)
    # einsum does not warn on overflow: a huge row gets length inf.
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= NORM_TOL:  # a NaN fails the comparison too
        i = int(np.argmax(~(off <= NORM_TOL)))
        if not np.all(np.isfinite(pts[i])):
            raise DataError(f"{what} {i} is not finite")
        raise DataError(f"{what} {i} has length {norms[i]!r}, not 1 within {NORM_TOL:g}")
    return pts


def _reject_duplicates(nodes, neighbor_ids, centers) -> None:
    """Raise DataError naming two nodes with exactly equal coordinates.

    A node's copy lies at the same computed distance from it as the node
    itself, so both are in the node's neighbor row; the coordinates are
    compared, since a self distance need not read 0.
    """
    same = (
        (centers[..., 0] == nodes[:, None, 0])
        & (centers[..., 1] == nodes[:, None, 1])
        & (centers[..., 2] == nodes[:, None, 2])
    )
    rows = np.flatnonzero(np.count_nonzero(same, axis=1) > 1)
    if rows.size:
        i, j = np.sort(neighbor_ids[rows[0]][same[rows[0]]])[:2]
        raise DataError(f"nodes {i} and {j} have equal coordinates")


def fit(nodes, values, config: ShepardConfig) -> ShepardModel:
    """Fit one local interpolant per node on its n_z nearest nodes.

    nodes: finite, distinct unit vectors (3,) or (n, 3); values: n finite
    numbers.  Other input raises DataError.
    """
    nodes = _unit_points(nodes, "node")
    values = np.asarray(values, dtype=float).reshape(-1)
    n = nodes.shape[0]
    if values.shape[0] != n:
        raise DataError(f"got {n} nodes but {values.shape[0]} values")
    if n < config.n_z:
        raise ConfigError(f"need at least n_z={config.n_z} nodes, got {n}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise DataError(f"value of node {int(np.argmax(bad))} is not finite")

    index = build_zones(nodes, compute_delta(n, config.n_z, 1))
    neighbor_ids = index.nearest_m(nodes, config.n_z).ids
    centers = np.take(nodes, neighbor_ids, axis=0)
    _reject_duplicates(nodes, neighbor_ids, centers)
    a, b, path = solve_saddle_batch(
        config.kernel,
        config.degree,
        centers,
        values[neighbor_ids],
        rtol=config.rtol,
        strict=config.strict,
    )
    return ShepardModel(
        nodes=nodes,
        config=config,
        neighbor_ids=neighbor_ids,
        coeff_a=a,
        coeff_b=b,
        solve_path=path,
        index=index,
    )


def weights(x, model: ShepardModel, neighbor_ids, neighbor_dists) -> np.ndarray:
    """Normalized inverse-distance weights over evaluation neighborhoods.

    x is one point (3,) with 1-D neighbor arrays, or p points (p, 3) with
    (p, k) ones; the result has the shape of `neighbor_dists`.  Each neighbor
    set must already be truncated to the active nodes (ascending distance).
    Where x lies on a node, that node takes weight 1.
    """
    ids = np.asarray(neighbor_ids)
    dists = np.array(neighbor_dists, dtype=float)
    if ids.shape[-1] == 0:
        raise ValueError("no nodes in range of the evaluation point")
    single = dists.ndim == 1
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    ids, dists = ids.reshape(x.shape[0], -1), dists.reshape(x.shape[0], -1)
    close = dists < _CHORD_RECOMPUTE
    if np.any(close):
        rows = np.nonzero(close)[0]
        chord = np.linalg.norm(model.nodes[ids[close]] - x[rows], axis=-1)
        dists[close] = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    hit = np.argmin(dists, axis=1)
    on_node = dists[np.arange(dists.shape[0]), hit] <= COINCIDENCE_TOL
    w = 1.0 / np.where(on_node[:, None], 1.0, dists)
    w = w / w.sum(axis=1, keepdims=True)
    w[on_node] = np.arange(w.shape[1]) == hit[on_node, None]
    return w[0] if single else w


def evaluate(model: ShepardModel, eval_points) -> np.ndarray:
    """Evaluate the blended surface at each evaluation point.

    eval_points: finite unit vectors (3,) or (p, 3), else DataError.
    """
    pts = _unit_points(eval_points, "evaluation point")
    found = model.index.nearest_m(pts, min(model.config.n_w, model.nodes.shape[0]))
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], EVAL_CHUNK):
        x = pts[lo : lo + EVAL_CHUNK]
        ids = found.ids[lo : lo + EVAL_CHUNK]
        w = weights(x, model, ids, found.distances[lo : lo + EVAL_CHUNK])
        local = eval_local(
            model.config.kernel,
            model.config.degree,
            np.take(model.nodes, model.neighbor_ids[ids], axis=0),
            model.coeff_a[ids],
            model.coeff_b[ids],
            x[:, None, :],
        )
        out[lo : lo + EVAL_CHUNK] = np.einsum("pk,pk->p", w, local)
    return out
