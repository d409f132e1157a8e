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
batched search per stage (each round widens the cap of every point still
short of the required neighbor count).  Evaluation blends EVAL_CHUNK
points at a time with array code.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .errors import ConfigError, DataError, SolveError
from .kernels import InverseMultiquadric
from .localfit import PATH_LSTSQ, PATH_MISSED, RTOL, eval_local, solve_saddle_batch
from .sphere import NORM_TOL, unit_lengths
from .zones import ZoneIndex, build_zones, compute_delta

log = logging.getLogger(__name__)

# Geodesic distance at or below which an evaluation point is treated as one
# of the nodes (the 1/g weight is singular there).
COINCIDENCE_TOL = 1e-12

# Below this, arccos of a dot product has lost most digits; recompute the
# distance from the chord, which is exact at zero separation.
_CHORD_RECOMPUTE = 1e-6

# Evaluation points blended per step: a step's temporaries (~9 kB a point) stay small
# enough that glibc does not trim them from the heap and fault them back on every call.
EVAL_CHUNK = 128


@dataclass(frozen=True)
class ShepardConfig:
    """Localization parameters and local-fit family for one model.

    Construction checks every parameter and raises ConfigError for a
    non-integer n_z, n_w or L, a kernel without ``at_cos``, n_z or n_w below
    1, a degree L outside -1..harmonics.MAX_DEGREE, or n_z < (L+1)^2; the
    kernel checks its own shape parameter.
    """

    n_z: int = 15
    n_w: int = 10
    kernel: object = InverseMultiquadric(0.5)
    degree: int = -1
    strict: bool = True  # False: `fit` keeps, and does not raise on, local misses

    def __post_init__(self):
        for name in ("n_z", "n_w", "degree"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not callable(getattr(self.kernel, "at_cos", None)):
            raise ConfigError(f"kernel must have an at_cos method, got {self.kernel!r}")
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


@dataclass(frozen=True)
class ShepardModel:
    """All n fitted local interpolants, the configuration and the zone index.

    Local fit j is centered on nodes[neighbor_ids[j]], the n_z nodes nearest
    node j by computed distance, ties by id.  That is node j first, unless
    another node lies within rounding of node j (a self distance can read
    1e-8): that node can then come first, or with n_z = 1 stand alone.
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


def _floats(x, what: str) -> np.ndarray:
    """`x` as a float array; DataError if numpy cannot read it as real numbers."""
    try:
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what}s are not numbers: {exc}") from None
    raise DataError(f"{what}s are complex, not real numbers")


def _unit_points(points, what: str) -> np.ndarray:
    """`points` as a (p, 3) array, checked to be finite unit vectors.

    Accepts one point (3,) or a stack (p, 3) whose rows are unit by
    `sphere.unit_lengths`; otherwise raises DataError naming the first
    offending row.
    """
    pts = _floats(points, what)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
        raise DataError(f"{what}s must have shape (3,) or (p, 3), got {pts.shape}")
    pts = pts.reshape(-1, 3)
    lengths, off = unit_lengths(pts)
    if off is not None:
        i = int(np.argmax(off))  # the first row that is not unit
        if not np.all(np.isfinite(pts[i])):
            raise DataError(f"{what} {i} is not finite")
        raise DataError(f"{what} {i} has length {float(lengths[i])!r}, not 1 within {NORM_TOL:g}")
    return pts


def _reject_duplicates(nodes) -> None:
    """DataError naming the two smallest ids of the equal-node group with the smallest id."""
    order = np.lexsort(nodes.T)  # equal rows end up adjacent, in id order
    sorted_nodes = nodes[order]
    pairs = np.flatnonzero(np.all(sorted_nodes[1:] == sorted_nodes[:-1], axis=1))
    if pairs.size:
        k = pairs[np.argmin(order[pairs])]
        raise DataError(f"nodes {order[k]} and {order[k + 1]} have equal coordinates")


def fit(nodes, values, config: ShepardConfig) -> ShepardModel:
    """Fit one local interpolant per node on its n_z nearest nodes.

    nodes: finite, distinct unit vectors (3,) or (n, 3); values: n finite
    numbers.  Other input raises DataError; so do two nodes with exactly
    equal coordinates, for every n_z.  A local system the solver marks `missed`
    (no rung met localfit.RTOL) raises SolveError naming the lowest such node,
    with no residual quoted; under ``strict=False`` its lowest-residual attempt
    is kept and the fit logs one warning.  The model keeps a copy of the nodes,
    and its arrays, the index's included, are read-only.
    """
    nodes = _unit_points(nodes, "node")
    values = _floats(values, "value")
    n = nodes.shape[0]
    if values.ndim > 1 or values.size != n:
        raise DataError(f"got {n} nodes but {values.size} values of shape {values.shape}")
    if n < config.n_z:
        raise ConfigError(f"need at least n_z={config.n_z} nodes, got {n}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise DataError(f"value of node {int(np.argmax(bad))} is not finite")

    _reject_duplicates(nodes)
    index = build_zones(nodes, compute_delta(n, config.n_z, 1))
    nodes = index.points
    neighbor_ids = index.nearest_m(nodes, config.n_z).ids
    a, b, path = solve_saddle_batch(config.kernel, config.degree, nodes, values, neighbor_ids)
    missed = np.flatnonzero(path == PATH_MISSED)
    if missed.size and config.strict:
        raise SolveError("no rung of the retry ladder met the residual tolerance localfit.RTOL; "
                         "ShepardConfig(strict=False) keeps the lowest-residual attempt",
                         node_index=int(missed[0]))
    if missed.size:
        log.warning("%d of %d neighborhoods miss the residual tolerance %g; their "
                    "lowest-residual attempts are kept", missed.size, n, RTOL)
    for arr in (neighbor_ids, a, b, path):
        arr.flags.writeable = False
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
            model.nodes.take(model.neighbor_ids.take(ids, axis=0), axis=0),
            model.coeff_a[ids],
            model.coeff_b[ids],
            x[:, None, :],
        )
        out[lo : lo + EVAL_CHUNK] = np.einsum("pk,pk->p", w, local)
    return out
