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
        u = harmonics.sh_dim(self.degree)
        if self.n_z < u:
            raise ConfigError(
                f"n_z must satisfy n_z >= (L+1)^2; got n_z={self.n_z} < {u} "
                f"for degree L={self.degree}"
            )


@dataclass(frozen=True)
class ShepardModel:
    """All n fitted local interpolants, the configuration and the zone index.

    Local fit j is centered on nodes[neighbor_ids[j]]; its first row is node j.
    """

    nodes: np.ndarray         # (n, 3)
    values: np.ndarray        # (n,)
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

    @property
    def local_fits(self) -> list[LocalInterpolant]:
        """Per-node LocalInterpolant views (locals[j] is centered on node j)."""
        return [self.local_fit(j) for j in range(self.nodes.shape[0])]

    def local_fit(self, j: int) -> LocalInterpolant:
        return LocalInterpolant(
            centers=self.nodes[self.neighbor_ids[j]],
            a=self.coeff_a[j],
            b=self.coeff_b[j],
            kernel=self.config.kernel,
            degree=self.config.degree,
            solve_path=int(self.solve_path[j]),
        )


def _finite(array, what: str) -> None:
    """Raise DataError naming the first row of `array` that is not finite."""
    bad = ~np.isfinite(array)
    if bad.ndim > 1:
        bad = bad.any(axis=1)
    if bad.any():
        raise DataError(f"{what} {int(np.argmax(bad))} is not finite")


def fit(nodes, values, config: ShepardConfig) -> ShepardModel:
    """Fit one local interpolant per node on its n_z nearest nodes."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    values = np.asarray(values, dtype=float).reshape(-1)
    n = nodes.shape[0]
    if values.shape[0] != n:
        raise ValueError(f"got {n} nodes but {values.shape[0]} values")
    if n < config.n_z:
        raise ConfigError(f"need at least n_z={config.n_z} nodes, got {n}")
    _finite(nodes, "node")
    _finite(values, "value of node")

    index = build_zones(nodes, compute_delta(n, config.n_z, 1))
    neighbor_ids = index.nearest_m(nodes, config.n_z, n_formula=n).ids
    a, b, path = solve_saddle_batch(
        config.kernel,
        config.degree,
        nodes[neighbor_ids],
        values[neighbor_ids],
        rtol=config.rtol,
        node_indices=np.arange(n),
        strict=config.strict,
    )
    return ShepardModel(
        nodes=nodes,
        values=values,
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
    """Evaluate the blended surface at each evaluation point."""
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 3)
    _finite(pts, "evaluation point")
    n = model.nodes.shape[0]
    found = model.index.nearest_m(pts, min(model.config.n_w, n), n_formula=n)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], EVAL_CHUNK):
        x = pts[lo : lo + EVAL_CHUNK]
        ids = found.ids[lo : lo + EVAL_CHUNK]
        w = weights(x, model, ids, found.distances[lo : lo + EVAL_CHUNK])
        local = eval_local(
            model.config.kernel,
            model.config.degree,
            model.nodes[model.neighbor_ids[ids]],
            model.coeff_a[ids],
            model.coeff_b[ids],
            x[:, None, :],
        )
        out[lo : lo + EVAL_CHUNK] = np.einsum("pk,pk->p", w, local)
    return out
