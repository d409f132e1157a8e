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
the latitude-zone structure, with cap radii escalating per point until the
required neighbor count is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import ConfigError
from .kernels import InverseMultiquadric
from .localfit import DEFAULT_RTOL, PATH_LSTSQ, LocalInterpolant, solve_saddle_batch
from .zones import build_zones, compute_delta

# Geodesic distance at or below which an evaluation point is treated as one
# of the nodes (the 1/g weight is singular there).
COINCIDENCE_TOL = 1e-12

# Below this, arccos of a dot product has lost most digits; recompute the
# distance from the chord, which is exact at zero separation.
_CHORD_RECOMPUTE = 1e-6


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
    """All n fitted local interpolants plus the configuration."""

    nodes: np.ndarray         # (n, 3)
    values: np.ndarray        # (n,)
    config: ShepardConfig
    neighbor_ids: np.ndarray  # (n, n_z), row j = nodes fitted by local j
    centers: np.ndarray       # (n, n_z, 3) == nodes[neighbor_ids]
    coeff_a: np.ndarray       # (n, n_z)
    coeff_b: np.ndarray       # (n, (L+1)^2)
    solve_path: np.ndarray    # (n,) uint8 localfit.PATH_* code per local fit

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
            centers=self.centers[j],
            a=self.coeff_a[j],
            b=self.coeff_b[j],
            kernel=self.config.kernel,
            degree=self.config.degree,
            solve_path=int(self.solve_path[j]),
        )


def fit(nodes, values, config: ShepardConfig) -> ShepardModel:
    """Fit one local interpolant per node on its n_z nearest nodes."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    values = np.asarray(values, dtype=float).reshape(-1)
    n = nodes.shape[0]
    if values.shape[0] != n:
        raise ValueError(f"got {n} nodes but {values.shape[0]} values")
    if n < config.n_z:
        raise ConfigError(f"need at least n_z={config.n_z} nodes, got {n}")

    index = build_zones(nodes, compute_delta(n, config.n_z, 1))
    neighbor_ids = np.empty((n, config.n_z), dtype=int)
    for j in range(n):
        neighbor_ids[j] = index.nearest_m(nodes[j], config.n_z, n_formula=n).ids

    centers = nodes[neighbor_ids]
    a, b, path = solve_saddle_batch(
        config.kernel,
        config.degree,
        centers,
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
        centers=centers,
        coeff_a=a,
        coeff_b=b,
        solve_path=path,
    )


def weights(x, model: ShepardModel, neighbor_ids, neighbor_dists) -> np.ndarray:
    """Normalized inverse-distance weights over an evaluation neighborhood.

    The neighbor set must already be truncated to the active nodes (ascending
    distance).  If x lies on a node, that node takes weight 1.
    """
    neighbor_ids = np.asarray(neighbor_ids)
    dists = np.array(neighbor_dists, dtype=float)
    if neighbor_ids.size == 0:
        raise ValueError("no nodes in range of the evaluation point")
    close = dists < _CHORD_RECOMPUTE
    if np.any(close):
        x = np.asarray(x, dtype=float)
        chord = np.linalg.norm(model.nodes[neighbor_ids[close]] - x, axis=-1)
        dists[close] = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    hit = np.argmin(dists)
    w = np.zeros(dists.shape)
    if dists[hit] <= COINCIDENCE_TOL:
        w[hit] = 1.0
        return w
    w = 1.0 / dists
    return w / w.sum()


def _local_values(model: ShepardModel, ids, x) -> np.ndarray:
    """Evaluate Z_j(x) for each local interpolant j in `ids`."""
    dots = np.clip(np.einsum("mik,k->mi", model.centers[ids], x), -1.0, 1.0)
    out = np.einsum("mi,mi->m", model.config.kernel.at_cos(dots), model.coeff_a[ids])
    if model.config.degree >= 0:
        out = out + model.coeff_b[ids] @ harmonics.sh_basis(x, model.config.degree)
    return out


def evaluate(model: ShepardModel, eval_points) -> np.ndarray:
    """Evaluate the blended surface at each evaluation point."""
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 3)
    n = model.nodes.shape[0]
    m_w = min(model.config.n_w, n)
    index = build_zones(model.nodes, compute_delta(n, model.config.n_w, 1))
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        found = index.nearest_m(x, m_w, n_formula=n)
        w = weights(x, model, found.ids, found.distances)
        out[i] = w @ _local_values(model, found.ids, x)
    return out
