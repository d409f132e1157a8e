"""Zonal basis (kernel) functions of geodesic distance on the sphere.

A zonal kernel depends on two sphere points only through their geodesic
distance t = arccos(u . v), so every kernel here exposes both ``at_cos``
(from the dot product c = cos t, the cheap path) and ``__call__`` (from t).
The two paths are the same arithmetic and agree to the last bit.

The inverse multiquadric

    psi(t) = (1 + gamma^2 - 2 gamma cos t)^(-1/2),   0 < gamma < 1,

is strictly positive definite on the sphere, so kernel matrices over
distinct nodes are symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class InverseMultiquadric:
    """Spherical inverse multiquadric with shape parameter gamma in (0, 1)."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(
                f"inverse multiquadric needs gamma strictly in (0, 1), got {self.gamma}"
            )

    def at_cos(self, c) -> np.ndarray:
        g = self.gamma
        return (1.0 + g * g - 2.0 * g * np.asarray(c, dtype=float)) ** -0.5

    def __call__(self, t) -> np.ndarray:
        return self.at_cos(np.cos(t))


# Registry for CLI/config lookup; additional families slot in here.
KERNELS = {"imq": InverseMultiquadric}


def make_kernel(family: str, gamma: float):
    try:
        cls = KERNELS[family]
    except KeyError:
        raise ConfigError(f"unknown kernel family {family!r}; known: {sorted(KERNELS)}")
    return cls(gamma)


def kernel_matrix(kernel, nodes) -> np.ndarray:
    """Symmetric matrix A[i, j] = psi(g(x_i, x_j)) over unit-vector nodes.

    Built from pairwise dot products directly (no arccos/cos round trip).
    """
    nodes = np.asarray(nodes, dtype=float)
    dots = np.clip(nodes @ nodes.T, -1.0, 1.0)
    return kernel.at_cos(dots)
