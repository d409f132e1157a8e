"""Zonal basis (kernel) functions of geodesic distance on the sphere.

A zonal kernel depends on two sphere points only through their geodesic
distance t = arccos(u . v); ``at_cos`` evaluates it from c = cos t = u . v.

The inverse multiquadric

    psi(t) = (1 + gamma^2 - 2 gamma cos t)^(-1/2),   0 < gamma < 1,

is strictly positive definite on the sphere, so kernel matrices over
distinct nodes are symmetric positive definite.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class InverseMultiquadric:
    """Spherical inverse multiquadric with shape parameter gamma in (0, 1)."""

    gamma: float

    def __post_init__(self):
        if not (isinstance(self.gamma, numbers.Real) and 0.0 < self.gamma < 1.0):
            raise ConfigError(
                f"inverse multiquadric needs gamma strictly in (0, 1), got {self.gamma!r}"
            )

    def at_cos(self, c) -> np.ndarray:
        g = self.gamma
        return (1.0 + g * g - 2.0 * g * np.asarray(c, dtype=float)) ** -0.5

