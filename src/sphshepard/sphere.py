"""Geometry of the unit sphere: points, geodesic distance, spherical caps.

Points live in Cartesian coordinates as unit 3-vectors, either a single
shape ``(3,)`` array or a stack of shape ``(n, 3)``.  All formulas downstream
(dot products, z-sorting) are Cartesian-native, so nothing here converts to
latitude/longitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


def normalize(v) -> np.ndarray:
    """Scale a 3-vector (or rows of an (n, 3) array) to unit length.

    Raises ValueError if any input vector has zero norm.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def geodesic_distance(u, v) -> np.ndarray:
    """Great-circle distance arccos(u . v) between unit vectors, in [0, pi].

    Broadcasts over leading dimensions.  The dot product is clamped to
    [-1, 1] first: rounding can push dots of unit vectors past 1, and
    arccos would return NaN.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dots = np.sum(u * v, axis=-1)
    return np.arccos(np.clip(dots, -1.0, 1.0))


@dataclass(frozen=True)
class SphericalCap:
    """Set of sphere points within geodesic distance `radius` of `center`."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius <= np.pi:
            raise ValueError(f"cap radius must be in [0, pi], got {self.radius}")

    def contains(self, p) -> np.ndarray:
        """True where geodesic_distance(center, p) <= radius."""
        return geodesic_distance(self.center, p) <= self.radius
