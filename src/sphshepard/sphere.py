"""Geometry of the unit sphere: points and geodesic distance.

Points live in Cartesian coordinates as unit 3-vectors, either a single
shape ``(3,)`` array or a stack of shape ``(n, 3)``.  All formulas downstream
(dot products, z-sorting) are Cartesian-native, so nothing here converts to
latitude/longitude.
"""

from __future__ import annotations

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
    # The sum np.sum(u * v, axis=-1) forms, term by term, without its slow
    # reduction over a length-3 axis.
    dots = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]
    return np.arccos(dots.clip(-1.0, 1.0))

