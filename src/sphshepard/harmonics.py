"""Real orthonormal spherical harmonics up to degree 2, in Cartesian form.

The basis is orthonormal with respect to the surface measure on the unit
sphere and ordered degree-major; within each degree the components follow
the conventional m = -d..d order.  Degree L = -1 denotes the empty basis
(no harmonic component).

Closed forms (x, y, z on the unit sphere):

    d=0:  c00
    d=1:  c1*y,  c1*z,  c1*x
    d=2:  c2*x*y,  c2*y*z,  c20*(3z^2 - 1),  c2*x*z,  c22*(x^2 - y^2)

with normalization constants below.  Degrees above 2 are not provided; the
interpolation configurations shipped here never need them.
"""

from __future__ import annotations

import numpy as np

MAX_DEGREE = 2

_C00 = 0.5 / np.sqrt(np.pi)            # 1/(2 sqrt(pi))
_C1 = np.sqrt(3.0 / (4.0 * np.pi))
_C2 = np.sqrt(15.0 / (4.0 * np.pi))
_C20 = np.sqrt(5.0 / (16.0 * np.pi))
_C22 = np.sqrt(15.0 / (16.0 * np.pi))


def sh_dim(degree: int) -> int:
    """Dimension (L+1)^2 of the space of harmonics of degree <= L (0 for L=-1)."""
    if degree < -1:
        raise ValueError(f"degree must be >= -1, got {degree}")
    return (degree + 1) ** 2


def sh_basis(p, degree: int) -> np.ndarray:
    """Evaluate the orthonormal basis at point(s) p.

    p has shape (3,) or (..., 3); the result has shape (..., (L+1)^2).
    """
    if degree < -1:
        raise ValueError(f"degree must be >= -1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(
            f"closed forms are available up to degree {MAX_DEGREE}, got {degree}"
        )
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape[:-1] + (sh_dim(degree),))
    if degree == -1:
        return out
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    out[..., 0] = _C00
    if degree >= 1:
        out[..., 1] = _C1 * y
        out[..., 2] = _C1 * z
        out[..., 3] = _C1 * x
    if degree >= 2:
        out[..., 4] = _C2 * x * y
        out[..., 5] = _C2 * y * z
        out[..., 6] = _C20 * (3.0 * z * z - 1.0)
        out[..., 7] = _C2 * x * z
        out[..., 8] = _C22 * (x * x - y * y)
    return out

