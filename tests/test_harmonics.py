import math

import numpy as np
import pytest

from sphshepard import normalize, sh_basis, sh_dim


def rand_points(n, seed):
    return normalize(np.random.default_rng(seed).normal(size=(n, 3)))


def sphere_quadrature(n_polar):
    """Product quadrature on the sphere: Gauss-Legendre in z, uniform in phi.

    Returns (points, weights) with points of shape (m, 3) and weights summing
    to 4*pi.  Exact for spherical polynomials of degree <= 2*n_polar - 1.
    """
    zs, wz = np.polynomial.legendre.leggauss(n_polar)
    n_phi = 2 * n_polar + 1
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    r = np.sqrt(1.0 - zs * zs)
    pts = np.stack(
        [
            np.outer(r, np.cos(phis)).ravel(),
            np.outer(r, np.sin(phis)).ravel(),
            np.repeat(zs, n_phi),
        ],
        axis=-1,
    )
    w = np.repeat(wz, n_phi) * (2.0 * np.pi / n_phi)
    return pts, w


def sh_orthonormality_check(degree, quadrature_size):
    """Max deviation |<Y_i, Y_j> - delta_ij| under surface-measure quadrature.

    quadrature_size is the Gauss-Legendre order in z; it must make the rule
    exact for degree-2L integrands (order >= L + 1 suffices).
    """
    pts, w = sphere_quadrature(quadrature_size)
    basis = sh_basis(pts, degree)
    gram = basis.T @ (w[:, None] * basis)
    return float(np.max(np.abs(gram - np.eye(sh_dim(degree)))))


@pytest.mark.parametrize("degree,dim", [(-1, 0), (0, 1), (1, 4), (2, 9)])
def test_sh_dim(degree, dim):
    assert sh_dim(degree) == dim


def test_sh_dim_rejects_below_minus_one():
    with pytest.raises(ValueError):
        sh_dim(-2)


def test_basis_empty_for_no_component():
    vals = sh_basis([0.0, 0.0, 1.0], -1)
    assert vals.shape == (0,)


def test_constant_harmonic_normalization():
    # Closed-form oracle: int_{S^2} c^2 dmu = 4*pi*c^2 = 1  =>  c = 1/(2 sqrt(pi))
    c = 1.0 / (2.0 * math.sqrt(math.pi))
    assert c == pytest.approx(0.28209479177387814, abs=1e-16)
    for p in rand_points(10, 7):
        assert sh_basis(p, 0)[0] == pytest.approx(c, abs=1e-15)


def test_degree_one_sum_of_squares_at_pole():
    # Addition theorem oracle: sum over the degree-1 family of Y^2 = 3/(4*pi)
    vals = sh_basis(np.array([0.0, 0.0, 1.0]), 1)
    assert np.sum(vals[1:4] ** 2) == pytest.approx(3.0 / (4.0 * math.pi), abs=1e-14)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_addition_theorem_random_points(d):
    lo, hi = d * d, (d + 1) ** 2
    expect = (2 * d + 1) / (4.0 * math.pi)
    for p in rand_points(25, 100 + d):
        total = np.sum(sh_basis(p, 2)[lo:hi] ** 2)
        assert abs(total - expect) <= 1e-12


@pytest.mark.parametrize("degree,tol", [(0, 1e-12), (1, 1e-10), (2, 1e-10)])
def test_orthonormality(degree, tol):
    assert sh_orthonormality_check(degree, 8) <= tol


def test_quadrature_integrates_constants():
    pts, w = sphere_quadrature(6)
    assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)) <= 1e-12


def test_degree_one_family_spans_coordinates():
    # Least-squares projection of x, y, z onto the degree-1 block is exact.
    pts = rand_points(100, 11)
    basis = sh_basis(pts, 1)[:, 1:4]
    for coord in range(3):
        coeffs, *_ = np.linalg.lstsq(basis, pts[:, coord], rcond=None)
        assert np.max(np.abs(basis @ coeffs - pts[:, coord])) <= 1e-12


def test_basis_ordering_is_degree_major():
    p = normalize(np.array([0.3, -0.5, 0.81]))
    full = sh_basis(p, 2)
    assert np.array_equal(full[:1], sh_basis(p, 0))
    assert np.array_equal(full[:4], sh_basis(p, 1))


def test_degrees_above_two_rejected():
    with pytest.raises(ValueError):
        sh_basis([0.0, 0.0, 1.0], 3)


def test_basis_vectorized_shape():
    pts = rand_points(17, 3)
    assert sh_basis(pts, 2).shape == (17, 9)
    assert sh_basis(pts.reshape(17, 1, 3), 1).shape == (17, 1, 4)
