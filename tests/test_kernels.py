import numpy as np
import pytest

from sphshepard import ConfigError, InverseMultiquadric, normalize


def gram_cos(nodes):
    """Clipped pairwise dot products cos g(x_i, x_j), the kernel block's argument."""
    return np.clip(nodes @ nodes.T, -1.0, 1.0)


def test_imq_at_zero_distance():
    # c = 1 collapses to 1/(1 - gamma)
    assert InverseMultiquadric(0.5).at_cos(1.0) == pytest.approx(2.0, abs=1e-15)


def test_imq_at_pi():
    # c = -1 gives 1/(1 + gamma)
    assert InverseMultiquadric(0.5).at_cos(-1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_imq_sharp_shape_at_right_angle():
    # direct arithmetic oracle: (1 + 0.96^2 - 0)^(-1/2)
    expect = (1.0 + 0.96**2) ** -0.5
    assert InverseMultiquadric(0.96).at_cos(0.0) == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_gamma_outside_open_interval_rejected(gamma):
    with pytest.raises(ConfigError):
        InverseMultiquadric(gamma)


def test_kernel_matrix_single_node():
    A = InverseMultiquadric(0.5).at_cos(gram_cos(np.array([[0.0, 0.0, 1.0]])))
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_kernel_matrix_antipodal_pair():
    nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    A = InverseMultiquadric(0.5).at_cos(gram_cos(nodes))
    assert np.allclose(A, [[2.0, 2.0 / 3.0], [2.0 / 3.0, 2.0]], atol=1e-15)


def test_kernel_matrix_positive_definite():
    nodes = normalize(np.random.default_rng(9).normal(size=(5, 3)))
    A = InverseMultiquadric(0.5).at_cos(gram_cos(nodes))
    assert np.allclose(A, A.T, atol=0)
    # eigenvalue oracle on the assembled matrix
    assert np.linalg.eigvalsh(A).min() > 0.0
    np.linalg.cholesky(A)


def test_kernel_strictly_decreasing():
    kernel = InverseMultiquadric(0.5)
    t = np.linspace(0.0, np.pi, 200)
    vals = kernel.at_cos(np.cos(t))
    assert np.all(np.diff(vals) < 0.0)


def test_kernel_matrix_rotation_invariant():
    rng = np.random.default_rng(10)
    nodes = normalize(rng.normal(size=(12, 3)))
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    kernel = InverseMultiquadric(0.5)
    A = kernel.at_cos(gram_cos(nodes))
    B = kernel.at_cos(gram_cos(nodes @ rot.T))
    assert np.max(np.abs(A - B)) <= 1e-12

