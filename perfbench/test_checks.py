"""The benchmark's output checks accept real output and reject corrupted output.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from sphshepard import InverseMultiquadric, ShepardConfig, evaluate, fit  # noqa: E402
from sphshepard import random_uniform_sphere, spiral_points  # noqa: E402

GAMMA, N_W = 0.5, 10


@pytest.fixture(scope="module", params=[2, -1], ids=["L2", "L-1"])
def case(request):
    degree = request.param
    nodes = random_uniform_sphere(800, 7).points
    values = checks.f1(nodes)
    model = fit(nodes, values, ShepardConfig(
        n_z=15, n_w=N_W, kernel=InverseMultiquadric(GAMMA), degree=degree))
    pts = spiral_points(60).points
    return degree, nodes, values, model, pts, evaluate(model, pts)


def _copy(model):
    return {k: np.array(getattr(model, k)) for k in ("neighbor_ids", "coeff_a", "coeff_b")}


def test_reference_harmonics_match_closed_forms():
    p = random_uniform_sphere(50, 1).points
    x, y, z = p.T
    c1, c2 = np.sqrt(3 / (4 * np.pi)), np.sqrt(15 / (4 * np.pi))
    want = np.stack([np.full_like(x, 0.5 / np.sqrt(np.pi)), c1 * y, c1 * z, c1 * x,
                     c2 * x * y, c2 * y * z, np.sqrt(5 / (16 * np.pi)) * (3 * z * z - 1),
                     c2 * x * z, np.sqrt(15 / (16 * np.pi)) * (x * x - y * y)], axis=-1)
    assert np.allclose(checks.sh_reference(p, 2), want, rtol=0, atol=1e-15)


def test_neighbors_accept_and_reject_swapped_id(case):
    _, nodes, _, model, _, _ = case
    assert checks.check_neighbors(nodes, model.neighbor_ids) == []
    ids = _copy(model)["neighbor_ids"]
    far = int(np.argmin(nodes @ nodes[3]))  # antipode-most node of node 3
    ids[3, -1] = far
    assert checks.check_neighbors(nodes, ids)
    ids = _copy(model)["neighbor_ids"]
    ids[5, 1] = ids[5, 2]
    assert checks.check_neighbors(nodes, ids)


def test_residuals_accept_and_reject_perturbed_coefficient(case):
    degree, nodes, values, model, _, _ = case
    arrs = _copy(model)
    args = (nodes, values, arrs["neighbor_ids"])
    assert checks.check_local_residuals(*args, arrs["coeff_a"], arrs["coeff_b"], GAMMA, degree) == []
    a = arrs["coeff_a"].copy()
    a[11, 4] += 1e-6 * (1.0 + abs(a[11, 4]))
    assert checks.check_local_residuals(*args, a, arrs["coeff_b"], GAMMA, degree)
    if degree >= 0:
        b = arrs["coeff_b"].copy()
        b[11, 0] += 1e-6
        assert checks.check_local_residuals(*args, arrs["coeff_a"], b, GAMMA, degree)


def test_blend_accepts_and_rejects_shifted_value(case):
    degree, nodes, _, model, pts, got = case
    arrs = _copy(model)
    ref, scale = checks.reference_blend(
        nodes, arrs["neighbor_ids"], arrs["coeff_a"], arrs["coeff_b"], GAMMA, degree, N_W, pts)
    assert checks.check_close(got, ref, scale, "blend") == []
    shifted = got.copy()
    shifted[17] += 1e-9
    assert checks.check_close(shifted, ref, scale, "blend")
    # the reference itself depends on the coefficients it is given
    a = arrs["coeff_a"].copy()
    a[:, 0] *= 1.0 + 1e-6
    ref2, scale2 = checks.reference_blend(
        nodes, arrs["neighbor_ids"], a, arrs["coeff_b"], GAMMA, degree, N_W, pts)
    assert checks.check_close(got, ref2, scale2, "blend")


def test_single_point_results_must_match_batched(case):
    _, _, _, model, pts, got = case
    singles = np.array([evaluate(model, p[None])[0] for p in pts[:10]])
    scale = np.abs(got[:10]) + 1.0
    assert checks.check_close(singles, got[:10], scale, "single") == []
    singles[4] += 1e-10
    assert checks.check_close(singles, got[:10], scale, "single")


def test_rrmse_band_and_finite_checks(case):
    _, _, _, _, pts, got = case
    value = checks.rrmse(got, checks.f1(pts))
    assert checks.check_rrmse(value, value / 10, value * 10, "case") == []
    assert checks.check_rrmse(value * 100, value / 10, value * 10, "case")
    assert checks.check_rrmse(checks.rrmse(got + 0.1, checks.f1(pts)), 0.0, value * 10, "case")
    assert checks.check_finite("values", got) == []
    bad = got.copy()
    bad[0] = np.nan
    assert checks.check_finite("values", bad)
