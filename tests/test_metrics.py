import math

import numpy as np
import pytest

from sphshepard import DataError, error_report, rrmse
from sphshepard.metrics import UndefinedRelativeError


def test_exact_prediction_gives_zero():
    t = np.array([1.0, -2.0, 3.0])
    assert rrmse(t, t) == 0.0


def test_doubling_gives_one():
    t = np.array([0.5, 1.5, -2.0, 4.0])
    assert rrmse(2.0 * t, t) == pytest.approx(1.0, abs=1e-15)


def test_single_component_perturbation():
    truth = np.zeros(5)
    truth[0] = 1.0
    pred = truth.copy()
    pred[0] += 1e-3
    assert rrmse(pred, truth) == pytest.approx(1e-3, rel=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(0)
    p, t = rng.normal(size=30), rng.normal(size=30)
    base = rrmse(p, t)
    for c in (2.0, -7.5, 1e-6, 3e8):
        assert abs(rrmse(c * p, c * t) - base) <= 1e-14 * base


def test_zero_iff_equal():
    rng = np.random.default_rng(1)
    t = rng.normal(size=10)
    p = t.copy()
    p[3] += 1e-12
    assert rrmse(p, t) > 0.0


def test_zero_truth_raises():
    with pytest.raises(UndefinedRelativeError):
        rrmse(np.ones(3), np.zeros(3))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        rrmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        error_report(np.ones(3), np.ones(2))


def test_empty_inputs_rejected():
    for measure in (rrmse, error_report):
        with pytest.raises(ValueError, match="empty inputs"):
            measure([], [])


def test_report_identical_vectors():
    rep = error_report(np.ones(5), np.ones(5))
    assert rep.rrmse == rep.rmse == rep.max_abs_error == 0.0
    assert rep.count == 5


def test_report_hand_arithmetic():
    # diff = (3, 4): rmse = sqrt(25/2), max = 4
    rep = error_report(np.array([4.0, 4.0]), np.array([1.0, 0.0]))
    assert rep.rmse == pytest.approx(math.sqrt(12.5), abs=1e-14)
    assert rep.max_abs_error == 4.0
    assert rep.count == 2


def test_rmse_never_exceeds_max_error():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p, t = rng.normal(size=15), rng.normal(size=15)
        rep = error_report(p, t)
        assert rep.rmse <= rep.max_abs_error + 1e-15


def test_report_zero_truth_raises_undefined_relative_error():
    with pytest.raises(UndefinedRelativeError, match="RRMSE is undefined") as caught:
        error_report(np.array([3.0, 4.0]), np.zeros(2))
    assert isinstance(caught.value, DataError)


def test_report_rrmse_is_rrmse():
    rng = np.random.default_rng(3)
    p, t = rng.normal(size=40), rng.normal(size=40)
    assert error_report(p, t).rrmse == rrmse(p, t)
