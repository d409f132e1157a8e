"""Error measures for benchmarking interpolation accuracy.

RRMSE is the l2-relative error ||predicted - truth||_2 / ||truth||_2 over the
evaluation set.  `rrmse` alone computes it; all-zero truth raises there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


class UndefinedRelativeError(DataError):
    """Relative error is undefined because the truth vector is all zero."""


@dataclass(frozen=True)
class ErrorReport:
    rrmse: float
    rmse: float
    max_abs_error: float
    count: int


def _check_pair(predicted, truth):
    p = np.asarray(predicted, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predicted vs {t.shape[0]} truth")
    if p.size == 0:
        raise ValueError("empty inputs")
    return p, t


def rrmse(predicted, truth) -> float:
    p, t = _check_pair(predicted, truth)
    scale = np.linalg.norm(t)
    if scale == 0.0:
        raise UndefinedRelativeError("RRMSE is undefined: the truth values are all zero")
    return float(np.linalg.norm(p - t) / scale)


def error_report(predicted, truth) -> ErrorReport:
    """RRMSE, RMSE and max error; zero truth raises UndefinedRelativeError, as in rrmse."""
    p, t = _check_pair(predicted, truth)
    err = np.abs(p - t)
    return ErrorReport(rrmse=rrmse(p, t), rmse=float(np.linalg.norm(err) / np.sqrt(err.size)),
                       max_abs_error=float(err.max()), count=err.size)
