"""Error measures for benchmarking interpolation accuracy.

RRMSE is the l2-relative error ||predicted - truth||_2 / ||truth||_2 over
the evaluation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedRelativeError(ValueError):
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
        raise UndefinedRelativeError("truth vector has zero norm; use absolute RMSE")
    return float(np.linalg.norm(p - t) / scale)


def error_report(predicted, truth) -> ErrorReport:
    """RRMSE, RMSE and max error; rrmse falls back to rmse for zero truth."""
    p, t = _check_pair(predicted, truth)
    diff = p - t
    err, scale = np.linalg.norm(diff), np.linalg.norm(t)
    rms = float(err / np.sqrt(diff.size))
    return ErrorReport(
        rrmse=float(err / scale) if scale != 0.0 else rms,
        rmse=rms,
        max_abs_error=float(np.max(np.abs(diff))),
        count=int(diff.size),
    )
