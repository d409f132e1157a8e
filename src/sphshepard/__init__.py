"""Local partition-of-unity interpolation of scattered data on the unit sphere."""

from .datasets import (
    PointSet,
    load_csv,
    random_uniform_sphere,
    spiral_points,
    split_cross_validation,
    synthetic_geomagnetic,
    test_function,
    write_csv,
)
from .errors import ConfigError, DataError, SolveError
from .harmonics import sh_basis, sh_dim
from .kernels import InverseMultiquadric
from .localfit import eval_local
from .metrics import ErrorReport, error_report, rrmse
from .shepard import ShepardConfig, ShepardModel, evaluate, fit, weights
from .sphere import geodesic_distance, normalize
from .zones import NeighborSet, ZoneIndex, build_zones, compute_delta

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "ErrorReport",
    "InverseMultiquadric",
    "NeighborSet",
    "PointSet",
    "ShepardConfig",
    "ShepardModel",
    "SolveError",
    "ZoneIndex",
    "build_zones",
    "compute_delta",
    "error_report",
    "eval_local",
    "evaluate",
    "fit",
    "geodesic_distance",
    "load_csv",
    "normalize",
    "random_uniform_sphere",
    "rrmse",
    "sh_basis",
    "sh_dim",
    "spiral_points",
    "split_cross_validation",
    "synthetic_geomagnetic",
    "test_function",
    "weights",
    "write_csv",
]
