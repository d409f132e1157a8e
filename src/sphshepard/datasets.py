"""Point-set generation, test functions, CSV I/O, and train/test splitting.

Random node sets are drawn with numpy's default PCG64 generator by
normalizing 3-D standard Gaussians, which is uniform on the sphere and
reproducible per seed.  Quasi-uniform evaluation sets come from the
generalized spiral: s latitudes equally spaced in z from the south to the
north pole, with the azimuth advancing by 3.6/sqrt(s)/sqrt(1 - z^2) per
step so consecutive points keep a roughly constant surface distance.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import ConfigError, DataError
from .sphere import geodesic_distance


@dataclass(frozen=True)
class PointSet:
    """Unit-sphere points with optional attached data values."""

    points: np.ndarray            # (n, 3)
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.values is not None and self.values.shape[0] != self.points.shape[0]:
            raise ValueError(
                f"{self.points.shape[0]} points but {self.values.shape[0]} values"
            )

    def __len__(self) -> int:
        return self.points.shape[0]


def random_uniform_sphere(n: int, seed: int) -> PointSet:
    """n points uniform on the sphere (normalized Gaussian method)."""
    if n < 1:
        raise ConfigError(f"need n >= 1 points, got {n}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):  # astronomically rare; resample degenerate draws
        bad = norms < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(pts, axis=1)
    return PointSet(pts / norms[:, None])


def spiral_points(s: int) -> PointSet:
    """s spiral points from the south pole to the north pole."""
    if s < 2:
        raise ConfigError(f"a spiral needs s >= 2 points, got {s}")
    z = -1.0 + 2.0 * np.arange(s) / (s - 1)
    sin_theta = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    phi = np.zeros(s)
    step = 3.6 / math.sqrt(s)
    for k in range(1, s - 1):
        phi[k] = (phi[k - 1] + step / sin_theta[k]) % (2.0 * np.pi)
    pts = np.stack([np.cos(phi) * sin_theta, np.sin(phi) * sin_theta, z], axis=-1)
    return PointSet(pts)


def test_function(fid: str, p) -> np.ndarray:
    """Benchmark test functions restricted to the sphere."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if fid == "f1":
        return (np.exp(x) + 2.0 * np.exp(y + z)) / 10.0
    if fid == "f2":
        return np.sin(x) * np.sin(y) * np.sin(z)
    raise ValueError(f"unknown test function {fid!r}; known: f1, f2")


def synthetic_geomagnetic(n: int, seed: int, noise: float = 0.0) -> PointSet:
    """Geomagnetic-style field samples at n near-uniform points (values in nT).

    The field is a dipole-like intensity plus a random degree-<=2 harmonic
    contribution and a handful of localized cap anomalies, with optional
    additive Gaussian noise.  It stands in for real satellite data in the
    cross-validation workflow; no fidelity to any particular survey is
    claimed.
    """
    if not 0.0 <= noise < np.inf:
        raise ConfigError(f"noise sigma must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    pts = random_uniform_sphere(n, seed).points
    z = pts[:, 2]
    vals = 30000.0 * np.sqrt(1.0 + 3.0 * z * z)
    vals += harmonics.sh_basis(pts, 2) @ (
        rng.normal(size=9) * np.repeat([1500.0, 900.0, 500.0], [1, 3, 5])
    )
    for _ in range(8):
        center = pts[rng.integers(n)]
        width = rng.uniform(0.05, 0.3)
        amp = rng.normal() * 400.0
        g = geodesic_distance(pts, center)
        vals += amp * np.exp(-((g / width) ** 2))
    if noise > 0.0:
        vals += noise * rng.standard_normal(n)
    return PointSet(pts, vals)


def split_cross_validation(data: PointSet, s: int, seed: int) -> tuple[PointSet, PointSet]:
    """Random disjoint split into (train, test) with |test| = s."""
    n = len(data)
    if not 0 <= s < n:
        raise ValueError(f"holdout size must be in 0..{n - 1}, got {s}")
    perm = np.random.default_rng(seed).permutation(n)
    test_ids = np.sort(perm[:s])
    train_ids = np.sort(perm[s:])
    def take(ids):
        vals = None if data.values is None else data.values[ids]
        return PointSet(data.points[ids], vals)
    return take(train_ids), take(test_ids)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv(path, geo: bool = False) -> PointSet:
    """Read a node/evaluation-point CSV.

    Cartesian mode: rows ``x,y,z`` or ``x,y,z,value``.  Geographic mode
    (``geo=True``): rows ``lat,lon`` or ``lat,lon,value`` in degrees, with
    |lat| <= 90 and a finite lon.  The header line is optional; non-unit
    points are normalized.  A row whose point has no finite, positive length
    (all coordinates zero or tiny, one too large to square, inf or NaN) or
    whose value is not finite raises DataError naming its line.
    """
    rows = []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            row = [t.strip() for t in row if t.strip() != ""] if row else []
            if not row:
                continue
            if header_allowed and not all(_is_number(t) for t in row):
                header_allowed = False
                continue  # single optional header line
            header_allowed = False
            rows.append((lineno, row))

    if not rows:
        warnings.warn(f"{path}: no data rows, returning an empty point set")
        return PointSet(np.empty((0, 3)), None)

    coord_cols = 2 if geo else 3
    width = len(rows[0][1])
    if width not in (coord_cols, coord_cols + 1):
        raise DataError(
            f"expected {coord_cols} or {coord_cols + 1} fields, got {width}",
            line=rows[0][0],
        )

    pts = np.empty((len(rows), 3))
    vals = np.empty(len(rows)) if width == coord_cols + 1 else None
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise DataError(f"expected {width} fields, got {len(row)}", line=lineno)
        try:
            nums = [float(t) for t in row]
        except ValueError as exc:
            raise DataError(str(exc), line=lineno) from None
        if geo:
            if not (abs(nums[0]) <= 90.0 and math.isfinite(nums[1])):
                raise DataError(f"latitude {row[0]} is not in [-90, 90] or longitude "
                                f"{row[1]} is not finite", line=lineno)
            lat, lon = math.radians(nums[0]), math.radians(nums[1])
            pts[i] = (
                math.cos(lat) * math.cos(lon),
                math.cos(lat) * math.sin(lon),
                math.sin(lat),
            )
        else:
            # x*x would not raise, but it can round differently from x**2 (pow).
            try:
                norm = math.sqrt(nums[0] ** 2 + nums[1] ** 2 + nums[2] ** 2)
            except OverflowError:
                norm = math.inf
            if not 0.0 < norm < math.inf:  # a NaN fails too
                raise DataError(f"point length {norm!r} is not finite and positive, "
                                "so it cannot be normalized", line=lineno)
            pts[i] = (nums[0] / norm, nums[1] / norm, nums[2] / norm)
        if vals is not None:
            if not math.isfinite(nums[coord_cols]):
                raise DataError(f"value {row[coord_cols]} is not finite", line=lineno)
            vals[i] = nums[coord_cols]
    return PointSet(pts, vals)


def write_table(path, header, rows) -> None:
    """Write a header line and rows as CSV; the csv module writes a float as its repr.

    Pass Python floats (``ndarray.tolist()``): a numpy scalar's repr is not
    its digits.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, data: PointSet, value_header: str = "value") -> None:
    """Write a point set as ``x,y,z[,value]`` rows with a header line."""
    header, rows = ["x", "y", "z"], np.asarray(data.points, dtype=float)
    if data.values is not None:
        header.append(value_header)
        rows = np.column_stack([rows, np.asarray(data.values, dtype=float)])
    write_table(path, header, rows.tolist())
