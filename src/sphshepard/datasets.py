"""Point-set generation, test functions, CSV I/O, and train/test splitting.

Random node sets are 3-D standard Gaussians from numpy's default PCG64
generator, scaled to unit length by `sphere.normalize`: uniform on the
sphere and reproducible per seed.  Quasi-uniform evaluation sets come from the
generalized spiral: s latitudes equally spaced in z from the south to the
north pole, with the azimuth advancing by 3.6/sqrt(s)/sqrt(1 - z^2) per
step so consecutive points keep a roughly constant surface distance.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import harmonics
from .errors import ConfigError, DataError
from .sphere import geodesic_distance, normalize, unit_lengths


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
    return PointSet(normalize(np.random.default_rng(seed).standard_normal((n, 3))))


def spiral_points(s: int) -> PointSet:
    """s spiral points from the south pole to the north pole.

    The azimuth stays a loop: each step reduces mod 2*pi, and a cumulative
    sum reduced once would round differently.  The loop runs on Python
    floats, whose + and % are the same IEEE operations as numpy's, without
    a numpy scalar per point.
    """
    if s < 2:
        raise ConfigError(f"a spiral needs s >= 2 points, got {s}")
    z = -1.0 + 2.0 * np.arange(s) / (s - 1)
    sin_theta = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    step, two_pi = 3.6 / math.sqrt(s), 2.0 * math.pi
    phi, angle = [0.0], 0.0
    for inc in (step / sin_theta[1:-1]).tolist():
        angle = (angle + inc) % two_pi
        phi.append(angle)
    phi.append(0.0)  # the north pole
    phi = np.array(phi)
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
    pts = random_uniform_sphere(n, seed).points
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])  # not the points' stream
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


def load_csv(path, geo: bool = False) -> PointSet:
    """Read a node/evaluation-point CSV.

    Cartesian mode: rows ``x,y,z`` or ``x,y,z,value``.  Geographic mode
    (``geo=True``): rows ``lat,lon`` or ``lat,lon,value`` in degrees, with
    |lat| <= 90 and a finite lon.  Rows of empty fields are skipped; the first
    other line is a header when one of its non-empty fields is not a number.
    Rows that are unit vectors by `sphere.unit_lengths` (length within
    NORM_TOL of 1) are kept as read; any other point is normalized.  An
    empty field, a point without finite, positive length (all coordinates
    zero or tiny, one too large to square, inf or NaN) or a non-finite value
    raises DataError naming file and line, and a file without data rows one
    naming the file.
    """
    coord_cols = 2 if geo else 3
    widths, header_allowed = (coord_cols, coord_cols + 1), True
    pts, vals = array("d"), array("d")
    for lineno, row in enumerate(_csv_rows(path), start=1):
        row = [t.strip() for t in row]
        if not any(row):
            continue
        try:
            nums, error = [float(t) for t in row if t], None
        except ValueError as exc:
            nums, error = None, exc
        if header_allowed and error:
            header_allowed = False
            continue  # single optional header line
        header_allowed = False
        if "" in row:
            raise DataError(f"field {row.index('') + 1} is empty", lineno, path)
        if len(row) not in widths:
            expected = " or ".join(map(str, widths))
            raise DataError(f"expected {expected} fields, got {len(row)}", lineno, path)
        widths = (len(row),)
        if error:
            raise DataError(str(error), lineno, path)
        if geo:
            if not (abs(nums[0]) <= 90.0 and math.isfinite(nums[1])):
                raise DataError(f"latitude {row[0]} is not in [-90, 90] or longitude "
                                f"{row[1]} is not finite", lineno, path)
            lat, lon = math.radians(nums[0]), math.radians(nums[1])
            pts.extend((math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                        math.sin(lat)))
        else:
            x, y, z = nums[:3]
            norm = math.sqrt(x * x + y * y + z * z)  # a square too large to hold is inf
            if not 0.0 < norm < math.inf:  # a NaN fails too
                raise DataError(f"point length {norm!r} is not finite and positive, "
                                "so it cannot be normalized", lineno, path)
            pts.extend((x, y, z))
        if len(row) > coord_cols:
            if not math.isfinite(nums[-1]):
                raise DataError(f"value {row[-1]} is not finite", lineno, path)
            vals.append(nums[-1])
    if not pts:
        raise DataError("no data rows", path=path)
    points = np.frombuffer(pts).reshape(-1, 3)
    off = unit_lengths(points)[1]
    if off is not None:
        points[off] = normalize(points[off])
    return PointSet(points, np.frombuffer(vals) if vals else None)


def _csv_rows(path):
    """Yield the rows of a UTF-8 CSV file; a file that cannot be read as CSV text raises DataError.

    A leading byte-order mark is dropped, so it cannot hide a first row's
    number.  A decode error names no line: the text layer decodes the file in
    chunks, so the row at which it surfaces need not hold the bad byte.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise DataError(str(exc), reader.line_num, path) from None
        except UnicodeDecodeError as exc:
            raise decode_error(path, exc) from None


def decode_error(path, exc: UnicodeDecodeError) -> DataError:
    """The DataError for an input file that does not decode as text."""
    return DataError(f"cannot read as {exc.encoding} text ({exc.reason})", path=path)


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
