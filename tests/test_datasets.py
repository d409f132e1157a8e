import math

import numpy as np
import pytest

from sphshepard import (
    ConfigError,
    DataError,
    ShepardConfig,
    fit,
    load_csv,
    normalize,
    random_uniform_sphere,
    spiral_points,
    split_cross_validation,
    synthetic_geomagnetic,
    write_csv,
)
from sphshepard import datasets, harmonics
from sphshepard.datasets import PointSet
from sphshepard.sphere import NORM_TOL


# ------------------------------------------------------------ random points


def test_single_random_point_is_unit():
    p = random_uniform_sphere(1, 0).points
    assert p.shape == (1, 3)
    assert abs(np.sum(p * p) - 1.0) <= 1e-12


def test_random_points_center_near_origin():
    # Monte-Carlo oracle: each coordinate has variance 1/3, so the mean of
    # 10000 points has norm ~ sqrt(3 * (1/3)/10000) = 0.01; 0.05 is ~5 sigma.
    pts = random_uniform_sphere(10000, 1).points
    assert np.linalg.norm(pts.mean(axis=0)) <= 0.05


def test_random_hemisphere_balance():
    # binomial oracle: fraction with z > 0 is 0.5 +- 3*sqrt(0.25/10000)
    pts = random_uniform_sphere(10000, 2).points
    frac = np.mean(pts[:, 2] > 0.0)
    assert 0.47 <= frac <= 0.53


def test_random_points_deterministic_per_seed():
    a = random_uniform_sphere(50, 7).points
    b = random_uniform_sphere(50, 7).points
    c = random_uniform_sphere(50, 8).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 7003, 41000])
@pytest.mark.parametrize("n", [1, 600, 16000])
def test_random_points_are_normalized_gaussians(seed, n):
    g = np.random.default_rng(seed).standard_normal((n, 3))
    want = g / np.linalg.norm(g, axis=-1, keepdims=True)
    assert random_uniform_sphere(n, seed).points.tobytes() == want.tobytes()


def test_random_rejects_nonpositive_n():
    with pytest.raises(ConfigError):
        random_uniform_sphere(0, 0)


# ------------------------------------------------------------ spiral


def test_spiral_endpoints_are_poles():
    for s in (2, 10, 601):
        pts = spiral_points(s).points
        assert pts[0].tolist() == [0.0, 0.0, -1.0]
        assert pts[-1].tolist() == [0.0, 0.0, 1.0]


def test_spiral_degenerate_two_points():
    pts = spiral_points(2).points
    assert pts.tolist() == [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]


def test_spiral_rejects_small_s():
    with pytest.raises(ConfigError):
        spiral_points(1)


def test_spiral_quasi_uniformity():
    # brute-force nearest-neighbor spacing stays within a factor 2 of median
    pts = spiral_points(600).points
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    nn = np.arccos(dots.max(axis=1))
    med = np.median(nn)
    assert np.all(nn >= 0.5 * med)
    assert np.all(nn <= 2.0 * med)


def numpy_scalar_spiral(s):
    """The spiral's recurrence stepped through numpy scalars, one per point."""
    z = -1.0 + 2.0 * np.arange(s) / (s - 1)
    sin_theta = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    phi = np.zeros(s)
    step = 3.6 / math.sqrt(s)
    for k in range(1, s - 1):
        phi[k] = (phi[k - 1] + step / sin_theta[k]) % (2.0 * np.pi)
    return np.stack([np.cos(phi) * sin_theta, np.sin(phi) * sin_theta, z], axis=-1)


@pytest.mark.parametrize("s", [2, 3, 4, 600, 601, 10007])
def test_spiral_matches_the_numpy_scalar_recurrence_bit_for_bit(s):
    assert spiral_points(s).points.tobytes() == numpy_scalar_spiral(s).tobytes()


def test_spiral_reproducible():
    assert np.array_equal(spiral_points(123).points, spiral_points(123).points)


def test_spiral_points_are_unit():
    pts = spiral_points(97).points
    assert np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)) <= 1e-12


# ------------------------------------------------------------ test functions


def test_f2_vanishes_on_axis_point():
    assert datasets.test_function("f2", np.array([1.0, 0.0, 0.0])) == 0.0


def test_f1_values_match_arithmetic_oracle():
    assert datasets.test_function("f1", np.array([1.0, 0.0, 0.0])) == pytest.approx(
        (math.e + 2.0) / 10.0, abs=1e-15
    )
    assert datasets.test_function("f1", np.array([0.0, 0.0, 1.0])) == pytest.approx(
        (1.0 + 2.0 * math.e) / 10.0, abs=1e-15
    )


def test_unknown_function_id_rejected():
    with pytest.raises(ValueError):
        datasets.test_function("f3", np.array([1.0, 0.0, 0.0]))


# ------------------------------------------------------------ csv


def test_load_axis_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0,0,1,5.0\n")
    data = load_csv(path)
    assert data.points.tolist() == [[0.0, 0.0, 1.0]]
    assert data.values.tolist() == [5.0]


def test_load_normalizes_non_unit_rows(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,0,2,5.0\n")
    data = load_csv(path)
    assert data.points.tolist() == [[0.0, 0.0, 1.0]]


def test_load_normalizes_with_correctly_rounded_squares(tmp_path):
    """The length is the square root of x*x + y*y + z*z, each square rounded once.

    x = -1.818447760617123 is one of the doubles whose x**2 the C library's pow
    misrounds on some platforms (glibc 2.36); where pow rounds correctly,
    x**2 == x*x and a loader that used either would pass.
    """
    x, y, z = -1.818447760617123, 2.0, 0.0
    path = tmp_path / "round.csv"
    path.write_text(f"{x!r},2,0\n")
    norm = math.sqrt(x * x + y * y + z * z)
    assert load_csv(path).points.tolist() == [[x / norm, y / norm, z / norm]]


def test_load_keeps_exactly_the_rows_fit_accepts(tmp_path):
    # Rows within NORM_TOL of unit length load as written; the others load
    # with normalize's bits, and fit refuses each of them as written.
    unit = random_uniform_sphere(40, 5).points
    scale = np.tile([1 - 0.5 * NORM_TOL, 1 + 0.5 * NORM_TOL, 1 - 2 * NORM_TOL, 1 + 2 * NORM_TOL], 10)
    raw, values = unit * scale[:, None], datasets.test_function("f1", unit)
    path = tmp_path / "near.csv"
    write_csv(path, PointSet(raw, values))
    back = load_csv(path).points
    kept = np.abs(scale - 1.0) < NORM_TOL
    assert np.array_equal(back[kept], raw[kept])
    assert np.array_equal(back[~kept], normalize(raw[~kept]))
    assert not np.array_equal(back[~kept], raw[~kept])
    fit(back, values, ShepardConfig())
    for i in np.flatnonzero(~kept):
        nodes = back.copy()
        nodes[i] = raw[i]
        with pytest.raises(DataError, match=f"^node {i} has length "):
            fit(nodes, values, ShepardConfig())


@pytest.mark.parametrize("text", ["", "x,y,z,value\n", "\n,,\n \n"],
                         ids=["empty", "header-only", "blank-rows"])
def test_load_file_without_data_rows_is_a_data_error(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: no data rows"


def test_load_header_optional(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y,z,value\n1,0,0,2.0\n")
    data = load_csv(path)
    assert len(data) == 1
    assert data.values.tolist() == [2.0]


def test_load_accepts_crlf(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x,y,z,value\r\n1,0,0,2.0\r\n0,1,0,3.0\r\n")
    data = load_csv(path)
    assert len(data) == 2
    assert data.values.tolist() == [2.0, 3.0]


def test_load_drops_a_byte_order_mark(tmp_path):
    # With no header, the first row is data; a mark stuck to its first field
    # would make it read as a header and drop it.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,0,0,5\n0,1,0,6\n0,0,1,7\n")
    data = load_csv(path)
    assert data.values.tolist() == [5.0, 6.0, 7.0]
    assert data.points[0].tolist() == [1.0, 0.0, 0.0]


def test_load_skips_blank_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x,y,z\n\n1,0,0\n , ,\n,,,\n0,1,0\n")  # blank whatever its width
    data = load_csv(path)
    assert data.points.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert data.values is None


def test_point_set_rejects_values_of_another_length():
    with pytest.raises(ValueError, match="3 points but 2 values"):
        PointSet(np.eye(3), np.zeros(2))


def test_load_points_without_values(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,0,0\n0,1,0\n")
    data = load_csv(path)
    assert len(data) == 2
    assert data.values is None


def test_load_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0,0,1.0\n0,oops,0,2.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


def test_load_rejects_zero_row(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("1,0,0,1.0\n0,0,0,2.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("x,y,z,value\n0.6,0.8,0,1\n0.6,,0.8,5\n0.8,,0.6,7\n", "line 3: field 2 is empty"),
    ("1,0,0,\n0,1,0,\n", "line 1: field 4 is empty"),
], ids=["middle-gap", "trailing-comma"])
def test_load_rejects_an_empty_field(tmp_path, text, message):
    # A first line whose non-empty fields are numbers is data, not a header.
    path = tmp_path / "gap.csv"
    path.write_text(text)
    with pytest.raises(DataError) as caught:
        load_csv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,0,0,1.0\n0,1,0\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


def test_geo_mode_conversion(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("lat,lon,value\n0,0,1.0\n90,0,2.0\n45,90,3.0\n")
    data = load_csv(path, geo=True)
    expect = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0],
        ]
    )
    assert np.max(np.abs(data.points - expect)) <= 1e-12
    assert data.values.tolist() == [1.0, 2.0, 3.0]


def test_write_load_round_trip(tmp_path):
    data = synthetic_geomagnetic(40, 3)
    path = tmp_path / "rt.csv"
    write_csv(path, data)
    back = load_csv(path)
    assert np.array_equal(back.points, data.points)  # unit rows load as written
    assert np.array_equal(back.values, data.values)


def test_same_file_loads_identically(tmp_path):
    # the interpolate-at-nodes workflow needs bitwise-equal points when the
    # node and evaluation files have the same contents
    data = synthetic_geomagnetic(40, 4)
    path = tmp_path / "a.csv"
    write_csv(path, data)
    assert np.array_equal(load_csv(path).points, load_csv(path).points)


# ------------------------------------------------------------ splitting


def test_split_no_holdout():
    data = random_uniform_sphere(10, 0)
    train, test = split_cross_validation(data, 0, 1)
    assert len(test) == 0
    assert np.array_equal(train.points, data.points)


def test_split_counts_and_disjointness():
    pts = random_uniform_sphere(10, 1).points
    data = PointSet(pts, np.arange(10.0))
    train, test = split_cross_validation(data, 3, 2)
    assert len(train) == 7 and len(test) == 3
    got = sorted(train.values.tolist() + test.values.tolist())
    assert got == list(range(10))


def test_split_deterministic():
    data = random_uniform_sphere(30, 2)
    a = split_cross_validation(data, 5, 9)
    b = split_cross_validation(data, 5, 9)
    assert np.array_equal(a[1].points, b[1].points)


def test_split_rejects_oversized_holdout():
    data = random_uniform_sphere(10, 3)
    with pytest.raises(ValueError):
        split_cross_validation(data, 10, 0)


# ------------------------------------------------------------ geomagnetic


def test_geomagnetic_shape_and_determinism():
    a = synthetic_geomagnetic(150, 5)
    b = synthetic_geomagnetic(150, 5)
    assert len(a) == 150 and a.values is not None
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.values, b.values)
    assert np.max(np.abs(np.sum(a.points**2, axis=1) - 1.0)) <= 1e-12
    # field magnitudes stay in a plausible main-field band
    assert np.all(a.values > 10000.0) and np.all(a.values < 80000.0)


def test_geomagnetic_field_is_drawn_apart_from_the_points(monkeypatch):
    # Capture the nine harmonic coefficients where the basis meets them.
    drawn = []

    class Basis:
        def __matmul__(self, coeffs):
            drawn.append(coeffs)
            return 0.0

    monkeypatch.setattr(harmonics, "sh_basis", lambda pts, degree: Basis())
    synthetic_geomagnetic(150, 5)
    # The points are the first draws of default_rng(seed); their first three
    # rows must not reappear as the coefficients.
    point_draws = np.random.default_rng(5).standard_normal((3, 3)).ravel()
    scaled = point_draws * np.repeat([1500.0, 900.0, 500.0], [1, 3, 5])
    assert len(drawn) == 1 and drawn[0].shape == (9,)
    assert not np.any(drawn[0] == scaled)


def test_geomagnetic_rejects_negative_or_non_finite_noise():
    for noise in (-5.0, -1e-300, np.nan, np.inf):
        with pytest.raises(ConfigError, match="noise"):
            synthetic_geomagnetic(80, 6, noise=noise)


def test_geomagnetic_noise_changes_values_only():
    clean = synthetic_geomagnetic(80, 6)
    noisy = synthetic_geomagnetic(80, 6, noise=50.0)
    assert np.array_equal(clean.points, noisy.points)
    assert not np.array_equal(clean.values, noisy.values)
