import math

import numpy as np
import pytest

from sphshepard import (
    ConfigError,
    DataError,
    load_csv,
    random_uniform_sphere,
    spiral_points,
    split_cross_validation,
    synthetic_geomagnetic,
    write_csv,
)
from sphshepard import datasets
from sphshepard.datasets import PointSet


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


def test_load_empty_file_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.warns(UserWarning):
        data = load_csv(path)
    assert len(data) == 0


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
    # re-normalization on load may flip the last bit of each coordinate
    assert np.max(np.abs(back.points - data.points)) <= 5e-16
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


def test_geomagnetic_noise_changes_values_only():
    clean = synthetic_geomagnetic(80, 6)
    noisy = synthetic_geomagnetic(80, 6, noise=50.0)
    assert np.array_equal(clean.points, noisy.points)
    assert not np.array_equal(clean.values, noisy.values)
