import csv
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphshepard
from sphshepard import load_csv
from sphshepard.cli import main


def run(args):
    return main([str(a) for a in args])


def test_generate_spiral(tmp_path, capsys):
    out = tmp_path / "spiral.csv"
    assert run(["generate", "spiral", "--n", 600, "--out", out]) == 0
    data = load_csv(out)
    assert len(data) == 600
    assert data.points[0, 2] == -1.0


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["generate", "random", "--n", 200, "--seed", 7, "--out", a]) == 0
    assert run(["generate", "random", "--n", 200, "--seed", 7, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_zero_points_is_usage_error(tmp_path):
    assert run(["generate", "random", "--n", 0, "--out", tmp_path / "x.csv"]) == 2
    assert run(["generate", "geomagnetic-synth", "--n", 0, "--out", tmp_path / "x.csv"]) == 2
    assert run(["generate", "spiral", "--n", 1, "--out", tmp_path / "x.csv"]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_generate_negative_or_non_finite_noise_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for noise in ("-5", "nan", "inf"):
        assert run(["generate", "geomagnetic-synth", "--n", 20, "--noise", noise, "--out", out]) == 2
    assert "noise sigma must be finite and >= 0, got -5.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["generate", "random", "--n", 10],
    ["generate", "geomagnetic-synth", "--n", 10],
    ["benchmark", "--n", 100, "--s", 20, "--seeds", 1],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command + ["--seed", -1, "--out", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


FILE_BENCH = ["benchmark", "--nodes", "NODES", "--holdout", 10, "--seeds", 1]
GRID_BENCH = ["benchmark", "--n", 100, "--s", 20, "--seeds", 1, "--no-gamma-sweep"]


@pytest.mark.parametrize("command, flag", [
    (["generate", "random", "--n", 5, "--noise", 3], "--noise"),
    (["generate", "spiral", "--n", 5, "--seed", 3], "--seed"),
    (["generate", "spiral", "--n", 5, "--noise", 3], "--noise"),
    (["generate", "geomagnetic-synth", "--n", 5, "--function", "f1"], "--function"),
    (FILE_BENCH + ["--function", "f2"], "--function"),
    (FILE_BENCH + ["--n", 5], "--n"),
    (FILE_BENCH + ["--s", 3], "--s"),
    (FILE_BENCH + ["--no-gamma-sweep"], "--no-gamma-sweep"),
    (GRID_BENCH + ["--holdout", 7], "--holdout"),
    (GRID_BENCH + ["--geo"], "--geo"),
], ids=["random-noise", "spiral-seed", "spiral-noise", "geomagnetic-function", "nodes-function",
        "nodes-n", "nodes-s", "nodes-no-gamma-sweep", "grid-holdout", "grid-geo"])
def test_flag_the_command_would_ignore_is_usage_error(tmp_path, capsys, command, flag):
    nodes = write_node_file(tmp_path / "n.csv")
    out = tmp_path / "out"
    assert run([nodes if a == "NODES" else a for a in command] + ["--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_generate_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "missing_dir" / "x.csv"
    assert run(["generate", "random", "--n", 5, "--out", out]) == 3


def test_interpolate_constant_data(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    run(["generate", "random", "--n", 80, "--seed", 1, "--out", nodes])
    rows = nodes.read_text().splitlines()
    nodes.write_text("\n".join([rows[0] + ",value"] + [r + ",4.5" for r in rows[1:]]) + "\n")
    out = tmp_path / "out.csv"
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", out,
                "--degree", 0]) == 0
    got = load_csv(out)
    assert np.max(np.abs(got.values - 4.5)) <= 1e-10


def test_interpolate_at_nodes_reports_tiny_error(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    run(["generate", "random", "--n", 120, "--seed", 2, "--function", "f1",
         "--out", nodes])
    out = tmp_path / "out.csv"
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", out,
                "--degree", 1]) == 0
    report_line = capsys.readouterr().out.strip().splitlines()[-1]
    rel = float(report_line.split()[0].split("=")[1])
    assert rel <= 1e-7


def test_interpolate_all_zero_truth_is_data_error(tmp_path, capsys):
    # RRMSE divides by the norm of the evaluation file's values.
    nodes = write_node_file(tmp_path / "n.csv")
    zero = tmp_path / "zero.csv"
    zero.write_text("x,y,z,value\n1,0,0,0\n0,1,0,0\n0,0,1,0\n")
    out = tmp_path / "o.csv"
    assert run(["interpolate", "--nodes", nodes, "--eval", zero, "--out", out]) == 3
    assert capsys.readouterr().err == (
        "data error: RRMSE is undefined: the truth values are all zero\n")
    assert not out.exists()


def test_interpolate_rejects_undersized_nz(tmp_path, capsys):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 50, "--seed", 0, "--function", "f1", "--out", nodes])
    code = run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--degree", 2, "--nz", 8])
    assert code == 2
    assert "(L+1)^2" in capsys.readouterr().err


def test_interpolate_rejects_degree_above_cli_cap(tmp_path):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 50, "--seed", 0, "--function", "f1", "--out", nodes])
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--degree", 3, "--nz", 20]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--degree", -2, "degree L must be between -1 and 2, got -2"),
    ("--nw", 0, "neighborhood sizes must be positive"),
])
def test_interpolate_rejects_config_out_of_range(tmp_path, capsys, flag, value, message):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 50, "--seed", 0, "--function", "f1", "--out", nodes])
    code = run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", flag, value])
    assert code == 2
    assert message in capsys.readouterr().err


def test_interpolate_missing_file_is_data_error(tmp_path):
    assert run(["interpolate", "--nodes", tmp_path / "nope.csv",
                "--eval", tmp_path / "nope.csv", "--out", tmp_path / "o.csv"]) == 3


def test_interpolate_malformed_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0,0,1.0\n2,oops\n")
    assert run(["interpolate", "--nodes", bad, "--eval", bad,
                "--out", tmp_path / "o.csv"]) == 3


def write_node_file(path, n=60, seed=3, function="f1"):
    args = ["generate", "random", "--n", n, "--seed", seed, "--out", path]
    assert run(args + (["--function", function] if function else [])) == 0
    return path


@pytest.mark.parametrize("command", ["interpolate", "benchmark"])
def test_node_file_without_values_is_data_error(tmp_path, capsys, command):
    nodes = write_node_file(tmp_path / "bare.csv", function=None)
    args = ["--eval", nodes] if command == "interpolate" else ["--holdout", 10]
    assert run([command, "--nodes", nodes, *args, "--out", tmp_path / "o"]) == 3
    assert f"node file {nodes} carries no data values" in capsys.readouterr().err


@pytest.mark.parametrize("where, content, line", [
    ("nodes", b"x,y,z,value\n1,0,0,1\n0,1,0,\xff\n", None),
    ("nodes", b"x,y,z,value\n1,0,0,1\n0,1,0," + b"1" * 200_000 + b"\n", 3),
    ("config", b"gamma = 0.4\n# \xff\n", None),
], ids=["nodes-not-text", "nodes-huge-field", "config-not-text"])
def test_unreadable_input_file_is_data_error(tmp_path, capsys, where, content, line):
    nodes = write_node_file(tmp_path / "n.csv")
    bad = tmp_path / f"bad.{where}"
    bad.write_bytes(content)
    files = ["--nodes", nodes, "--config", bad] if where == "config" else ["--nodes", bad]
    assert run(["interpolate", *files, "--eval", nodes, "--out", tmp_path / "o.csv"]) == 3
    located = f"line {line}: " if line else "cannot read as "  # a decode error names no line
    assert capsys.readouterr().err.startswith(f"data error: {bad}: {located}")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("kind, rows, message", [
    ("nodes", "x,y,z,value\n1,0,0,1\n0,1\n", "line 3: expected 4 fields, got 2"),
    ("eval", "1,0,0\n0,0,0\n",
     "line 2: point length 0.0 is not finite and positive, so it cannot be normalized"),
])
def test_bad_row_error_names_its_file(tmp_path, capsys, kind, rows, message):
    nodes = write_node_file(tmp_path / "n.csv")
    bad = tmp_path / f"bad-{kind}.csv"
    bad.write_text(rows)
    files = {"nodes": nodes, "eval": nodes, kind: bad}
    assert run(["interpolate", "--nodes", files["nodes"], "--eval", files["eval"],
                "--out", tmp_path / "o.csv"]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: {message}\n"


def test_empty_eval_file_is_data_error(tmp_path, capsys):
    nodes = write_node_file(tmp_path / "n.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y,z\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", empty, "--out", tmp_path / "o.csv"]) == 3
    assert capsys.readouterr().err == f"data error: {empty}: no data rows\n"
    assert not (tmp_path / "o.csv").exists()


def test_unsolvable_neighborhood_is_numerical_failure(tmp_path, capsys):
    # gamma=0.05 is near the flat limit: node 4's strict local solve misses the tolerance.
    nodes = write_node_file(tmp_path / "n.csv", n=1000, seed=0)
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", tmp_path / "o.csv",
                "--gamma", 0.05]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: neighborhood of node 4: ")


def test_no_strict_keeps_missed_fits_and_warns(tmp_path):
    # The file of the test above: --no-strict writes the output and fit's one warning.
    nodes, out = write_node_file(tmp_path / "n.csv", n=1000, seed=0), tmp_path / "o.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(sphshepard.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "sphshepard", "interpolate", "--nodes", str(nodes),
                           "--eval", str(nodes), "--out", str(out), "--gamma", "0.05",
                           "--no-strict"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(load_csv(out)) == 1000
    assert done.stderr == ("95 of 1000 neighborhoods miss the residual tolerance 1e-08; "
                           "their lowest-residual attempts are kept\n")


def test_no_strict_is_not_a_benchmark_flag_or_a_config_key(tmp_path, capsys):
    nodes = write_node_file(tmp_path / "n.csv")
    config = tmp_path / "run.cfg"
    config.write_text("no_strict = 1\n")
    assert run(["benchmark", "--no-strict", "--out", tmp_path / "b"]) == 2
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", tmp_path / "o.csv",
                "--config", config]) == 2
    assert "config key 'no_strict' is not read by interpolate" in capsys.readouterr().err
    assert not (tmp_path / "b").exists() and not (tmp_path / "o.csv").exists()


def test_interpolate_geo_mode(tmp_path):
    nodes = tmp_path / "geo.csv"
    lat = np.linspace(-80, 80, 40)
    lon = np.linspace(0, 350, 40)
    body = "\n".join(f"{a},{b},{1.0}" for a, b in zip(lat, lon))
    nodes.write_text("lat,lon,value\n" + body + "\n")
    out = tmp_path / "o.csv"
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", out,
                "--geo", "--degree", 0, "--nz", 10]) == 0
    got = load_csv(out)
    assert np.max(np.abs(got.values - 1.0)) <= 1e-9


@pytest.mark.parametrize("bad_row", ["inf,0,1", "nan,0,1", "100,20,1", "-90.5,20,1", "10,inf,1",
                                     "10,nan,1"])
def test_interpolate_geo_rejects_bad_coordinates(tmp_path, capsys, bad_row):
    nodes = tmp_path / "geo.csv"
    lat = np.linspace(-80, 80, 20)
    body = "\n".join(f"{a},{b},1.0" for a, b in zip(lat, np.linspace(0, 350, 20)))
    nodes.write_text("lat,lon,value\n" + body + "\n" + bad_row + "\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", tmp_path / "o.csv",
                "--geo", "--nz", 10]) == 3
    assert "line 22:" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["1e308,1e308,0,1", "1e200,0,0,1", "inf,0,0,1", "0,nan,0,1",
                                     "0,0,0,1", "1,0,0,inf", "1,0,0,nan"])
def test_interpolate_rejects_unusable_cartesian_rows(tmp_path, capsys, bad_row):
    nodes = tmp_path / "nodes.csv"
    pts = np.random.default_rng(3).normal(size=(20, 3))
    body = "\n".join(f"{x},{y},{z},1.0" for x, y, z in pts)
    nodes.write_text("x,y,z,value\n" + body + "\n" + bad_row + "\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes, "--out", tmp_path / "o.csv",
                "--nz", 10]) == 3
    assert "line 22:" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 60, "--seed", 3, "--function", "f1", "--out", nodes])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2.0\nnz = 12\n")
    # config gamma is invalid -> proves the file is read
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg]) == 2
    # a flag overrides the config value
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg, "--gamma", "0.5"]) == 0


@pytest.mark.parametrize("line, message", [
    ("nz = abc", "config value nz = 'abc' is not a valid int"),
    ("gamma = x", "config value gamma = 'x' is not a valid float"),
])
def test_config_file_rejects_unparsable_value(tmp_path, capsys, line, message):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 60, "--seed", 3, "--function", "f1", "--out", nodes])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_config_value_a_flag_overrides_is_still_parsed(tmp_path, capsys):
    nodes = write_node_file(tmp_path / "n.csv")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nz = abc\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg, "--nz", 12]) == 2
    assert "config value nz = 'abc' is not a valid int" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_file_with_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfgamma = 0.4\n")
    out = tmp_path / "b"
    assert run(["benchmark", "--n", 100, "--s", 30, "--seeds", 1, "--degrees=-1",
                "--no-gamma-sweep", "--config", cfg, "--out", out]) == 0
    header, row = read_rows(out / "benchmark.csv")
    assert row[header.index("gamma")] == "0.4"


def test_config_file_line_without_equals_is_data_error(tmp_path, capsys):
    nodes = write_node_file(tmp_path / "n.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment only\n\n   \nnz = 12  # trailing comment\nnw 8\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"data error: {cfg}: line 5: expected key=value, got 'nw 8'\n"


def test_config_file_rejects_a_repeated_key(tmp_path, capsys):
    nodes = write_node_file(tmp_path / "n.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nz = 12\nnz = 99999\nnz = 14\n")
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"data error: {cfg}: line 2: key 'nz' repeats line 1\n"
    assert not (tmp_path / "o.csv").exists()


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    nodes = tmp_path / "n.csv"
    run(["generate", "random", "--n", 60, "--seed", 3, "--function", "f1", "--out", nodes])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nz = 12\ngamm = 0.99\n")  # a typo of gamma
    assert run(["interpolate", "--nodes", nodes, "--eval", nodes,
                "--out", tmp_path / "o.csv", "--config", cfg]) == 2
    assert "config key 'gamm' is not read by interpolate" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_benchmark_config_rejects_degree(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree = 7\n")
    assert run(["benchmark", "--n", "100", "--s", 40, "--seeds", 1, "--no-gamma-sweep",
                "--out", tmp_path / "b", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config key 'degree' is not read by benchmark" in err and "--degrees" in err
    cfg.write_text("nz = 12\nnw = 8\n")
    assert run(["benchmark", "--n", "100", "--s", 40, "--seeds", 1, "--no-gamma-sweep",
                "--out", tmp_path / "b", "--config", cfg]) == 0
    rows = (tmp_path / "b" / "benchmark.csv").read_text().splitlines()[1:]
    assert [r.split(",")[5:7] for r in rows] == [["12", "8"]] * 4


def test_benchmark_small_grid(tmp_path):
    out = tmp_path / "bench"
    assert run(["benchmark", "--function", "f1", "--n", "120", "--s", 50,
                "--seeds", 2, "--degrees=-1,1", "--out", out]) == 0
    table = (out / "benchmark.csv").read_text().splitlines()
    assert table[0].startswith("function,n,L,seed,gamma,n_z,n_w,s,rrmse")
    assert len(table) == 1 + 2 * 2  # header + 2 seeds x 2 degrees
    sweep = (out / "gamma_sweep.csv").read_text().splitlines()
    assert len(sweep) == 1 + 2 * 19  # 2 degrees x gamma grid 0.05..0.95
    gammas = sorted({float(r.split(",")[4]) for r in sweep[1:]})
    assert gammas[0] == 0.05 and gammas[-1] == 0.95
    rrmses = [float(r.split(",")[5]) for r in sweep[1:]]
    assert all(np.isfinite(rrmses))
    assert (out / "summary.txt").exists()


def run_into_closed_pipe(args, unbuffered):
    """Run `python -m sphshepard args` with stdout a pipe whose reader has closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(sphshepard.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    try:
        return subprocess.run([sys.executable, "-m", "sphshepard", *map(str, args)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_zero_after_writing_every_file(tmp_path, unbuffered):
    # A reader such as `head` may exit before the command prints; the write
    # to the closed pipe, at the print or at the flush, must not turn a
    # finished run into a failure.
    out = tmp_path / "b"
    proc = run_into_closed_pipe(["benchmark", "--n", 100, "--s", 30, "--seeds", 1,
                                 "--degrees=-1", "--out", out], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert all((out / name).exists() for name in ("benchmark.csv", "summary.txt", "gamma_sweep.csv"))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["generate", "--help"]], ids=["help", "generate-help"])
def test_help_into_closed_stdout_exits_zero(args, unbuffered):
    proc = run_into_closed_pipe(args, unbuffered)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_benchmark_fits_each_distinct_degree_once(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run(["benchmark", "--n", 100, "--s", 30, "--seeds", 2, "--degrees=2,-1,2",
                "--out", out]) == 0
    header, *table = read_rows(out / "benchmark.csv")
    assert [(r[header.index("seed")], r[header.index("L")]) for r in table] == [
        ("0", "2"), ("0", "-1"), ("1", "2"), ("1", "-1")]
    _, *sweep = read_rows(out / "gamma_sweep.csv")
    assert [r[2] for r in sweep] == ["2"] * 19 + ["-1"] * 19
    assert capsys.readouterr().out.endswith(f"wrote 4 benchmark rows to {out / 'benchmark.csv'}\n")


def test_benchmark_fits_each_distinct_function_and_n_once(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run(["benchmark", "--function", "f1", "--function", "f2", "--function", "f1",
                "--n", "100,120,100", "--s", 30, "--seeds", 1, "--degrees=-1,-1",
                "--no-gamma-sweep", "--out", out]) == 0
    header, *table = read_rows(out / "benchmark.csv")
    assert [(r[header.index("function")], r[header.index("n")]) for r in table] == [
        ("f1", "100"), ("f1", "120"), ("f2", "100"), ("f2", "120")]
    assert capsys.readouterr().out.endswith(f"wrote 4 benchmark rows to {out / 'benchmark.csv'}\n")


def test_benchmark_rejects_unparsable_list(tmp_path, capsys):
    assert run(["benchmark", "--n", "100,abc", "--s", 30, "--seeds", 1,
                "--out", tmp_path / "b"]) == 2
    assert "could not parse list '100,abc'" in capsys.readouterr().err


def test_benchmark_rejects_zero_eval_points(tmp_path, capsys):
    assert run(["benchmark", "--function", "f1", "--n", "100", "--s", 0,
                "--seeds", 1, "--out", tmp_path / "b"]) == 2
    assert "a spiral needs s >= 2 points, got 0" in capsys.readouterr().err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("flag, value, column", [
    (None, None, None), ("--gamma", "0.3", "gamma"), ("--nz", "14", "n_z"), ("--nw", "6", "n_w"),
])
def test_benchmark_reports_flags_over_config_file(tmp_path, flag, value, column):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the model parameters\ngamma = 0.4\n\nnz = 12  # local fit size\nnw=8\n")
    out = tmp_path / "b"
    args = ["benchmark", "--n", 100, "--s", 30, "--seeds", 2, "--degrees=1,-1,1", "--no-gamma-sweep",
            "--config", cfg, "--out", out]
    assert run(args + ([flag, value] if flag else [])) == 0
    want = {"gamma": "0.4", "n_z": "12", "n_w": "8"}
    if flag:
        want[column] = value
    header, *table = read_rows(out / "benchmark.csv")
    # 2 seeds x 2 distinct L: the repeated L=1 is fitted once.
    assert [[r[header.index(c)] for c in want] for r in table] == [list(want.values())] * 4
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[0] == (f"f1  (gamma={want['gamma']}, n_z={want['n_z']}, n_w={want['n_w']}, "
                        "s=30, seeds=2; median RRMSE)")
    assert [line.split()[0] for line in lines[2:] if line] == ["1", "-1"]  # one line per distinct L


@pytest.mark.parametrize("args, message", [
    (["--seeds", 0], "--seeds must be at least 1"),
    (["--n", "100,5"], "every --n must be >= n_z=15, got '100,5'"),
])
def test_benchmark_grid_usage_errors(tmp_path, capsys, args, message):
    out = tmp_path / "b"
    assert run(["benchmark", "--s", 30, "--no-gamma-sweep", *args, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_benchmark_sweep_and_summary_follow_the_grid(tmp_path):
    out = tmp_path / "bench"
    # --n is deliberately unsorted: the sweep takes the smallest n, the
    # summary keeps the --n order.
    assert run(["benchmark", "--n", "150,120", "--seeds", 2, "--degrees=-1,1",
                "--out", out]) == 0
    header, *table = read_rows(out / "benchmark.csv")
    table = [dict(zip(header, r)) for r in table]
    sweep_header, *sweep = read_rows(out / "gamma_sweep.csv")
    assert sweep_header == ["function", "n", "L", "seed", "gamma", "rrmse"]
    assert {tuple(r[:2] + r[3:4]) for r in sweep} == {("f1", "120", "0")}
    for fid, n, L, seed, gamma, rel in sweep:
        if gamma == "0.5":
            same = [r["rrmse"] for r in table if (r["n"], r["L"], r["seed"]) == (n, L, seed)]
            assert same == [rel]
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[1].split()[3:] == ["150", "120"]
    for line in lines[2:4]:
        L, *cells = line.split()
        medians = [statistics.median(float(r["rrmse"]) for r in table if (r["n"], r["L"]) == (n, L))
                   for n in ("150", "120")]
        assert cells == [f"{m:.4e}" for m in medians]


def test_benchmark_takes_degrees_only(tmp_path, capsys):
    grid = ["benchmark", "--n", "100", "--s", 40, "--seeds", 1, "--no-gamma-sweep",
            "--out", tmp_path / "b"]
    # benchmark has no --degree of its own: argparse reads it as --degrees.
    assert run(grid + ["--degree", 1]) == 0
    rows = (tmp_path / "b" / "benchmark.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["1"]
    assert run(grid + ["--degrees="]) == 2
    assert "--degrees must list at least one L" in capsys.readouterr().err


def test_benchmark_file_mode(tmp_path):
    nodes = tmp_path / "geo.csv"
    run(["generate", "geomagnetic-synth", "--n", 250, "--seed", 4, "--out", nodes])
    out = tmp_path / "bench"
    assert run(["benchmark", "--nodes", nodes, "--holdout", 40, "--seeds", 2,
                "--degrees=-1,0", "--gamma", "0.96", "--nz", 12, "--out", out]) == 0
    table = (out / "benchmark.csv").read_text().splitlines()
    assert len(table) == 1 + 2 * 2


def test_benchmark_file_label_with_comma_is_quoted(tmp_path):
    nodes = tmp_path / "a,b.csv"
    run(["generate", "geomagnetic-synth", "--n", 120, "--seed", 4, "--out", nodes])
    out = tmp_path / "bench"
    assert run(["benchmark", "--nodes", nodes, "--holdout", 20, "--seeds", 2,
                "--degrees=-1,0", "--out", out]) == 0
    rows = read_rows(out / "benchmark.csv")
    assert [len(r) for r in rows] == [13] * 5
    assert [r[0] for r in rows[1:]] == ["a,b"] * 4


def test_benchmark_holdout_must_leave_training_rows(tmp_path, capsys):
    nodes = tmp_path / "geo.csv"
    run(["generate", "geomagnetic-synth", "--n", 30, "--seed", 4, "--out", nodes])
    for holdout in (0, 30, 40):
        assert run(["benchmark", "--nodes", nodes, "--holdout", holdout,
                    "--out", tmp_path / "bench"]) == 2
    err = capsys.readouterr().err
    assert f"need 1 <= --holdout < 30 (the rows of {nodes}), got 40" in err


def test_benchmark_deterministic_aside_from_timings(tmp_path):
    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert run(["benchmark", "--function", "f2", "--n", "100", "--s", 40,
                    "--seeds", 1, "--degrees=0", "--no-gamma-sweep",
                    "--out", out]) == 0
        rows = (out / "benchmark.csv").read_text().splitlines()
        outs.append([",".join(r.split(",")[:-2]) for r in rows])  # drop timing cols
    assert outs[0] == outs[1]
