"""The README's quick start and CLI lines run as printed.

Every line of the README's CLI block parses; the `generate` and
`interpolate` lines also run.  The `benchmark` and `crossvalidate` lines
only parse: their 5-seed runs are too slow for the tier-1 suite.
"""

import re
import shlex
from pathlib import Path

from sphshepard.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, lang: str) -> str:
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_stated_rrmse(capsys):
    code = code_block("Library quick start", "python")
    stated = float(re.search(r"# ~(\S+)", code).group(1))
    exec(compile(code, str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert stated / 2 <= printed <= 2 * stated


def cli_lines() -> list:
    return [shlex.split(line) for line in code_block("CLI", "sh").replace("\\\n", " ").splitlines()
            if line.startswith("sphshepard ")]


def test_readme_cli_lines_parse():
    commands = cli_lines()
    assert [argv[1] for argv in commands] == ["generate", "generate", "interpolate", "benchmark",
                                              "generate", "crossvalidate"]
    for argv in commands:
        build_parser().parse_args(argv[1:])  # a usage error exits


def test_readme_cli_generate_and_interpolate_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in cli_lines() if argv[1] in ("generate", "interpolate")]
    assert [argv[1] for argv in commands] == ["generate", "generate", "interpolate", "generate"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "surface.csv").exists()
