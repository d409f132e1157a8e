"""The README's library quick start runs as printed and prints the figure it states."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_stated_rrmse(capsys):
    code = quick_start_block()
    stated = float(re.search(r"# ~(\S+)", code).group(1))
    exec(compile(code, str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert stated / 2 <= printed <= 2 * stated
