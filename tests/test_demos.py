"""Every walkthrough in demos/ and every python block of the README runs in process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert "==" in capsys.readouterr().out


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(value) >= 0 for value in printed)


def test_readme_has_python_blocks():
    # the quick start's two blocks; an unmatched fence would leave nothing to run
    assert len(README_BLOCKS) >= 2
