"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = {TEXT.count("\n", 0, match.start()) + 1: match[1]
          for match in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)}


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("line", sorted(BLOCKS))
def test_a_readme_python_block_runs_in_a_fresh_namespace(line):
    exec(compile(BLOCKS[line], f"{README.name}:{line}", "exec"), {"__name__": "readme"})
