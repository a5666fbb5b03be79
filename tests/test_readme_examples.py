"""Every ``python`` block of README.md runs as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})
