"""The Python blocks of README.md run as written, from the repository root."""

import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(monkeypatch, index):
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(BLOCKS[index], f"README.md block {index + 1}", "exec"), namespace)
    if index == 0:
        # the quickstart's closing comment
        coords = namespace["coords"]
        assert np.max(np.abs(coords[0] ** 2 + coords[1] ** 2 - 1.0)) < 1e-9
        assert np.max(np.abs(coords[2])) < 1e-9
