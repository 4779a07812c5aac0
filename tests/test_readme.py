"""README.md's examples run as written: its Python blocks from the repository root,
and each `locusframe` line of its sh blocks from a directory that holds a copy of
scenarios/."""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("locusframe ")
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 3


def test_readme_has_command_lines():
    assert len(COMMANDS) == 5


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


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(tmp_path, line):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    done = subprocess.run(
        [sys.executable, "-m", "locusframe.cli", *shlex.split(line)[1:]],
        cwd=tmp_path,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (done.returncode, done.stderr) == (0, "")
