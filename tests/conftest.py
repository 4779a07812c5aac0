import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from locusframe import PhasorScenario, ScenarioSegment

import support

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_PATH = SCENARIOS / "unbalance_step.json"
BENCH = Path(__file__).resolve().parent.parent / "benchmark"


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def checks():
    """``benchmark/checks.py``, loaded by path; it imports ``benchmark/reference.py``
    by that name, and neither imports ``locusframe``."""
    if "reference" not in sys.modules:
        sys.modules["reference"] = _module("reference", BENCH / "reference.py")
    return _module("locusframe_bench_checks", BENCH / "checks.py")


@pytest.fixture
def unbalanced_segment():
    return support.unbalanced_segment()


@pytest.fixture
def balanced_segment():
    return support.balanced_segment()


@pytest.fixture
def step_scenario():
    """50 Hz, one balanced period, then the stock unbalanced regime."""
    return PhasorScenario(
        omega=2.0 * math.pi * 50.0,
        segments=(
            support.balanced_segment(start_angle=0.0),
            support.unbalanced_segment(start_angle=2.0 * math.pi),
        ),
    )


@pytest.fixture
def scenario_path():
    return SCENARIO_PATH


@pytest.fixture
def degenerate_loci_path():
    return SCENARIOS / "degenerate_loci.json"


@pytest.fixture
def degenerate_scenario_path(tmp_path):
    """Scenario whose only segment traces a line, not an ellipse."""
    doc = {
        "frequency_hz": 50.0,
        "segments": [
            {
                "start_periods": 0.0,
                "amplitudes_pu": [0.7, 1.0, 0.0],
                "phase_offsets_deg": [0.0, 120.0, 0.0],
            }
        ],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def balanced_scenario_path(tmp_path):
    doc = {
        "frequency_hz": 50.0,
        "segments": [
            {
                "start_periods": 0.0,
                "amplitudes_pu": [1.0, 1.0, 1.0],
                "phase_offsets_deg": [0.0, 0.0, 0.0],
            }
        ],
    }
    path = tmp_path / "balanced.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
