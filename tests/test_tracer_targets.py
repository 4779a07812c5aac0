"""Every function the benchmark's tracer wraps still exists.

``benchmark/tracer.py`` replaces each ``(module, attribute)`` of its ``TARGETS`` on
``locusframe.<module>``; a renamed or deleted one fails only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("locusframe_tracer_targets", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda name: name)
def test_tracer_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"locusframe.{module}"), attr, None))
