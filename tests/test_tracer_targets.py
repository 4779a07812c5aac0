"""Every function the benchmark's tracer wraps still exists, and its counts still read it.

``benchmark/tracer.py`` replaces each ``(module, attribute)`` of its ``TARGETS`` on
``locusframe.<module>``; a renamed or deleted one, or one whose arguments or result no
longer fit its count, fails only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from locusframe import cli, waveform

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmark" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("locusframe_tracer_targets", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return [(module, attr) for module, attr, _, _ in _tracer().TARGETS]


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda name: name)
def test_tracer_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"locusframe.{module}"), attr, None))


def test_tracer_counts_read_their_targets(monkeypatch, tmp_path):
    # each count reads its target's arguments or result; a signature or return change
    # that breaks one fails here, although no benchmark workload calls sample_series
    # or write_series_csv
    tracer = _tracer()
    spans = tracer.Tracer()
    for module, attr, name, counts in tracer.TARGETS:
        if counts is not None:
            owner = importlib.import_module(f"locusframe.{module}")
            monkeypatch.setattr(owner, attr, spans.wrap(getattr(owner, attr), name, counts))
    scenario = waveform.load_scenario(ROOT / "scenarios" / "unbalance_step.json")
    series = waveform.sample_series(scenario, 1000, 2.0)
    path = tmp_path / "V_abc.csv"
    cli.write_series_csv(path, series, "t,Va,Vb,Vc")
    totals = spans.take_pass()
    assert totals["waveform.sample_series.frames"] == 2001
    assert totals["waveform.evaluate_scenario.samples"] == 2001
    assert totals["waveform.evaluate_scenario.segments"] == 2
    assert totals["cli.write_series_csv.rows"] == 2001
    assert totals["cli.write_series_csv.bytes"] == path.stat().st_size > 2001
