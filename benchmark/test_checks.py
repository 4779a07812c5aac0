"""Tests of the benchmark's own checkers: correct outputs pass, corrupted ones fail.

    python -m pytest benchmark/test_checks.py

The outputs come from the program itself (``cli.main`` in-process and the
frames-batch operation), on inputs small enough to run in seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

import locusframe as lf  # noqa: E402
from locusframe import cli  # noqa: E402

PAPER = str(ROOT / "scenarios" / "unbalance_step.json")


def run_cli(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def small_steps(tmp_path_factory):
    """Three generated segments over 3 periods, switches between samples."""
    rng = np.random.default_rng(7)
    segments = []
    for start in (0.0, 1.0005, 2.0005):
        amps, offsets = inputs._unbalanced(rng, 0.3)
        segments.append(
            {"start_periods": start, "amplitudes_pu": list(amps), "phase_offsets_deg": list(offsets)}
        )
    path = tmp_path_factory.mktemp("steps") / "steps.json"
    path.write_text(json.dumps({"frequency_hz": 50.0, "segments": segments}))
    return path, reference.Scenario(json.loads(path.read_text()))


def corrupt_csv(path, row, column, delta):
    lines = Path(path).read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = f"{float(fields[column]) + delta:.6f}"
    lines[row] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


def test_simulate_check_rejects_corrupted_csv_value(small_steps, tmp_path, capsys):
    path, scenario = small_steps
    out = run_cli(["simulate", str(path), "--periods", "3", "--out", str(tmp_path)], capsys)
    assert checks.check_simulate(out, scenario, str(tmp_path), 1000, 3) == []
    corrupt_csv(tmp_path / "V_ab0_clarke.csv", row=1200, column=2, delta=1e-5)
    failures = checks.check_simulate(out, scenario, str(tmp_path), 1000, 3)
    assert any("V_ab0_clarke.csv values" in f for f in failures)


@pytest.mark.parametrize("orientation", ["phase-a-peak", "max-norm"])
def test_matrix_check_rejects_wrong_entry(small_steps, capsys, orientation):
    path, scenario = small_steps
    out = run_cli(["matrix", str(path), "--segment", "2", "--orientation", orientation], capsys)
    assert checks.check_matrix(out, scenario, 2, orientation) == []
    lines = out.splitlines()
    row = [float(x) for x in lines[5].split()]
    row[1] += 0.002
    lines[5] = "".join(f"{x:8.3f}" for x in row)
    failures = checks.check_matrix("\n".join(lines) + "\n", scenario, 2, orientation)
    assert any("matrix forward" in f for f in failures)


def test_validate_check_rejects_wrong_degeneracy(small_steps, capsys):
    path, scenario = small_steps
    out = run_cli(["validate", str(path)], capsys)
    assert checks.check_validate(out, scenario) == []
    head, _, value = out.splitlines()[2].rpartition(" ")
    bad = out.replace(out.splitlines()[2], f"{head} {float(value) + 1e-5:.6f}")
    assert any("degeneracy" in f for f in checks.check_validate(bad, scenario))


def measure(tmp_path, capsys, sigma, t1):
    argv = ["measure", PAPER, "--periods", "3", "--noise", repr(sigma), "--seed", "11",
            "--t1-angle", repr(t1), "--out", str(tmp_path)]
    return run_cli(argv, capsys), reference.Scenario(checks.load_scenario_doc(PAPER))


def test_measure_check_rejects_misscaled_noise(tmp_path, capsys):
    sigma, t1 = 0.01, 7.3
    out, scenario = measure(tmp_path, capsys, sigma, t1)
    assert checks.check_measure(out, scenario, str(tmp_path), 1000, 3, sigma, t1) == []
    path = tmp_path / "V_abc_measured.csv"
    angles, values = checks.read_csv(path, "t,Va,Vb,Vc")
    exact = scenario.signal(angles)
    scaled = exact + 1.2 * (values - exact)
    rows = "\n".join(",".join(f"{x:.6f}" for x in (a, *v)) for a, v in zip(angles, scaled.T))
    path.write_text("t,Va,Vb,Vc\n" + rows + "\n")
    failures = checks.check_measure(out, scenario, str(tmp_path), 1000, 3, sigma, t1)
    assert any("noise std" in f for f in failures)


def test_measure_check_rejects_wrong_noiseless_deviation(tmp_path, capsys):
    out, scenario = measure(tmp_path, capsys, 0.0, 7.3)
    assert checks.check_measure(out, scenario, str(tmp_path), 1000, 3, 0.0, 7.3) == []
    line = next(l for l in out.splitlines() if l.startswith("max forward deviation"))
    bad = out.replace(line, "max forward deviation: 1.000000e-02")
    failures = checks.check_measure(bad, scenario, str(tmp_path), 1000, 3, 0.0, 7.3)
    assert any("noiseless deviation" in f for f in failures)


def frames_results(batch, grid):
    segments = worker._segments(lf.waveform, batch)
    return [
        (i, *worker.segment_ops(lf, segment, batch["angles"][i], grid))
        for i, segment in enumerate(segments)
    ]


def test_frames_check_rejects_non_unit_quadrature():
    batch = inputs.segment_batch(3)
    batch = {k: v[:24] if isinstance(v, list) else v for k, v in batch.items()}
    grid = np.linspace(0.0, 2.0 * math.pi, batch["grid"], endpoint=False)
    results = frames_results(batch, grid)
    failures = []
    assert worker.check_chunk(np, checks, batch, grid, results, failures) == 0, failures
    # segment 0 is balanced (max-norm falls back); segment 5 is not
    for i in (0, 5):
        frame, coords, dq = results[i][1][1]
        results[i][1][1] = (frame, coords * np.array([[1.01], [1.0], [1.0]]), dq)
    assert worker.check_chunk(np, checks, batch, grid, results, failures) == 2
    assert all("unit quadrature V1" in f for f in failures)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
