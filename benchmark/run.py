#!/usr/bin/env python3
"""Benchmark of locusframe: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is simulate-steps, measure-noisy, frames-batch, or all (each in turn).
Run it from anywhere inside a checkout that holds ``src/locusframe`` and
``scenarios/unbalance_step.json``; it exits with code 2 when they are missing.

``--trace 0`` measures the end-to-end metrics with no tracing: the CLI
workloads run each ``python -m locusframe.cli`` invocation as a child process,
one at a time, and frames-batch runs the library in one worker process.
Pass and CPU times are reported in units of ``refloop.py``'s reference loop,
timed within the same pass, so that the drift of the host's speed cancels.
``--trace 1`` runs the same passes in-process with every public function of
the program wrapped in a span, and reports per-layer self times and counts;
the spans of the first pass are written to ``benchmark/work/``.  Every
operation's output is checked against ``reference.py``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import reference
import refloop
from worker import run_passes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PAPER_SCENARIO = ROOT / "scenarios" / "unbalance_step.json"
WORK = BENCH_DIR / "work"
WORKLOADS = ("simulate-steps", "measure-noisy", "frames-batch")
#: timed set-up probes before the passes and as many after them; one more,
#: untimed, warms the file cache.  Probing at both ends of the run averages
#: out some of the drift of this host's speed within a run.
SETUP_PROBES = 4
#: units of the reference loop timed before each CLI invocation of a pass
REF_UNITS_PER_OP = 10

#: end-to-end metrics.  pass_ref and cpu_ref are a pass's wall and CPU time
#: in units of the reference loop (refloop.py) timed within the same pass.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mib", "MiB"),
)
#: the same passes in seconds, printed beside the metrics but not gated:
#: they carry the drift of this host's speed
RAW_TIMES = (("pass_s", "s"), ("cpu_s", "s"))
#: per-layer metrics: per-pass medians of span self times and counts
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.cmd_validate.self_s", "s"),
    ("cli.cmd_matrix.self_s", "s"),
    ("cli.cmd_simulate.self_s", "s"),
    ("cli.cmd_measure.self_s", "s"),
    ("cli.write_series_csv.self_s", "s"),
    ("cli.write_series_csv.rows", "count"),
    ("cli.write_series_csv.bytes", "bytes"),
    ("waveform.load_scenario.self_s", "s"),
    ("waveform.parse_scenario.self_s", "s"),
    ("waveform.evaluate_scenario.self_s", "s"),
    ("waveform.evaluate_scenario.samples", "count"),
    ("waveform.evaluate_scenario.segments", "count"),
    ("waveform.evaluate.self_s", "s"),
    ("waveform.evaluate.calls", "count"),
    ("waveform.sample_series.self_s", "s"),
    ("waveform.sample_series.frames", "count"),
    ("locus.resolve_orientation.self_s", "s"),
    ("locus.build_basis.self_s", "s"),
    ("locus.build_basis.calls", "count"),
    ("locus.basis_from_vectors.self_s", "s"),
    ("locus.basis_from_stream.self_s", "s"),
    ("transform.assemble.self_s", "s"),
    ("transform.assemble.calls", "count"),
    ("transform.apply.self_s", "s"),
    ("transform.park_rotate.self_s", "s"),
    ("transform.abc_series.self_s", "s"),
    ("transform.pipeline_locus.self_s", "s"),
    ("transform.pipeline_clarke_park.self_s", "s"),
    ("sequence.to_phasors.self_s", "s"),
    ("sequence.fortescue.self_s", "s"),
    ("sequence.unbalance_metrics.self_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.unattributed_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run a workload to its end."""


class Launcher:
    """Client of ``launcher.py``, which spawns every child process of a run."""

    def __init__(self, run_dir):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py"), str(SRC)],
            cwd=run_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd, until_line=False):
        """Reply of the launcher for one child: code, stdout, stderr, wall_s, cpu_s, maxrss_mib."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "until_line": until_line}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher process ended early")
        return json.loads(reply)

    def worker(self, args):
        """Last-line JSON of a worker process, and the launcher's reply."""
        reply = self.run([sys.executable, str(BENCH_DIR / "worker.py"), *args])
        if reply["code"] != 0 or not reply["stdout"].strip():
            raise BenchError(f"worker {args[0]} exited {reply['code']}: {reply['stderr'].strip()[-2000:]}")
        return json.loads(reply["stdout"].strip().splitlines()[-1]), reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def setup_probes(launch, probe_args, count):
    """(setup seconds, import seconds) of ``count`` probes, each a fresh process."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "probe", *probe_args]
    found = []
    for _ in range(count):
        reply = launch.run(cmd, until_line=True)
        if reply["code"] != 0 or not reply["stdout"].strip():
            raise BenchError(f"set-up probe exited {reply['code']}: {reply['stderr'].strip()[-2000:]}")
        found.append((reply["wall_s"], json.loads(reply["stdout"].splitlines()[0])["import_s"]))
    return found


def prepare(workload, seed, run_dir):
    """Generate the workload's inputs; return (probe args, worker args of the traced run, session)."""
    if workload == "frames-batch":
        path = run_dir / "batch.json"
        inputs.write_json(path, inputs.segment_batch(seed))
        return ["--batch", str(path)], ["frames", "--batch", str(path)], None
    if workload == "simulate-steps":
        scenario = run_dir / "steps.json"
        inputs.write_json(scenario, inputs.step_scenario(seed))
        session = inputs.simulate_session(seed, scenario, run_dir / "sim")
    else:
        scenario = PAPER_SCENARIO
        session = inputs.measure_session(seed, scenario, run_dir / "meas")
    path = run_dir / "session.json"
    inputs.write_json(path, session)
    return ["--scenario", str(scenario)], ["cli", "--session", str(path)], session


def cli_passes(launch, session, seconds, failures):
    """Untraced CLI session passes: one child process per invocation, one at a time."""
    scenario = reference.Scenario(checks.load_scenario_doc(session["scenario"]))
    base = [sys.executable, "-m", "locusframe.cli"]

    refloop.warm_up()

    def one_pass():
        # the reference loop runs before each invocation and after the last;
        # an invocation is measured in the mean of the units on either side
        refs = [refloop.time_units(REF_UNITS_PER_OP)]
        runs, walls = [], []
        for op in session["ops"]:
            start = time.perf_counter()
            runs.append(launch.run(base + op["argv"]))
            walls.append(time.perf_counter() - start)
            refs.append(refloop.time_units(REF_UNITS_PER_OP))
        unit = [((a[0] + b[0]) / (2 * REF_UNITS_PER_OP), (a[1] + b[1]) / (2 * REF_UNITS_PER_OP))
                for a, b in zip(refs, refs[1:])]
        failed = 0
        for op, r in zip(session["ops"], runs):
            messages = checks.check_op(op, r["code"], r["stdout"], r["stderr"], scenario)
            if messages:
                failed += 1
                failures.append(f"{op['kind']}: " + "; ".join(messages))
        return {
            "wall_s": sum(walls),
            "cpu_s": sum(r["cpu_s"] for r in runs),
            "wall_ref": sum(w / u[0] for w, u in zip(walls, unit)),
            "cpu_ref": sum(r["cpu_s"] / u[1] for r, u in zip(runs, unit)),
            "ref_unit_s": sum(u[0] for u in unit) / len(unit),
            "rss_mib": max(r["maxrss_mib"] for r in runs),
            "attempted": len(runs),
            "failed": failed,
        }

    return run_passes(seconds, one_pass)


def end_to_end(launch, worker_args, session, seconds, failures):
    if session is None:
        result, reply = launch.worker([*worker_args, "--seconds", str(seconds)])
        passes = result["passes"]
        failures.extend(result["failures"])
        rss = reply["maxrss_mib"]
    else:
        passes = cli_passes(launch, session, seconds, failures)
        rss = statistics.median(p["rss_mib"] for p in passes)
    values = {
        "pass_ref": statistics.median(p["wall_ref"] for p in passes),
        "cpu_ref": statistics.median(p["cpu_ref"] for p in passes),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ref_unit_s": statistics.median(p["ref_unit_s"] for p in passes),
        "peak_rss_mib": rss,
    }
    return passes, values


def per_layer(launch, worker_args, seconds, failures, trace_out):
    result, _ = launch.worker([*worker_args, "--seconds", str(seconds), "--trace-out", str(trace_out)])
    passes = result["passes"]
    failures.extend(result["failures"])
    values = {name: statistics.median(p["totals"].get(name, 0.0) for p in passes) for name, _ in PER_LAYER}
    values["trace.pass_s"] = statistics.median(p["wall_s"] for p in passes)
    values["trace.unattributed_s"] = statistics.median(
        p["wall_s"] - sum(v for k, v in p["totals"].items() if k.endswith(".self_s")) for p in passes
    )
    return passes, values


def run_workload(workload, seed, seconds, trace):
    """(attempted, failed, metrics) of one workload run; prints its report lines."""
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    failures = []
    trace_out = WORK / f"trace-{workload}.json"
    try:
        probe_args, worker_args, session = prepare(workload, seed, run_dir)
        with Launcher(run_dir) as launch:
            probes = setup_probes(launch, probe_args, SETUP_PROBES + 1)[1:]
            if trace:
                passes, values = per_layer(launch, worker_args, seconds, failures, trace_out)
            else:
                passes, values = end_to_end(launch, worker_args, session, seconds, failures)
            probes += setup_probes(launch, probe_args, SETUP_PROBES)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    values["setup_s"] = statistics.median(p[0] for p in probes)
    values["cli.import_s"] = statistics.median(p[1] for p in probes)
    listed = PER_LAYER if trace else END_TO_END
    metrics = {name: (values[name], unit) for name, unit in listed}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mode = "traced" if trace else "untraced"
    print(f"{workload} (seed {seed}, {mode}): {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not trace:
        for name, unit in (*RAW_TIMES, ("ref_unit_s", "s")):
            print(f"  ({name:<38} {values[name]:.6g} {unit}, not gated)")
    if trace:
        print(f"  spans of the first traced pass: {trace_out}")
    for message in failures[:5]:
        print(f"  FAILED {message}", file=sys.stderr)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "locusframe" / "cli.py", PAPER_SCENARIO) if not p.is_file()]
    if missing:
        print(f"error: not a locusframe checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            a, f, found = run_workload(workload, args.seed, args.seconds, args.trace)
            attempted += a
            failed += f
            prefix = "" if len(workloads) == 1 else workload + "."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
