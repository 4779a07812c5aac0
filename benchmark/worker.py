"""Worker process of the benchmark: runs the program in-process.

    python benchmark/worker.py probe (--scenario PATH | --batch PATH)
    python benchmark/worker.py frames --batch PATH --seconds S [--trace-out PATH]
    python benchmark/worker.py cli --session PATH --seconds S --trace-out PATH

``probe`` imports ``locusframe.cli`` and loads one workload's inputs, then
prints one line; the caller times it from spawn to that line.  ``frames``
runs the frames-batch passes through the library.  ``cli`` drives
``cli.main(argv)`` in-process for a traced CLI session.  ``locusframe`` is
imported from the PYTHONPATH the caller sets, and only inside the modes, so
that the probe's import is the first one.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

#: every run makes at least this many passes, whatever --seconds says
MIN_PASSES = 3
#: frames-batch segments timed between two checks
CHUNK = 250
#: units of the reference loop timed after each frames-batch chunk
REF_UNITS_PER_CHUNK = 1


def run_passes(seconds, one_pass):
    """Results of one_pass() called until another pass would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if len(results) >= MIN_PASSES and now - start + (now - began) > seconds:
            return results


def _modules():
    from locusframe import cli, locus, sequence, transform, waveform

    return {"cli": cli, "locus": locus, "sequence": sequence, "transform": transform, "waveform": waveform}


def _segments(waveform, batch):
    return [
        waveform.ScenarioSegment(0.0, tuple(a), tuple(o))
        for a, o in zip(batch["amplitudes"], batch["offsets"])
    ]


def _load_batch(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def probe(args):
    start = time.perf_counter()
    import locusframe.cli

    imported = time.perf_counter()
    if args.scenario:
        locusframe.waveform.load_scenario(args.scenario)
    else:
        _segments(locusframe.waveform, _load_batch(args.batch))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": done - imported}), flush=True)


def frames(args):
    """frames-batch: every segment through each orientation kind and Fortescue."""
    import numpy as np

    import checks
    import refloop
    from tracer import Tracer

    import locusframe as lf

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(_modules())
    batch = _load_batch(args.batch)
    segments = _segments(lf.waveform, batch)
    grid = np.linspace(0.0, 2.0 * math.pi, batch["grid"], endpoint=False)
    angles = batch["angles"]
    failures = []

    refloop.warm_up()

    def one_pass():
        wall = cpu = ref_wall = ref_cpu = 0.0
        units = failed = 0
        for lo in range(0, len(segments), CHUNK):
            hi = min(lo + CHUNK, len(segments))
            results, errors = [], {}
            t0, c0 = time.perf_counter(), time.process_time()
            for i in range(lo, hi):
                try:
                    results.append((i, *segment_ops(lf, segments[i], angles[i], grid)))
                except Exception as exc:  # an operation that raises is a failed one
                    errors[i] = f"segment {i}: {exc!r}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            w, c = refloop.time_units(REF_UNITS_PER_CHUNK)
            ref_wall += w
            ref_cpu += c
            units += REF_UNITS_PER_CHUNK
            failed += len(errors)
            failures.extend(errors.values())
            if results:
                failed += check_chunk(np, checks, batch, grid, results, failures)
        totals = tracer.take_pass() if tracer else {}
        return {"wall_s": wall, "cpu_s": cpu, "wall_ref": wall * units / ref_wall, "cpu_ref": cpu * units / ref_cpu,
                "ref_unit_s": ref_wall / units, "attempted": len(segments), "failed": failed, "totals": totals}

    passes = run_passes(args.seconds, one_pass)
    if tracer:
        tracer.write(args.trace_out)
    _report(passes, failures)


def segment_ops(lf, segment, angle, grid):
    """One frames-batch operation: every orientation kind, then Fortescue.

    Returns ([(frame, coords, (d, q)) per orientation], components, ratios).
    """
    triples = lf.waveform.evaluate(segment, grid)
    per_orientation = []
    for orientation in (lf.locus.PHASE_A_PEAK, lf.locus.MAX_NORM, angle):
        frame = lf.transform.assemble(lf.locus.build_basis(segment, orientation))
        coords = lf.transform.apply(frame, triples)
        dq = lf.transform.park_rotate(grid, (coords[0], coords[1]))
        per_orientation.append((frame, coords, dq))
    components = lf.sequence.fortescue(lf.sequence.to_phasors(segment))
    return per_orientation, components, lf.sequence.unbalance_metrics(components)


def check_chunk(np, checks, batch, grid, results, failures):
    """Check (index, *segment_ops) results; append messages, return the failed count."""
    index = [r[0] for r in results]
    chunk = {
        "amps": [batch["amplitudes"][i] for i in index],
        "offsets": [batch["offsets"][i] for i in index],
        "angles": [batch["angles"][i] for i in index],
    }
    out = {
        "theta": np.array([[f.theta_o for f, _, _ in r[1]] for r in results]),
        "forward": np.array([[f.forward for f, _, _ in r[1]] for r in results]),
        "inverse": np.array([[f.inverse for f, _, _ in r[1]] for r in results]),
        "coords": np.array([[c for _, c, _ in r[1]] for r in results]),
        "dq": np.array([[np.vstack(dq) for _, _, dq in r[1]] for r in results]),
        "components": np.array([[c.zero, c.positive, c.negative] for c in (r[2] for r in results)]),
        "ratios": np.array([r[3] for r in results]),
    }
    failed = 0
    for i, messages in zip(index, checks.check_frames(chunk, grid, out)):
        if messages:
            failed += 1
            failures.append(f"segment {i}: " + "; ".join(messages))
    return failed


def cli_session(args):
    """Traced CLI session: cli.main(argv) in-process, checked like the subprocess runs."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    import checks
    import reference
    from tracer import Tracer

    mods = _modules()
    tracer = Tracer()
    tracer.install(mods)
    cli = mods["cli"]
    with open(args.session, "r", encoding="utf-8") as fh:
        session = json.load(fh)
    scenario = reference.Scenario(checks.load_scenario_doc(session["scenario"]))
    failures = []

    def one_pass():
        outputs = []
        t0 = time.perf_counter()
        for op in session["ops"]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raising invocation is a failed operation
                code, err = 1, io.StringIO(repr(exc))
            outputs.append((code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - t0
        totals = tracer.take_pass()
        failed = 0
        for op, (code, out, err) in zip(session["ops"], outputs):
            messages = checks.check_op(op, code, out, err, scenario)
            if messages:
                failed += 1
                failures.append(f"{op['kind']}: " + "; ".join(messages))
        return {"wall_s": wall, "attempted": len(outputs), "failed": failed, "totals": totals}

    passes = run_passes(args.seconds, one_pass)
    tracer.write(args.trace_out)
    _report(passes, failures)


def _report(passes, failures):
    print(json.dumps({"passes": passes, "failures": failures[:20]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_probe = sub.add_parser("probe")
    source = p_probe.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario")
    source.add_argument("--batch")
    p_probe.set_defaults(func=probe)
    p_frames = sub.add_parser("frames")
    p_frames.add_argument("--batch", required=True)
    p_frames.add_argument("--seconds", type=float, required=True)
    p_frames.add_argument("--trace-out", dest="trace_out")
    p_frames.set_defaults(func=frames)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--session", required=True)
    p_cli.add_argument("--seconds", type=float, required=True)
    p_cli.add_argument("--trace-out", dest="trace_out", required=True)
    p_cli.set_defaults(func=cli_session)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    sys.exit(main())
