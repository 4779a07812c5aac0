"""Spans around the program's public functions, wrapped from outside.

``install`` replaces module attributes of ``locusframe`` with wrappers that
time each call.  Names another module imported directly (``from .waveform
import evaluate``) are wrapped in that module too, so every call site goes
through a wrapper.  Each span's self time is its duration minus that of its
child spans; calls are single-threaded, so children never overlap.  Per-pass
totals are kept by name, and the spans of the first pass are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


def _series_rows(args, kwargs, result):
    return {"rows": len(args[1].angles), "bytes": os.path.getsize(args[0])}


def _evaluated(args, kwargs, result):
    return {"samples": result.shape[1], "segments": len(args[0].segments)}


def _frames(args, kwargs, result):
    return {"frames": len(result)}


#: (module, attribute, span name, extra counts) of every wrapped function
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_validate", "cli.cmd_validate", None),
    ("cli", "cmd_matrix", "cli.cmd_matrix", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("cli", "cmd_measure", "cli.cmd_measure", None),
    ("cli", "write_series_csv", "cli.write_series_csv", _series_rows),
    ("waveform", "load_scenario", "waveform.load_scenario", None),
    ("waveform", "parse_scenario", "waveform.parse_scenario", None),
    ("waveform", "evaluate_scenario", "waveform.evaluate_scenario", _evaluated),
    ("transform", "evaluate_scenario", "waveform.evaluate_scenario", _evaluated),
    ("waveform", "sample_series", "waveform.sample_series", _frames),
    ("waveform", "evaluate", "waveform.evaluate", None),
    ("locus", "evaluate", "waveform.evaluate", None),
    ("locus", "resolve_orientation", "locus.resolve_orientation", None),
    ("locus", "build_basis", "locus.build_basis", None),
    ("transform", "build_basis", "locus.build_basis", None),
    ("locus", "basis_from_vectors", "locus.basis_from_vectors", None),
    ("locus", "basis_from_stream", "locus.basis_from_stream", None),
    ("transform", "assemble", "transform.assemble", None),
    ("transform", "apply", "transform.apply", None),
    ("transform", "park_rotate", "transform.park_rotate", None),
    ("transform", "abc_series", "transform.abc_series", None),
    ("transform", "pipeline_locus", "transform.pipeline_locus", None),
    ("transform", "pipeline_clarke_park", "transform.pipeline_clarke_park", None),
    ("sequence", "to_phasors", "sequence.to_phasors", None),
    ("sequence", "fortescue", "sequence.fortescue", None),
    ("sequence", "unbalance_metrics", "sequence.unbalance_metrics", None),
)


class Tracer:
    """In-memory span recorder with per-pass totals."""

    def __init__(self):
        self._stack = []  # [span id, child time] of the open spans
        self._next_id = 0
        self.totals = defaultdict(float)
        self.spans = []
        self.keep_spans = True

    def wrap(self, func, name, counts=None):
        stack = self._stack
        totals = self.totals

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                totals[name + ".self_s"] += duration - frame[1]
                totals[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += duration
                if self.keep_spans:
                    self.spans.append((name, start, end, span_id, parent))
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    totals[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, modules):
        """Wrap every TARGETS entry; ``modules`` maps short names to modules."""
        for module, attr, name, counts in TARGETS:
            setattr(modules[module], attr, self.wrap(getattr(modules[module], attr), name, counts))

    def take_pass(self):
        """Totals since the last call; later passes keep no spans."""
        totals = dict(self.totals)
        self.totals.clear()
        self.keep_spans = False
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "id", "parent"], "spans": self.spans}, fh
            )
