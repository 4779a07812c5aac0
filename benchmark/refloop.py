"""Reference loop: a fixed piece of work that measures the host's speed.

This host's speed drifts by up to a factor of two over minutes, because the
other hardware thread of its core runs other tenants' work.  A time measured
in one run and compared with one measured minutes later carries that drift.
The benchmark therefore times this loop between the timed parts of each
pass and reports the pass in units of it: a ratio of two times taken moments
apart on the same core, in which the host's speed cancels.

The loop mixes what the program spends its time on: Python calls and
arithmetic, and numpy calls on 3-vectors and 3x3 matrices.  It imports
nothing from ``locusframe``, so no change to the program can change it, and
it runs with the garbage collector off, so the program's heap does not
either.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: iterations of one unit, about 5 ms on a 2.1 GHz Xeon
UNIT_ITERATIONS = 150

_A = np.array([1.0, 0.5, -0.3])
_B = np.array([0.2, -1.0, 0.7])


def _unit():
    total = 0.0
    for _ in range(UNIT_ITERATIONS):
        c = np.cross(_A, _B)
        m = np.column_stack((_A, _B, c))
        total += float(np.linalg.norm(c)) + m[1, 2] + sum(x * 0.5 for x in (1.0, 2.0, 3.0))
    return total


def time_units(count):
    """(wall seconds, CPU seconds) of ``count`` units of the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(count):
            _unit()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def warm_up():
    """Run the loop a few times untimed, so that its first timed unit is not a cold one."""
    time_units(10)
