"""``simulate`` on random scenarios, checked by the benchmark's independent reference.

``benchmark/checks.py`` (the ``checks`` fixture) recomputes every CSV of a default
``simulate`` (all frames, the phase-a-peak frame of the last segment) from
``benchmark/reference.py``, which imports nothing from ``locusframe``, and checks that
the last segment's rows read the unit circle and a null third channel.
"""

import json

import numpy as np

from locusframe import cli

RUNS = 150
RATES = (64, 200, 1000)
#: the last segment's phase-a-peak probes span their plane by at least this sine
MIN_CROSS_SHARE = 0.05


def _segment(rng):
    """(amplitudes, offsets in degrees) of a random segment."""
    return rng.uniform(0.3, 1.2, 3), rng.uniform(-179.0, 179.0, 3)


def _case(rng, ref):
    """(scenario document, rate, periods) of one run.

    Every switch lies half a grid step off the grid, so each sample's segment is
    unambiguous, and the last segment, whose frame makes the locus123 and dq0 CSVs,
    is clear of the degeneracy gate.
    """
    rate = int(rng.choice(RATES))
    periods = float(rng.uniform(1.0, 3.0))
    steps = int(rate * periods)
    switches = np.sort(rng.choice(np.arange(1, steps), int(rng.integers(0, 3)), replace=False))
    starts = [0.0, *((switches + 0.5) / rate)]
    segments = [_segment(rng) for _ in starts[:-1]]
    while True:
        amps, offsets = _segment(rng)
        phases = np.radians(offsets) + ref.SHIFTS
        theta = ref.phase_a_peak(phases)
        e1 = ref.triple(amps, phases, theta)
        e2 = ref.triple(amps, phases, theta + 0.5 * np.pi)
        if ref.cross_share(e1, e2) >= MIN_CROSS_SHARE:
            segments.append((amps, offsets))
            break
    doc = {
        "frequency_hz": 50.0,
        "segments": [
            {
                "start_periods": float(start),
                "amplitudes_pu": [float(a) for a in amps],
                "phase_offsets_deg": [float(d) for d in offsets],
            }
            for start, (amps, offsets) in zip(starts, segments)
        ],
    }
    return doc, rate, periods


def test_simulate_agrees_with_the_reference(capsys, tmp_path, checks):
    # random 1-3-segment scenarios at three rates; a wrong Park sign, a swapped forward
    # row or a segment boundary off by one row fails the recomputed CSVs
    rng = np.random.default_rng(20261020)
    failures = []
    for k in range(RUNS):
        doc, rate, periods = _case(rng, checks.ref)
        path = tmp_path / f"s{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(tmp_path / f"o{k}")
        argv = ["simulate", str(path), "--rate", str(rate), "--periods", repr(periods)]
        code = cli.main([*argv, "--out", out])
        stdout, stderr = capsys.readouterr()
        if (code, stderr) != (0, ""):
            failures.append((argv, f"exit {code}: {stderr.strip()}"))
            continue
        scenario = checks.ref.Scenario(doc)
        found = checks.check_simulate(stdout, scenario, out, rate, periods)
        failures += [(argv, message) for message in found]
    assert failures == []
