"""``measure`` on random scenarios, checked by the benchmark's independent reference.

``benchmark/checks.py`` (the ``checks`` fixture) recomputes the printed deviation from
the measured CSV and bounds the CSV's residual against ``benchmark/reference.py``,
which imports nothing from ``locusframe``.
"""

import json
import math

import numpy as np

from locusframe import cli

RUNS = 150
RATES = (64, 200, 1000, 2500)
SIGMAS = (0.0, 0.01, 0.05)
#: the exact probe pair spans its plane by at least this sine, so the frame is tame
MIN_CROSS_SHARE = 0.05


def _case(rng, ref):
    """(scenario document, rate, periods, sigma, t1, seed) of one run.

    t1 and t2 = t1 + pi/2 each lie more than a grid step from every switch, so the
    interpolation reads one segment at each, and the exact probes span their plane.
    """
    rate = int(rng.choice(RATES))
    periods = float(rng.uniform(1.0, 3.0))
    starts = [0.0, *np.sort(rng.uniform(0.2, periods, int(rng.integers(0, 3))))]
    doc = {
        "frequency_hz": 50.0,
        "segments": [
            {
                "start_periods": float(start),
                "amplitudes_pu": [float(a) for a in rng.uniform(0.3, 1.2, 3)],
                "phase_offsets_deg": [float(d) for d in rng.uniform(-179.0, 179.0, 3)],
            }
            for start in starts
        ],
    }
    scenario = ref.Scenario(doc)
    step = ref.TWO_PI / rate
    while True:
        t1 = float(rng.uniform(0.0, ref.TWO_PI * periods - 0.5 * math.pi))
        probes = np.array([t1, t1 + 0.5 * math.pi])
        near = np.abs(scenario.starts[1:, None] - probes) <= step
        e1, e2 = scenario.signal(probes).T
        if not near.any() and ref.cross_share(e1, e2) >= MIN_CROSS_SHARE:
            break
    sigma = float(rng.choice(SIGMAS))
    return doc, rate, periods, sigma, t1, int(rng.integers(0, 2**31))


def test_measure_agrees_with_the_reference(capsys, tmp_path, checks):
    # random 1-3-segment scenarios at four rates, noiseless and noisy; an estimate taken
    # from other noise than its CSV holds, or from rows off by one, fails the recomputed
    # deviation
    rng = np.random.default_rng(20241020)
    failures = []
    for k in range(RUNS):
        doc, rate, periods, sigma, t1, seed = _case(rng, checks.ref)
        path = tmp_path / f"s{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(tmp_path / f"m{k}")
        argv = ["measure", str(path), "--rate", str(rate), "--periods", repr(periods)]
        argv += ["--t1-angle", repr(t1), "--noise", repr(sigma), "--seed", str(seed)]
        code = cli.main([*argv, "--out", out])
        stdout, stderr = capsys.readouterr()
        if (code, stderr) != (0, ""):
            failures.append((argv, f"exit {code}: {stderr.strip()}"))
            continue
        scenario = checks.ref.Scenario(doc)
        found = checks.check_measure(stdout, scenario, out, rate, periods, sigma, t1)
        failures += [(argv, message) for message in found]
    assert failures == []
