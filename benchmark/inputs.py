"""Seeded inputs of the three workloads.

The same seed gives the same files and sessions.  Every generated segment
stays clear of the degeneracy gate (cross share >= MIN_CROSS_SHARE at its
phase-a-peak probe), so no operation is expected to raise.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

FREQUENCY_HZ = 50.0
RATE = 1000
#: simulate-steps: segment count, simulated periods, start of the last segment
STEP_SEGMENTS = 400
STEP_PERIODS = 100
STEP_LAST_START = 90
#: measure-noisy: periods sampled, noise levels of the noisy invocations
MEASURE_PERIODS = 100
MEASURE_SIGMAS = (0.002, 0.01, 0.05)
#: frames-batch: segments, share of exactly balanced ones, grid points per period
BATCH_SEGMENTS = 3000
BATCH_BALANCED_EVERY = 8
BATCH_GRID = 100
MIN_CROSS_SHARE = 0.05
#: unbalanced segments keep |Z|/2 >= MIN_SWING_SHARE * C, far from circular
MIN_SWING_SHARE = 1e-3
#: and a positive sequence of at least this magnitude, so unbalance ratios are tame
MIN_POSITIVE = 0.05


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _unbalanced(rng, amp_low):
    """Random segment (amplitudes, offsets in degrees) clear of every gate."""
    while True:
        amps = rng.uniform(amp_low, 1.2, 3)
        offsets_deg = rng.uniform(-179.0, 179.0, 3)
        phases = np.radians(offsets_deg) + ref.SHIFTS
        theta = ref.phase_a_peak(phases)
        e1 = ref.triple(amps, phases, theta)
        e2 = ref.triple(amps, phases, theta + 0.5 * np.pi)
        z, c = ref.norm_swing(amps, phases)
        positive = abs(ref.fortescue(ref.phasors(amps, phases))[1])
        if (
            ref.cross_share(e1, e2) >= MIN_CROSS_SHARE
            and 0.5 * abs(z) >= MIN_SWING_SHARE * c
            and positive >= MIN_POSITIVE
        ):
            return amps, offsets_deg


def step_scenario(seed):
    """Scenario document of STEP_SEGMENTS segments for simulate-steps.

    Segment starts sit half a sample between grid points, so no sample lies
    on a switch angle and the active segment of every sample is unambiguous.
    The last segment starts at STEP_LAST_START periods and spans the rest.
    """
    rng = _rng(seed, 1)
    slots = np.sort(rng.choice(STEP_LAST_START * RATE // 10 - 1, STEP_SEGMENTS - 2, replace=False))
    starts = [0.0] + [(10 * (k + 1) + 0.5) / RATE for k in slots] + [STEP_LAST_START + 0.5 / RATE]
    segments = []
    for start in starts:
        amps, offsets_deg = _unbalanced(rng, 0.3)
        segments.append(
            {
                "start_periods": start,
                "amplitudes_pu": [float(a) for a in amps],
                "phase_offsets_deg": [float(d) for d in offsets_deg],
            }
        )
    return {"frequency_hz": FREQUENCY_HZ, "segments": segments}


def simulate_session(seed, scenario_path, out_dir):
    """CLI invocations of one simulate-steps pass, with what each checks."""
    matrix_segment = int(_rng(seed, 2).integers(1, STEP_SEGMENTS + 1))
    scenario = str(scenario_path)
    return {
        "scenario": scenario,
        "ops": [
            {"kind": "validate", "argv": ["validate", scenario]},
            {
                "kind": "matrix",
                "orientation": "phase-a-peak",
                "segment": matrix_segment,
                "argv": ["matrix", scenario, "--orientation", "phase-a-peak",
                         "--segment", str(matrix_segment)],
            },
            {
                "kind": "matrix",
                "orientation": "max-norm",
                "segment": matrix_segment,
                "argv": ["matrix", scenario, "--orientation", "max-norm",
                         "--segment", str(matrix_segment)],
            },
            {
                "kind": "simulate",
                "out": str(out_dir),
                "rate": RATE,
                "periods": STEP_PERIODS,
                "argv": ["simulate", scenario, "--periods", str(STEP_PERIODS),
                         "--out", str(out_dir)],
            },
        ],
    }


def measure_session(seed, scenario_path, out_dir):
    """measure invocations of one measure-noisy pass: noisy ones, then a noiseless one.

    The first noisy t1 lies in the balanced first period of the paper's
    scenario; the others lie in the unbalanced regime.  Every probe pair
    (t1, t1 + pi/2) stays 0.25 rad clear of the switch at 2pi and of the ends.
    """
    rng = _rng(seed, 3)
    end = ref.TWO_PI * MEASURE_PERIODS - 0.5 * math.pi - 0.25
    t1s = [rng.uniform(0.25, ref.TWO_PI - 0.5 * math.pi - 0.25)]
    t1s += list(rng.uniform(ref.TWO_PI + 0.25, end, len(MEASURE_SIGMAS)))
    noise_seeds = rng.integers(0, 2**31, len(MEASURE_SIGMAS))
    runs = [(sigma, int(s), t1) for sigma, s, t1 in zip(MEASURE_SIGMAS, noise_seeds, t1s)]
    runs.append((0.0, 0, t1s[-1]))
    scenario = str(scenario_path)
    ops = []
    for i, (sigma, noise_seed, t1) in enumerate(runs):
        out = f"{out_dir}/m{i}"
        ops.append(
            {
                "kind": "measure",
                "sigma": sigma,
                "t1": float(t1),
                "out": out,
                "rate": RATE,
                "periods": MEASURE_PERIODS,
                "argv": ["measure", scenario, "--rate", str(RATE),
                         "--periods", str(MEASURE_PERIODS), "--noise", repr(sigma),
                         "--seed", str(noise_seed), "--t1-angle", repr(float(t1)),
                         "--out", out],
            }
        )
    return {"scenario": scenario, "ops": ops}


def segment_batch(seed):
    """frames-batch segments: amplitudes, offsets (radians) and an explicit angle.

    Every BATCH_BALANCED_EVERY-th segment is balanced up to a 1e-13 relative
    perturbation, so max-norm takes its circular-locus fallback.
    """
    rng = _rng(seed, 4)
    amps, offsets, angles = [], [], []
    for i in range(BATCH_SEGMENTS):
        if i % BATCH_BALANCED_EVERY == 0:
            a = rng.uniform(0.5, 1.2) * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, 3))
            d = np.full(3, rng.uniform(-179.0, 179.0))
        else:
            a, d = _unbalanced(rng, 0.2)
        amps.append([float(x) for x in a])
        offsets.append([math.radians(x) for x in d])
        angles.append(float(rng.uniform(-math.pi, math.pi)))
    return {"amplitudes": amps, "offsets": offsets, "angles": angles, "grid": BATCH_GRID}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
