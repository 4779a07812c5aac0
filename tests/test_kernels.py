"""Bit-identity guards for the scalar 3x3 kernels and the evaluators around them.

LocusBasis, basis_vectors and assemble write their float operations out in
plain Python, and apply and park_rotate hand theirs to numpy.  Each test here
recomputes one of them in a stated reference order (np.cross and the explicit
norm, values_at, the forward matrix, the written-out Park formula) and compares
the float bits, signed zeros included, not within a tolerance.  The inputs
are seeded random segments at the three orientation kinds, plus near-linear
loci down to g of about 1e-7 and past the gate, circular loci that fall back
from max-norm to the phase-a peak, and a segment without phase a.
"""

import math

import numpy as np
import pytest

from locusframe import (
    DegenerateLocusError,
    LocusBasis,
    MAX_NORM,
    PHASE_A_PEAK,
    PhasorScenario,
    ScenarioSegment,
    UndefinedOrientationError,
    apply,
    assemble,
    basis_vectors,
    build_basis,
    evaluate,
    evaluate_scenario,
    park_rotate,
    resolve_orientation,
    theta_phase_a_peak,
)
from locusframe.locus import DEGENERACY_ATOL, DEGENERACY_RTOL
from locusframe.waveform import TWO_PI, values_at

import support

#: explicit orientation angle of the segments that have no phase a
EXPLICIT_ANGLE = 0.61


def _segments():
    """(segment, explicit angle) pairs: random ones, near-linear ones on both sides
    of the gate, circular ones and one without phase a."""
    rng = np.random.default_rng(3801)
    cases = [(support.random_segment(rng), rng.uniform(-math.pi, math.pi)) for _ in range(150)]
    # offsets (0, 120 + eps, -120) degrees: total phases that agree up to eps, so
    # g is about eps in radians; 1e-7 passes the gate and 1e-9 and 1e-10 do not
    for eps in (1e-2, 1e-4, 1e-6, 1e-7, 2e-7, 1e-9, 1e-10):
        amps = tuple(rng.uniform(0.2, 1.2, size=3))
        offsets = (0.3, 0.3 + 2.0 * math.pi / 3.0 + eps, 0.3 - 2.0 * math.pi / 3.0)
        cases.append((ScenarioSegment(0.0, amps, offsets), rng.uniform(-math.pi, math.pi)))
    # balanced, and balanced up to 1e-13: max-norm falls back to the phase-a peak
    for amps in ((1.0, 1.0, 1.0), (1.0 + 1e-13, 1.0, 1.0), (0.4, 0.4, 0.4)):
        cases.append((ScenarioSegment(0.0, amps, (-0.8,) * 3), rng.uniform(-math.pi, math.pi)))
    cases.append((ScenarioSegment(0.0, (0.0, 0.9, 0.5), (0.0, 0.4, -0.3)), EXPLICIT_ANGLE))
    return cases


CASES = _segments()
ORIENTATIONS = ("phase-a-peak", "max-norm", "explicit")


def _orientations(segment, angle):
    """(kind, orientation, theta_o) of each kind that resolves for the segment."""
    for kind, orientation in zip(ORIENTATIONS, (PHASE_A_PEAK, MAX_NORM, angle)):
        try:
            yield kind, orientation, resolve_orientation(segment, orientation)
        except UndefinedOrientationError:
            assert segment.amplitudes[0] == 0.0


def _bits(value):
    """A float, or nested tuples of floats, as hex strings: equal when the bits are."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float(value).hex()


def _reference_basis(e1, e2):
    """(vectors, norms, degeneracy, g) of a pair: e1 x e2 from np.cross, each norm the
    square root of the plain sum of squares, e3 = sqrt(3) * cross / |cross|."""
    cross = np.cross(e1, e2).tolist()
    n1, n2, cross_norm = (support.explicit_norm(v) for v in (e1, e2, cross))
    if n1 <= DEGENERACY_ATOL or n2 <= DEGENERACY_ATOL:
        g = degeneracy = 0.0
    else:
        g = 2.0 * cross_norm / (n1 * n1 + n2 * n2)
        degeneracy = min(1.0, cross_norm / (n1 * n2))
    e3 = tuple(math.sqrt(3.0) * c / cross_norm for c in cross) if g > DEGENERACY_RTOL else None
    return (tuple(e1), tuple(e2), e3), (n1, n2), degeneracy, g


def test_cases_cover_every_kind():
    # the inputs reach each path that the guards below are meant to cover
    gates, fallbacks, undefined = [], 0, 0
    for segment, angle in CASES:
        for _, orientation, theta_o in _orientations(segment, angle):
            gates.append(_reference_basis(*basis_vectors(segment, theta_o))[3])
            if orientation == MAX_NORM and segment.amplitudes[0]:
                fallbacks += theta_o == theta_phase_a_peak(segment)
        undefined += segment.amplitudes[0] == 0.0
    accepted = [g for g in gates if g > DEGENERACY_RTOL]
    assert min(accepted) < 1e-6
    assert sum(g <= DEGENERACY_RTOL for g in gates) >= 6
    assert fallbacks >= 3 and undefined == 1


@pytest.mark.parametrize("kind", ORIENTATIONS)
def test_locus_basis_fields(kind):
    # every field, and the degeneracy that a rejected pair carries, from the reference
    checked = 0
    for segment, angle in CASES:
        for each, _, theta_o in _orientations(segment, angle):
            if each != kind:
                continue
            e1, e2 = basis_vectors(segment, theta_o)
            vectors, norms, degeneracy, g = _reference_basis(e1, e2)
            if g <= DEGENERACY_RTOL:
                with pytest.raises(DegenerateLocusError) as excinfo:
                    LocusBasis(e1, e2, theta_o)
                assert _bits(excinfo.value.degeneracy) == _bits(degeneracy)
                continue
            basis = LocusBasis(e1, e2, theta_o)
            assert _bits(basis.vectors) == _bits(vectors)
            assert _bits(basis.norms) == _bits(norms)
            assert _bits(basis.degeneracy) == _bits(degeneracy)
            assert basis.theta_o is theta_o
            checked += 1
    assert checked >= 150


def test_basis_vectors_are_values_a_quarter_period_apart():
    for segment, angle in CASES:
        for _, orientation, theta_o in _orientations(segment, angle):
            pair = basis_vectors(segment, theta_o)
            expected = (values_at(segment, theta_o), values_at(segment, theta_o + 0.5 * math.pi))
            assert _bits(pair) == _bits(expected)
            try:
                basis = build_basis(segment, orientation)
            except DegenerateLocusError:
                continue
            assert basis.theta_o == theta_o
            assert _bits(basis.vectors[:2]) == _bits(pair)


@pytest.mark.parametrize("normalized", [False, True], ids=["unit", "normalized"])
def test_apply_is_the_forward_product(normalized):
    grid = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    long_grid = np.arange(5000) * (TWO_PI / 1000.0)
    for k, (segment, angle) in enumerate(CASES):
        for _, orientation, _ in _orientations(segment, angle):
            try:
                frame = assemble(build_basis(segment, orientation), normalized)
            except DegenerateLocusError:
                continue
            blocks = [evaluate(segment, grid), evaluate(segment, 0.7)]
            if k % 25 == 0:
                blocks.append(evaluate(segment, long_grid))
            for triples in blocks:
                got, expected = apply(frame, triples), frame.forward @ triples
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def test_park_rotate_is_the_written_out_formula():
    # d = c*x + s*y and q = c*y - s*x, which is -s*x + c*y bit for bit, signed zeros
    # included; the whole grid as arrays, then each point as scalars
    values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-300, -1e-300]
    angles = [0.0, -0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, 1.0, -2.0, 3.0]
    x, y, theta = (a.ravel() for a in np.meshgrid(values, values, angles))
    for angle, (u, v) in [(theta, (x, y))] + list(zip(theta, zip(x, y))):
        c, s = np.cos(angle), np.sin(angle)
        d, q = (np.asarray(z).tobytes() for z in park_rotate(angle, (u, v)))
        assert d == np.asarray(c * u + s * v).tobytes()
        assert q == np.asarray(c * v - s * u).tobytes() == np.asarray(-s * u + c * v).tobytes()


def test_evaluate_equals_evaluate_scenario():
    rng = np.random.default_rng(3802)
    for segment, _ in CASES:
        scenario = PhasorScenario(TWO_PI * 50.0, (segment,))
        grid = rng.uniform(0.0, 4.0 * math.pi, size=37)
        sampled = evaluate_scenario(scenario, grid)
        assert evaluate(segment, grid).tobytes() == sampled.tobytes()
        for k in (0, 18, 36):
            single = evaluate(segment, grid[k])
            assert single.shape == (3,)
            assert single.tobytes() == sampled[:, k].tobytes()
