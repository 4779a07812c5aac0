"""Frame invariants over random non-degenerate segments and orientations.

Each case is a random phasor regime at a random amplitude scale, with the
orientation drawn among phase-a-peak, max-norm and an explicit angle.  Cases
whose locus gate value g = 2|e1 x e2|/(|e1|^2 + |e2|^2) is at most 1e-3 are
discarded; cond([e1 e2 e3]) is about 2/g, so every tolerance is TOL / g.
The sequence-domain tests state the locus through the symmetrical components
instead, near-linear loci included.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locusframe import (
    CircularLocusError,
    LocusError,
    MAX_NORM,
    PHASE_A_PEAK,
    PhasorScenario,
    ScenarioSegment,
    SequenceComponents,
    abc_series,
    assemble,
    basis_vectors,
    build_basis,
    evaluate,
    fortescue,
    norm_profile,
    pipeline_locus,
    reconstruct,
    theta_max_norm,
    to_phasors,
)
from locusframe.waveform import STRUCTURAL_SHIFTS, TWO_PI

import support

#: relative error allowed at g = 1, i.e. at cond([e1 e2 e3]) about 2
TOL = 1e-13
#: samples per period of the sampled invariants
RATE = 64


@st.composite
def _segments(draw):
    scale = 10.0 ** draw(st.integers(-6, 6))
    amplitudes = [scale * draw(st.floats(0.0, 1.2)) for _ in range(3)]
    offsets = [draw(st.floats(-math.pi, math.pi)) for _ in range(3)]
    return ScenarioSegment(0.0, tuple(amplitudes), tuple(offsets))


_ORIENTATIONS = st.one_of(
    st.sampled_from((PHASE_A_PEAK, MAX_NORM)), st.floats(-math.pi, math.pi)
)


def _gate_value(e1, e2) -> float:
    """g = 2|e1 x e2|/(|e1|^2 + |e2|^2) of two float triples, with no gate applied."""
    n1, n2 = support.explicit_norm(e1), support.explicit_norm(e2)
    return 2.0 * support.explicit_norm(np.cross(e1, e2)) / (n1 * n1 + n2 * n2)


def _gate(basis) -> float:
    """g of the LocusBasis gate, discarding cases at or below 1e-3."""
    g = _gate_value(*basis.vectors[:2])
    assume(g > 1e-3)
    return g


def _basis(segment, orientation):
    try:
        return build_basis(segment, orientation)
    except LocusError:
        assume(False)


@settings(deadline=None)
@given(segment=_segments(), orientation=_ORIENTATIONS, normalized=st.booleans())
def test_forward_inverts_inverse(segment, orientation, normalized):
    basis = _basis(segment, orientation)
    g = _gate(basis)
    frame = assemble(basis, normalized=normalized)
    forward, inverse = frame.forward, frame.inverse
    # entry (i, j) of a product is a dot product, bounded by the norms of its factors,
    # which differ by the amplitude scale: e3 has norm sqrt(3), e1 and e2 do not
    rows, cols = np.linalg.norm(forward, axis=1), np.linalg.norm(inverse, axis=0)
    assert np.all(np.abs(forward @ inverse - np.eye(3)) <= TOL / g * np.outer(rows, cols))
    rows, cols = np.linalg.norm(inverse, axis=1), np.linalg.norm(forward, axis=0)
    assert np.all(np.abs(inverse @ forward - np.eye(3)) <= TOL / g * np.outer(rows, cols))


@settings(deadline=None)
@given(segment=_segments(), orientation=_ORIENTATIONS)
def test_unit_quadrature_and_null_third_channel(segment, orientation):
    basis = _basis(segment, orientation)
    g = _gate(basis)
    frame = assemble(basis)
    angles = np.arange(RATE) * (TWO_PI / RATE)
    triples = evaluate(segment, angles)
    coords = frame.forward @ triples
    phase = angles - basis.theta_o
    assert np.abs(coords[0] - np.cos(phase)).max() <= TOL / g
    assert np.abs(coords[1] - np.sin(phase)).max() <= TOL / g
    # the null channel is a projection on the unit normal, at the signal's scale
    assert np.abs(coords[2]).max() <= TOL / g * np.abs(triples).max()


@settings(deadline=None)
@given(segment=_segments(), orientation=_ORIENTATIONS)
def test_constant_synchronous_frame(segment, orientation):
    basis = _basis(segment, orientation)
    g = _gate(basis)
    scenario = PhasorScenario(omega=TWO_PI * 50.0, segments=(segment,))
    _, dq0 = pipeline_locus(abc_series(scenario, RATE, 1.0), assemble(basis))
    d, q, _ = dq0.coords
    assert np.abs(d - math.cos(basis.theta_o)).max() <= TOL / g
    assert np.abs(q + math.sin(basis.theta_o)).max() <= TOL / g


@settings(deadline=None)
@given(segment=_segments())
def test_max_norm_basis_orthogonal(segment):
    try:
        theta = theta_max_norm(segment)
    except CircularLocusError:
        assume(False)
    basis = _basis(segment, theta)
    _gate(basis)
    e1, e2 = map(np.array, basis.vectors[:2])
    assert abs(e1 @ e2) <= TOL * (e1 @ e1 + e2 @ e2)


#: an amplitude per unit of scale: zero, or far enough from it that no square underflows
_UNITS = st.one_of(st.just(0.0), st.floats(1e-3, 1.2))
#: log10 of a tiny spread that makes a locus nearly linear, or None for a free draw
_SPREADS = st.one_of(st.none(), st.floats(-12.0, -3.0))


@st.composite
def _sequence_segments(draw):
    """A segment at a random amplitude scale whose total phases agree up to a
    tiny spread in about half the draws, where the locus is nearly linear."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    amplitudes = [scale * draw(_UNITS) for _ in range(3)]
    spread = draw(_SPREADS)
    if spread is None:
        offsets = [draw(st.floats(-math.pi, math.pi)) for _ in range(3)]
    else:
        base = draw(st.floats(-math.pi, math.pi))
        offsets = [base - s + 10.0**spread * draw(st.floats(-1.0, 1.0)) for s in STRUCTURAL_SHIFTS]
    return ScenarioSegment(0.0, tuple(amplitudes), tuple(offsets))


@st.composite
def _positive_negative(draw):
    """Positive- and negative-sequence phasors at a random amplitude scale; |n|
    is within a tiny spread of |p| in about half the draws, where the locus is
    nearly linear."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    p_abs = scale * draw(_UNITS)
    spread = draw(_SPREADS)
    if spread is None:
        n_abs = scale * draw(_UNITS)
    else:
        n_abs = p_abs * (1.0 + 10.0**spread * draw(st.floats(-1.0, 1.0)))
    p = cmath.rect(p_abs, draw(st.floats(-math.pi, math.pi)))
    return p, cmath.rect(n_abs, draw(st.floats(-math.pi, math.pi)))


@settings(deadline=None)
@given(segment=_sequence_segments(), theta_o=st.floats(-math.pi, math.pi))
def test_locus_in_sequence_terms(segment, theta_o):
    # with z, p, n the zero, positive and negative sequences, ||v(theta)||^2 =
    # C - A sin(2 theta + psi) has C = 3(|z|^2 + |p|^2 + |n|^2)/2 and A = 3|z^2 + 2pn|/2;
    # the semi-axes are sqrt(C + A) and sqrt(C - A), so g = 2ab/(a^2 + b^2) = sqrt(C^2 - A^2)/C
    components = fortescue(to_phasors(segment))
    z, p, n = components.zero, components.positive, components.negative
    c_level = 1.5 * (abs(z) ** 2 + abs(p) ** 2 + abs(n) ** 2)
    a_amplitude = 1.5 * abs(z * z + 2.0 * p * n)
    assume(c_level > 0.0)
    profile = norm_profile(segment)
    assert abs(profile.c_level - c_level) <= TOL * c_level
    assert abs(profile.a_amplitude - a_amplitude) <= TOL * c_level
    # the square root of a difference keeps only half the digits near a linear locus
    g = _gate_value(*basis_vectors(segment, theta_o))
    assert abs(g - math.sqrt(max(c_level**2 - a_amplitude**2, 0.0)) / c_level) <= 2e-7


@settings(deadline=None)
@given(pn=_positive_negative(), theta_o=st.floats(-math.pi, math.pi))
def test_gate_without_zero_sequence(pn, theta_o):
    # with z = 0, C^2 - A^2 is a square: g = ||p|^2 - |n|^2|/(|p|^2 + |n|^2) to full precision
    p, n = pn
    weight = abs(p) ** 2 + abs(n) ** 2
    assume(weight > 0.0)
    phasors = reconstruct(SequenceComponents(0j, p, n))
    values = (phasors.a, phasors.b, phasors.c)
    segment = ScenarioSegment(
        0.0,
        tuple(abs(v) for v in values),
        # atan2, as cmath.phase raises where the angle underflows
        tuple(math.atan2(v.imag, v.real) - s for v, s in zip(values, STRUCTURAL_SHIFTS)),
    )
    g = _gate_value(*basis_vectors(segment, theta_o))
    assert abs(g - abs(abs(p) ** 2 - abs(n) ** 2) / weight) <= TOL
