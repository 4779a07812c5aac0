"""Frame invariants over random non-degenerate segments and orientations.

Each case is a random phasor regime at a random amplitude scale, with the
orientation drawn among phase-a-peak, max-norm and an explicit angle.  Cases
whose locus gate value g = 2|e1 x e2|/(|e1|^2 + |e2|^2) is at most 1e-3 are
discarded; cond([e1 e2 e3]) is about 2/g, so every tolerance is TOL / g.
"""

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
    abc_series,
    assemble,
    build_basis,
    evaluate,
    pipeline_locus,
    theta_max_norm,
)
from locusframe.waveform import TWO_PI

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


def _gate(basis) -> float:
    """g of the LocusBasis gate, discarding cases at or below 1e-3."""
    e1, e2, _ = basis.vectors
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    g = 2.0 * np.linalg.norm(np.cross(e1, e2)) / (n1 * n1 + n2 * n2)
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
