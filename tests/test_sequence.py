"""Symmetrical components: decomposition, reconstruction, unbalance ratios."""

import cmath
import math

import numpy as np
import pytest

from locusframe import (
    PHASE_A_PEAK,
    PhasorTriple,
    ScenarioSegment,
    SequenceComponents,
    ZeroPositiveSequenceError,
    assemble,
    build_basis,
    fortescue,
    reconstruct,
    to_phasors,
    unbalance_metrics,
)
from locusframe.sequence import ROTATOR

import support


def _approx_complex(actual, expected, abs_tol=1e-12):
    assert actual.real == pytest.approx(expected.real, abs=abs_tol)
    assert actual.imag == pytest.approx(expected.imag, abs=abs_tol)


def test_rotator_is_cube_root_of_unity():
    _approx_complex(ROTATOR**3, 1.0 + 0.0j)
    _approx_complex(1.0 + ROTATOR + ROTATOR**2, 0.0j, abs_tol=1e-15)


class TestToPhasors:
    def test_balanced(self):
        segment = support.balanced_segment(offset=0.0)
        phasors = to_phasors(segment)
        _approx_complex(phasors.a, 1.0 + 0.0j)
        _approx_complex(phasors.b, cmath.exp(-2j * math.pi / 3.0))
        _approx_complex(phasors.c, cmath.exp(2j * math.pi / 3.0))

    def test_reference_segment(self, unbalanced_segment):
        phasors = to_phasors(unbalanced_segment)
        _approx_complex(phasors.a, support.PHASORS[0])
        _approx_complex(phasors.b, support.PHASORS[1])
        _approx_complex(phasors.c, support.PHASORS[2])
        assert abs(phasors.a) == pytest.approx(0.7)
        assert cmath.phase(phasors.b) == pytest.approx(math.radians(-130.0))

    def test_bit_identical_to_cmath_formula(self):
        for segment in support.exact_check_segments():
            phases = support.math_total_phases(segment)
            expected = [v * cmath.exp(1j * q) for v, q in zip(segment.amplitudes, phases)]
            phasors = to_phasors(segment)
            assert [phasors.a, phasors.b, phasors.c] == expected

    def test_zero_amplitudes(self):
        segment = ScenarioSegment(0.0, (0.0,) * 3, (0.1, 0.2, 0.3))
        phasors = to_phasors(segment)
        assert phasors.a == 0.0 == phasors.b == phasors.c


class TestFortescue:
    def test_balanced_is_pure_positive(self):
        components = fortescue(to_phasors(support.balanced_segment(offset=0.0)))
        _approx_complex(components.zero, 0.0j, abs_tol=1e-15)
        _approx_complex(components.positive, 1.0 + 0.0j)
        _approx_complex(components.negative, 0.0j, abs_tol=1e-15)

    def test_pure_zero_sequence(self):
        components = fortescue(PhasorTriple(1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j))
        _approx_complex(components.zero, 1.0 + 0.0j)
        _approx_complex(components.positive, 0.0j, abs_tol=1e-15)
        _approx_complex(components.negative, 0.0j, abs_tol=1e-15)

    def test_reference_segment(self, unbalanced_segment):
        components = fortescue(to_phasors(unbalanced_segment))
        _approx_complex(components.zero, support.SEQUENCE_ZERO)
        _approx_complex(components.positive, support.SEQUENCE_POSITIVE)
        _approx_complex(components.negative, support.SEQUENCE_NEGATIVE)

    def test_linearity_exact(self, unbalanced_segment):
        phasors = to_phasors(unbalanced_segment)
        doubled = PhasorTriple(2.0 * phasors.a, 2.0 * phasors.b, 2.0 * phasors.c)
        base = fortescue(phasors)
        scaled = fortescue(doubled)
        # power-of-two scaling commutes with rounding, so equality is exact
        assert scaled.zero == 2.0 * base.zero
        assert scaled.positive == 2.0 * base.positive
        assert scaled.negative == 2.0 * base.negative


class TestReconstruct:
    def test_round_trip_reference(self, unbalanced_segment):
        phasors = to_phasors(unbalanced_segment)
        rebuilt = reconstruct(fortescue(phasors))
        _approx_complex(rebuilt.a, phasors.a)
        _approx_complex(rebuilt.b, phasors.b)
        _approx_complex(rebuilt.c, phasors.c)

    def test_round_trip_random(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            values = rng.uniform(-1.0, 1.0, size=6)
            phasors = PhasorTriple(
                complex(values[0], values[1]),
                complex(values[2], values[3]),
                complex(values[4], values[5]),
            )
            rebuilt = reconstruct(fortescue(phasors))
            assert abs(rebuilt.a - phasors.a) < 1e-12
            assert abs(rebuilt.b - phasors.b) < 1e-12
            assert abs(rebuilt.c - phasors.c) < 1e-12

    def test_zero_components(self):
        rebuilt = reconstruct(SequenceComponents(0.0j, 0.0j, 0.0j))
        assert rebuilt.a == 0.0 == rebuilt.b == rebuilt.c

    def test_pure_positive_gives_balanced(self):
        rebuilt = reconstruct(SequenceComponents(0.0j, 1.0 + 0.0j, 0.0j))
        _approx_complex(rebuilt.a, 1.0 + 0.0j)
        _approx_complex(rebuilt.b, cmath.exp(-2j * math.pi / 3.0))
        _approx_complex(rebuilt.c, cmath.exp(2j * math.pi / 3.0))


class TestUnbalanceMetrics:
    def test_balanced(self):
        components = fortescue(to_phasors(support.balanced_segment()))
        neg_ratio, zero_ratio = unbalance_metrics(components)
        assert neg_ratio == pytest.approx(0.0, abs=1e-15)
        assert zero_ratio == pytest.approx(0.0, abs=1e-15)

    def test_reference_segment(self, unbalanced_segment):
        ratios = unbalance_metrics(fortescue(to_phasors(unbalanced_segment)))
        assert ratios == pytest.approx(support.UNBALANCE_RATIOS, abs=1e-12)
        assert 0.0 < ratios[0] < 1.0
        assert 0.0 < ratios[1] < 1.0

    def test_zero_positive_raises(self):
        with pytest.raises(ZeroPositiveSequenceError):
            unbalance_metrics(SequenceComponents(1.0 + 0.0j, 0.0j, 0.5j))


def test_balanced_third_row_bridge():
    """For balanced segments the frame's third row is the zero-sequence average."""
    rng = np.random.default_rng(59)
    for _ in range(25):
        segment = support.balanced_segment(
            amplitude=rng.uniform(0.2, 1.2), offset=rng.uniform(-math.pi, math.pi)
        )
        frame = assemble(build_basis(segment, PHASE_A_PEAK))
        assert frame.forward[2] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)
        phasors = to_phasors(segment)
        expected_zero = (phasors.a + phasors.b + phasors.c) / 3.0
        _approx_complex(fortescue(phasors).zero, expected_zero)
