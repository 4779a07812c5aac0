"""Symmetrical-component decomposition of a three-phase phasor triple.

Phase quantities are represented as complex phasors whose argument is the
total phase at angle zero, structural phase shifts included.  The sequence
operator is the unit rotator exp(2j*pi/3).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .waveform import ScenarioSegment, total_phases

#: 120-degree sequence rotator, usually written `a`
ROTATOR = cmath.exp(2j * math.pi / 3.0)


class ZeroPositiveSequenceError(ZeroDivisionError):
    """Unbalance ratios are undefined when the positive sequence vanishes."""


class PhasorTriple(NamedTuple):
    """Complex phasors for phases a, b, c."""

    a: complex
    b: complex
    c: complex


class SequenceComponents(NamedTuple):
    """Zero, positive, and negative sequence phasors."""

    zero: complex
    positive: complex
    negative: complex


def to_phasors(segment: ScenarioSegment) -> PhasorTriple:
    """Phasors of a segment: V_k * exp(j * q_k) at its total phases q_k."""
    va, vb, vc = segment.amplitudes
    qa, qb, qc = total_phases(segment)
    return PhasorTriple(va * cmath.exp(1j * qa), vb * cmath.exp(1j * qb), vc * cmath.exp(1j * qc))


def fortescue(phasors: PhasorTriple) -> SequenceComponents:
    """Decompose a phasor triple into symmetrical components.

    zero     = (Pa +      Pb +      Pc) / 3
    positive = (Pa + a  * Pb + a^2 * Pc) / 3
    negative = (Pa + a^2* Pb + a  * Pc) / 3
    """
    a = ROTATOR
    a2 = a * a
    pa, pb, pc = phasors.a, phasors.b, phasors.c
    return SequenceComponents(
        zero=(pa + pb + pc) / 3.0,
        positive=(pa + a * pb + a2 * pc) / 3.0,
        negative=(pa + a2 * pb + a * pc) / 3.0,
    )


def reconstruct(components: SequenceComponents) -> PhasorTriple:
    """Inverse of fortescue(): rebuild the phase phasors.

    Pa = z + p + n;  Pb = z + a^2 p + a n;  Pc = z + a p + a^2 n.
    """
    a = ROTATOR
    a2 = a * a
    z, p, n = components.zero, components.positive, components.negative
    return PhasorTriple(
        a=z + p + n,
        b=z + a2 * p + a * n,
        c=z + a * p + a2 * n,
    )


def unbalance_metrics(components: SequenceComponents):
    """(|negative| / |positive|, |zero| / |positive|) magnitude ratios.

    Raises ZeroPositiveSequenceError when the positive sequence is zero.
    """
    p = abs(components.positive)
    if p == 0.0:
        raise ZeroPositiveSequenceError("positive-sequence magnitude is zero")
    return abs(components.negative) / p, abs(components.zero) / p
