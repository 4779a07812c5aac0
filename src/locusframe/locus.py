"""Locus-aligned basis construction.

The instantaneous vector of a sinusoidal three-phase triple traces a closed
planar curve in abc space: a circle when balanced, an ellipse in general, and
a line segment in the degenerate case.  Sampling the trajectory at an
orientation angle theta_o and a quarter period later yields two vectors e1,
e2 that span the locus plane and satisfy

    v(theta) = cos(theta - theta_o) e1 + sin(theta - theta_o) e2.

The third basis vector is the plane normal scaled to norm sqrt(3), which is
independent of theta_o.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .waveform import (
    AMPLITUDE_MAX,
    ScenarioSegment,
    TransformedSeries,
    Triple,
    total_phases,
    values_at,
    wrap_angle,
    TWO_PI,
)

# not called in this module, but benchmark/tracer.py wraps this name here
from .waveform import evaluate  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

#: orientation that samples the trajectory when phase a peaks (Clarke-compatible)
PHASE_A_PEAK = "phase-a-peak"
#: orientation that aligns e1 with the semi-major axis of the locus
MAX_NORM = "max-norm"

#: g = 2|e1 x e2|/(|e1|^2 + |e2|^2) at or below which a locus counts as linear
DEGENERACY_RTOL = 1e-8
#: absolute norm floor below which a basis vector counts as null
DEGENERACY_ATOL = 1e-12
#: profiles with a_amplitude <= CIRCLE_RTOL * c_level count as circular
CIRCLE_RTOL = 1e-9
#: minimum samples per period accepted by basis_from_stream
MIN_STREAM_RATE = 64

_NORMAL_SCALE = math.sqrt(3.0)


class LocusError(Exception):
    """Base class for locus construction and measurement failures."""


class DegenerateLocusError(LocusError):
    """The locus is a line segment; no plane normal exists."""


class UndefinedOrientationError(LocusError):
    """Phase a has zero amplitude, so its peak defines no orientation."""


class CircularLocusError(LocusError):
    """The locus is a circle; no orientation maximizes the norm."""


class MeasurementError(LocusError):
    """Base class for sample-based estimation failures."""


class InsufficientSpanError(MeasurementError):
    """A sampled series does not cover the required angle window."""


class InsufficientRateError(MeasurementError):
    """A sampled series is below the minimum sampling rate."""


@dataclass(frozen=True)
class NormProfile:
    """Coefficients of ||v(theta)||^2 = c_level - a_amplitude * sin(2*theta + psi)."""

    c_level: float
    a_amplitude: float
    psi: float


@dataclass(frozen=True, init=False)
class LocusBasis:
    """Locus-aligned basis: e1, e2 span the locus plane, e3 is the scaled normal.

    Built from e1, e2 (any three numbers each) and theta_o; e3 and
    ``degeneracy`` (see degeneracy_metric) are derived.  ``vectors`` holds
    (e1, e2, e3) as float triples, and the attributes e1, e2, e3 give them as
    arrays.  Raises DegenerateLocusError unless both norms exceed
    DEGENERACY_ATOL and g = 2||e1 x e2|| / (||e1||^2 + ||e2||^2) exceeds
    DEGENERACY_RTOL; g is 2ab/(a^2 + b^2) for the ellipse's semi-axes a, b at
    every orientation, and cond([e1 e2 e3]) is about 2/g for a locus of unit
    size.
    """

    vectors: tuple[Triple, Triple, Triple]
    theta_o: float
    degeneracy: float

    def __init__(self, e1, e2, theta_o: float):
        e1, e2 = _triple(e1), _triple(e2)
        cross, n1, n2, cross_norm = _cross_and_norms(e1, e2)
        g = 2.0 * cross_norm / (n1 * n1 + n2 * n2) if min(n1, n2) > DEGENERACY_ATOL else 0.0
        if g <= DEGENERACY_RTOL:
            raise DegenerateLocusError(
                f"linear locus: g = 2|e1 x e2|/(|e1|^2 + |e2|^2) = {g:.3e} "
                f"with |e1| = {n1:.3e}, |e2| = {n2:.3e}"
            )
        e3 = tuple(_NORMAL_SCALE * c / cross_norm for c in cross)
        object.__setattr__(self, "vectors", (e1, e2, e3))
        object.__setattr__(self, "theta_o", theta_o)
        object.__setattr__(self, "degeneracy", min(1.0, cross_norm / (n1 * n2)))

    @cached_property
    def e1(self) -> np.ndarray:
        return _array(self.vectors[0])

    @cached_property
    def e2(self) -> np.ndarray:
        return _array(self.vectors[1])

    @cached_property
    def e3(self) -> np.ndarray:
        return _array(self.vectors[2])


def _triple(v) -> Triple:
    x, y, z = v
    return float(x), float(y), float(z)


def _array(v):
    import numpy as np

    return np.array(v)


def _quarter_pair(segment: ScenarioSegment, theta_o: float) -> tuple[Triple, Triple]:
    # the segment at theta_o and a quarter period later, as float triples
    return values_at(segment, theta_o), values_at(segment, theta_o + 0.5 * math.pi)


def basis_vectors(segment: ScenarioSegment, theta_o: float):
    """In-plane basis: the segment evaluated at theta_o and a quarter period later."""
    return tuple(_array(v) for v in _quarter_pair(segment, theta_o))


def _cross(u, v) -> Triple:
    """u x v of two float triples, the terms in np.cross's order."""
    (x1, y1, z1), (x2, y2, z2) = u, v
    return (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)


def _norm(v) -> float:
    """||v|| of a float triple: the square root of the plain sum of squares."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _cross_and_norms(u: Triple, v: Triple):
    """(u x v, ||u||, ||v||, ||u x v||) of two float triples.  Raises LocusError
    on a component that is not finite or above AMPLITUDE_MAX, before any
    product can overflow."""
    if not all(abs(x) <= AMPLITUDE_MAX for x in (*u, *v)):
        raise LocusError(
            f"basis vector not finite or above {AMPLITUDE_MAX:.0e}: e1 = {list(u)}, e2 = {list(v)}"
        )
    cross = _cross(u, v)
    return cross, _norm(u), _norm(v), _norm(cross)


def degeneracy_metric(e1, e2) -> float:
    """||e1 x e2|| / (||e1|| ||e2||), clipped to [0, 1]; 0 when either norm is at
    most DEGENERACY_ATOL.  It is never below the g of the LocusBasis gate."""
    _, n1, n2, cross_norm = _cross_and_norms(_triple(e1), _triple(e2))
    if n1 <= DEGENERACY_ATOL or n2 <= DEGENERACY_ATOL:
        return 0.0
    return min(1.0, cross_norm / (n1 * n2))


def theta_phase_a_peak(segment: ScenarioSegment) -> float:
    """Orientation at which phase a peaks: -phi_a, wrapped to (-pi, pi]."""
    if segment.amplitudes[0] == 0.0:
        raise UndefinedOrientationError("phase a has zero amplitude; its peak is undefined")
    return wrap_angle(-segment.phase_offsets[0])


def _sum3(terms) -> float:
    # left to right, as np.sum adds three terms; sum() compensates from Python 3.12
    a, b, c = terms
    return a + b + c


def norm_profile(segment: ScenarioSegment) -> NormProfile:
    """Closed-form coefficients of the squared norm of the rotating vector.

    With total phases q_k (structural shifts included),

        ||v(theta)||^2 = sum_k V_k^2 cos^2(theta + q_k)
                       = C - A sin(2 theta + psi),

    where C = sum V_k^2 / 2, A = hypot(N, D) / 2, psi = atan2(-N, D), and
    N = sum V_k^2 cos(2 q_k), D = sum V_k^2 sin(2 q_k).  A is always >= 0;
    psi is 0 by convention when N = D = 0 (circular locus).
    """
    squares = [v * v for v in segment.amplitudes]
    doubled = [2.0 * q for q in total_phases(segment)]
    n_coef = _sum3(w * math.cos(q) for w, q in zip(squares, doubled))
    d_coef = _sum3(w * math.sin(q) for w, q in zip(squares, doubled))
    c_level = _sum3(squares) / 2.0
    a_amplitude = 0.5 * math.hypot(n_coef, d_coef)
    psi = math.atan2(-n_coef, d_coef) if a_amplitude > 0.0 else 0.0
    return NormProfile(c_level=c_level, a_amplitude=a_amplitude, psi=psi)


def theta_max_norm(segment: ScenarioSegment) -> float:
    """Orientation maximizing ||v(theta)||: -pi/4 - psi/2, wrapped to (-pi, pi].

    This aligns e1 with the semi-major axis of the elliptical locus and makes
    e1, e2 orthogonal.  Raises CircularLocusError when the norm profile is
    flat, in which case every orientation is equivalent and callers should
    fall back to the phase-a peak.
    """
    profile = norm_profile(segment)
    if profile.a_amplitude <= CIRCLE_RTOL * profile.c_level:
        raise CircularLocusError(
            f"circular locus: swing {profile.a_amplitude:.3e} below threshold"
        )
    return wrap_angle(-0.25 * math.pi - 0.5 * profile.psi)


def resolve_orientation(segment: ScenarioSegment, orientation) -> float:
    """Orientation angle for a segment.

    ``orientation`` is PHASE_A_PEAK, MAX_NORM, or an explicit angle in radians
    (wrapped to (-pi, pi]).  MAX_NORM falls back to the phase-a peak when the
    locus is circular.
    """
    if isinstance(orientation, str):
        if orientation == PHASE_A_PEAK:
            return theta_phase_a_peak(segment)
        if orientation == MAX_NORM:
            try:
                return theta_max_norm(segment)
            except CircularLocusError:
                return theta_phase_a_peak(segment)
        raise ValueError(f"unknown orientation {orientation!r}")
    return wrap_angle(float(orientation))


def basis_from_vectors(e1, e2, theta_o: float) -> LocusBasis:
    """The LocusBasis of two in-plane vectors; see LocusBasis for what it rejects."""
    return LocusBasis(e1, e2, theta_o)


def build_basis(segment: ScenarioSegment, orientation=PHASE_A_PEAK) -> LocusBasis:
    """Resolve the orientation, then build the full locus basis for a segment."""
    theta_o = resolve_orientation(segment, orientation)
    return basis_from_vectors(*_quarter_pair(segment, theta_o), theta_o)


def basis_from_stream(series: TransformedSeries, t1_angle: float):
    """Estimate the in-plane basis from a uniformly sampled abc series.

    Linearly interpolates the series at t1_angle and t1_angle + pi/2; the
    implied orientation angle is t1_angle.  The series must be uniformly
    sampled (MeasurementError), cover [t1_angle, t1_angle + pi/2]
    (InsufficientSpanError) and carry at least MIN_STREAM_RATE samples per
    period (InsufficientRateError).
    """
    import numpy as np

    t2_angle = t1_angle + 0.5 * math.pi
    if len(series) < 2:
        raise InsufficientSpanError("series holds fewer than two samples")
    angles = series.angles
    step = angles[1] - angles[0]
    if step <= 0.0 or np.any(np.abs(np.diff(angles) - step) > 1e-9):
        raise MeasurementError("series is not uniformly sampled")
    rate = TWO_PI / step
    if rate < MIN_STREAM_RATE - 1e-9:
        raise InsufficientRateError(
            f"{rate:.1f} samples per period; need at least {MIN_STREAM_RATE}"
        )
    if t1_angle < angles[0] - 1e-12 or t2_angle > angles[-1] + 1e-12:
        raise InsufficientSpanError(
            f"series spans [{angles[0]:.6f}, {angles[-1]:.6f}] rad, "
            f"estimation needs [{t1_angle:.6f}, {t2_angle:.6f}]"
        )
    e1 = np.array([np.interp(t1_angle, angles, channel) for channel in series.coords])
    e2 = np.array([np.interp(t2_angle, angles, channel) for channel in series.coords])
    return e1, e2
