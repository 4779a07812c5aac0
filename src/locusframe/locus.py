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
from dataclasses import dataclass, field

import numpy as np

from .waveform import (
    AMPLITUDE_MAX,
    ScenarioSegment,
    TransformedSeries,
    evaluate,
    total_phases,
    wrap_angle,
    TWO_PI,
)

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


@dataclass(frozen=True)
class LocusBasis:
    """Locus-aligned basis: e1, e2 span the locus plane, e3 is the scaled normal.

    e3 and ``degeneracy`` (see degeneracy_metric) are derived.  Raises
    DegenerateLocusError unless both norms exceed DEGENERACY_ATOL and
    g = 2||e1 x e2|| / (||e1||^2 + ||e2||^2) exceeds DEGENERACY_RTOL; g is
    2ab/(a^2 + b^2) for the ellipse's semi-axes a, b at every orientation,
    and cond([e1 e2 e3]) is about 2/g for a locus of unit size.
    """

    e1: np.ndarray
    e2: np.ndarray
    theta_o: float
    e3: np.ndarray = field(init=False)
    degeneracy: float = field(init=False)

    def __post_init__(self):
        e1 = np.ascontiguousarray(self.e1, dtype=float)
        e2 = np.ascontiguousarray(self.e2, dtype=float)
        cross, n1, n2, cross_norm = _cross_and_norms(e1, e2)
        g = 2.0 * cross_norm / (n1 * n1 + n2 * n2) if min(n1, n2) > DEGENERACY_ATOL else 0.0
        if g <= DEGENERACY_RTOL:
            raise DegenerateLocusError(
                f"linear locus: g = 2|e1 x e2|/(|e1|^2 + |e2|^2) = {g:.3e} "
                f"with |e1| = {n1:.3e}, |e2| = {n2:.3e}"
            )
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "e3", _NORMAL_SCALE * cross / cross_norm)
        object.__setattr__(self, "degeneracy", min(1.0, cross_norm / (n1 * n2)))


def basis_vectors(segment: ScenarioSegment, theta_o: float):
    """In-plane basis: the segment evaluated at theta_o and a quarter period later."""
    return evaluate(segment, theta_o), evaluate(segment, theta_o + 0.5 * math.pi)


def _cross_and_norms(e1, e2):
    """(e1 x e2, ||e1||, ||e2||, ||e1 x e2||) as floats, bit for bit as np.cross
    and np.linalg.norm give them: the terms in np.cross's order, each norm
    sqrt(v . v) with np.dot on a contiguous vector, as np.linalg.norm does.
    Raises LocusError on a component that is not finite or above AMPLITUDE_MAX,
    before any product can overflow."""
    e1 = np.ascontiguousarray(e1, dtype=float)
    e2 = np.ascontiguousarray(e2, dtype=float)
    (x1, y1, z1), (x2, y2, z2) = e1.tolist(), e2.tolist()
    if not all(abs(x) <= AMPLITUDE_MAX for x in (x1, y1, z1, x2, y2, z2)):
        raise LocusError(
            f"basis vector not finite or above {AMPLITUDE_MAX:.0e}: "
            f"e1 = {e1.tolist()}, e2 = {e2.tolist()}"
        )
    cross = np.array([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2])
    return (cross, *(math.sqrt(v.dot(v)) for v in (e1, e2, cross)))


def degeneracy_metric(e1, e2) -> float:
    """||e1 x e2|| / (||e1|| ||e2||), clipped to [0, 1]; 0 when either norm is at
    most DEGENERACY_ATOL.  It is never below the g of the LocusBasis gate."""
    _, n1, n2, cross_norm = _cross_and_norms(e1, e2)
    if n1 <= DEGENERACY_ATOL or n2 <= DEGENERACY_ATOL:
        return 0.0
    return min(1.0, cross_norm / (n1 * n2))


def theta_phase_a_peak(segment: ScenarioSegment) -> float:
    """Orientation at which phase a peaks: -phi_a, wrapped to (-pi, pi]."""
    if segment.amplitudes[0] == 0.0:
        raise UndefinedOrientationError("phase a has zero amplitude; its peak is undefined")
    return wrap_angle(-segment.phase_offsets[0])


def norm_profile(segment: ScenarioSegment) -> NormProfile:
    """Closed-form coefficients of the squared norm of the rotating vector.

    With total phases q_k (structural shifts included),

        ||v(theta)||^2 = sum_k V_k^2 cos^2(theta + q_k)
                       = C - A sin(2 theta + psi),

    where C = sum V_k^2 / 2, A = hypot(N, D) / 2, psi = atan2(-N, D), and
    N = sum V_k^2 cos(2 q_k), D = sum V_k^2 sin(2 q_k).  A is always >= 0;
    psi is 0 by convention when N = D = 0 (circular locus).
    """
    squares = np.asarray(segment.amplitudes) ** 2
    doubled = 2.0 * total_phases(segment)
    n_coef = float(np.sum(squares * np.cos(doubled)))
    d_coef = float(np.sum(squares * np.sin(doubled)))
    c_level = float(np.sum(squares)) / 2.0
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
    e1, e2 = basis_vectors(segment, theta_o)
    return basis_from_vectors(e1, e2, theta_o)


def basis_from_stream(series: TransformedSeries, t1_angle: float):
    """Estimate the in-plane basis from a uniformly sampled abc series.

    Linearly interpolates the series at t1_angle and t1_angle + pi/2; the
    implied orientation angle is t1_angle.  The series must be uniformly
    sampled (MeasurementError), cover [t1_angle, t1_angle + pi/2]
    (InsufficientSpanError) and carry at least MIN_STREAM_RATE samples per
    period (InsufficientRateError).
    """
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
