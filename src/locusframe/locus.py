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
from bisect import bisect_right
from typing import NamedTuple

from .waveform import (
    AMPLITUDE_MAX,
    ScenarioSegment,
    TransformedSeries,
    Triple,
    _Frozen,
    total_phases,
    wrap_angle,
    TWO_PI,
)

# not called in the package; benchmark/tracer.py wraps it here until it wraps home modules
from .waveform import evaluate  # noqa: F401

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
#: minimum samples per period that stream_window accepts
MIN_STREAM_RATE = 64

_NORMAL_SCALE = math.sqrt(3.0)


class LocusError(Exception):
    """Base class for locus construction and measurement failures."""


class DegenerateLocusError(LocusError):
    """The locus is a line segment; no plane normal exists.  ``degeneracy`` is
    the rejected pair's LocusBasis.degeneracy."""

    def __init__(self, message: str, degeneracy: float):
        super().__init__(message)
        self.degeneracy = degeneracy


class UndefinedOrientationError(LocusError):
    """Phase a has zero amplitude, so its peak defines no orientation."""


class CircularLocusError(LocusError):
    """The locus is a circle; no orientation maximizes the norm."""


class MeasurementError(LocusError):
    """A sampled series cannot support the estimation: too short, not uniform,
    too coarse or not covering the required angle window."""


class NormProfile(NamedTuple):
    """Coefficients of ||v(theta)||^2 = c_level - a_amplitude * sin(2*theta + psi)."""

    c_level: float
    a_amplitude: float
    psi: float


class LocusBasis(_Frozen):
    """Locus-aligned basis: e1, e2 span the locus plane, e3 is the scaled normal.

    Built from e1, e2 (any three numbers each) and theta_o; e3, ``norms`` and
    ``degeneracy`` are derived.  ``vectors`` holds (e1, e2, e3) as float
    triples and ``norms`` (||e1||, ||e2||), the norms the gate measured.
    ``degeneracy`` is ||e1 x e2|| / (||e1|| ||e2||) clipped to 1, or
    0 when either norm is at most DEGENERACY_ATOL; it is never below g.
    Raises LocusError on a component that is not finite or above
    AMPLITUDE_MAX, then DegenerateLocusError unless both norms exceed
    DEGENERACY_ATOL and g = 2||e1 x e2|| / (||e1||^2 + ||e2||^2) exceeds
    DEGENERACY_RTOL, then LocusError on a theta_o that is not finite; g is
    2ab/(a^2 + b^2) for the ellipse's semi-axes a, b at every orientation,
    and cond([e1 e2 e3]) is about 2/g for a locus of unit size.
    e1 x e2 takes its terms in np.cross's order and each norm is the square
    root of the plain sum of squares x*x + y*y + z*z, bit for bit.
    """

    __slots__ = ("vectors", "theta_o", "degeneracy", "norms")

    def __init__(self, e1, e2, theta_o: float):
        x1, y1, z1 = e1
        x2, y2, z2 = e2
        e1 = x1, y1, z1 = float(x1), float(y1), float(z1)
        e2 = x2, y2, z2 = float(x2), float(y2), float(z2)
        bound = AMPLITUDE_MAX
        # each comparison is false for NaN, and all run before any product can overflow
        if not (
            abs(x1) <= bound and abs(y1) <= bound and abs(z1) <= bound
            and abs(x2) <= bound and abs(y2) <= bound and abs(z2) <= bound
        ):
            raise LocusError(
                f"basis vector not finite or above {bound:.0e}: e1 = {list(e1)}, e2 = {list(e2)}"
            )
        cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        n2 = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        cross_norm = math.sqrt(cx * cx + cy * cy + cz * cz)
        if n1 <= DEGENERACY_ATOL or n2 <= DEGENERACY_ATOL:
            g = degeneracy = 0.0
        else:
            g = 2.0 * cross_norm / (n1 * n1 + n2 * n2)
            degeneracy = min(1.0, cross_norm / (n1 * n2))
        if g <= DEGENERACY_RTOL:
            raise DegenerateLocusError(
                f"linear locus: g = 2|e1 x e2|/(|e1|^2 + |e2|^2) = {g:.3e} "
                f"with |e1| = {n1:.3e}, |e2| = {n2:.3e}",
                degeneracy,
            )
        if not math.isfinite(theta_o):
            raise LocusError(f"orientation angle not finite: theta_o = {theta_o}")
        scale = _NORMAL_SCALE
        e3 = (scale * cx / cross_norm, scale * cy / cross_norm, scale * cz / cross_norm)
        object.__setattr__(self, "vectors", (e1, e2, e3))
        object.__setattr__(self, "theta_o", theta_o)
        object.__setattr__(self, "degeneracy", degeneracy)
        object.__setattr__(self, "norms", (n1, n2))


def basis_vectors(segment: ScenarioSegment, theta_o: float) -> tuple[Triple, Triple]:
    """In-plane basis e1 = v(theta_o), e2 = v(theta_o + pi/2), as float triples: the
    products and cosines of waveform.values_at at both angles, in its order."""
    va, vb, vc = segment.amplitudes
    qa, qb, qc = total_phases(segment)
    quarter = theta_o + 0.5 * math.pi
    return (
        (va * math.cos(theta_o + qa), vb * math.cos(theta_o + qb), vc * math.cos(theta_o + qc)),
        (va * math.cos(quarter + qa), vb * math.cos(quarter + qb), vc * math.cos(quarter + qc)),
    )


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
    va, vb, vc = segment.amplitudes
    qa, qb, qc = total_phases(segment)
    wa, wb, wc = va * va, vb * vb, vc * vc
    qa, qb, qc = 2.0 * qa, 2.0 * qb, 2.0 * qc
    # each sum left to right, as np.sum adds three terms; sum() compensates from Python 3.12
    n_coef = wa * math.cos(qa) + wb * math.cos(qb) + wc * math.cos(qc)
    d_coef = wa * math.sin(qa) + wb * math.sin(qb) + wc * math.sin(qc)
    c_level = (wa + wb + wc) / 2.0
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
    """``LocusBasis(e1, e2, theta_o)``; the package calls LocusBasis, benchmark/tracer.py this."""
    return LocusBasis(e1, e2, theta_o)


def build_basis(segment: ScenarioSegment, orientation=PHASE_A_PEAK) -> LocusBasis:
    """Resolve the orientation, then build the full locus basis for a segment."""
    theta_o = resolve_orientation(segment, orientation)
    return LocusBasis(*basis_vectors(segment, theta_o), theta_o)


def stream_window(angles, t1_angle: float) -> slice:
    """Rows of a uniform angle grid, an array or a waveform.AngleGrid, that linear
    interpolation at t1_angle and t1_angle + pi/2 reads.

    The grid is taken as uniform and increasing, as an AngleGrid is by construction and
    basis_from_stream checks an array to be.  It must hold at least two samples, carry
    at least MIN_STREAM_RATE samples per period over its span and cover
    [t1_angle, t1_angle + pi/2], or MeasurementError is raised.  Only its ends and the
    few dozen single rows of the search are read, so no grid-size array is made.
    """
    t2_angle = t1_angle + 0.5 * math.pi
    if len(angles) < 2:
        raise MeasurementError("series holds fewer than two samples")
    # from the mean step: one step far from 0 is rounded to an ulp of its angles, and
    # the span to an ulp of its larger end, which reads as a rate lower by
    # MIN_STREAM_RATE * ulp / span at the floor
    start, end = angles[0], angles[-1]
    span = end - start
    rate = TWO_PI * (len(angles) - 1) / span
    slack = 1e-9 + MIN_STREAM_RATE * math.ulp(max(abs(start), abs(end))) / span
    if rate < MIN_STREAM_RATE - slack:
        # one decimal that never reads as the floor: 63.99 would round to 64.0
        shown = min(round(rate, 1), MIN_STREAM_RATE - 0.1)
        raise MeasurementError(
            f"{shown:.1f} samples per period; need at least {MIN_STREAM_RATE}"
        )
    # false for a NaN angle too
    if not (start - 1e-12 <= t1_angle and t2_angle <= end + 1e-12):
        raise MeasurementError(
            f"series spans [{start:.6g}, {end:.6g}] rad, "
            f"estimation needs [{t1_angle:.6g}, {t2_angle:.6g}]"
        )
    # np.interp reads rows k and k + 1 for the last k with angles[k] <= angle, the
    # first or last interval for an angle just outside the grid
    first, last = (
        min(max(bisect_right(angles, angle) - 1, 0), len(angles) - 2)
        for angle in (t1_angle, t2_angle)
    )
    return slice(first, last + 2)


def basis_from_window(angles, coords, t1_angle: float) -> tuple[Triple, Triple]:
    """e1, e2 linearly interpolated at t1_angle and t1_angle + pi/2 from the rows
    ``angles``, ``coords`` (shape (3, n)) of a grid that stream_window checked and
    cut.  Nothing is checked again."""
    import numpy as np

    return tuple(
        tuple(float(np.interp(angle, angles, channel)) for channel in coords)
        for angle in (t1_angle, t1_angle + 0.5 * math.pi)
    )


def basis_from_stream(series: TransformedSeries, t1_angle: float) -> tuple[Triple, Triple]:
    """Estimate the in-plane basis from a uniformly sampled abc series.

    Linearly interpolates the series at t1_angle and t1_angle + pi/2, giving
    two float triples; the implied orientation angle is t1_angle.  Each step of
    the series must lie within 1e-9 plus one ulp of its largest angle of the
    first, and the series must pass the checks of stream_window, or
    MeasurementError is raised; past the checks, only the rows that
    stream_window returns are read.
    """
    import numpy as np

    angles = series.angles
    # the angles of a TransformedSeries are finite and increasing; the steps of
    # np.arange(n) * step differ from the first by up to an ulp of the larger end
    if angles.size >= 2:  # stream_window rejects a shorter series
        steps = np.diff(angles)
        slack = 1e-9 + math.ulp(max(abs(angles[0]), abs(angles[-1])))
        if np.any(np.abs(steps - steps[0]) > slack):
            raise MeasurementError("series is not uniformly sampled")
    rows = stream_window(angles, t1_angle)
    return basis_from_window(angles[rows], series.coords[:, rows], t1_angle)
