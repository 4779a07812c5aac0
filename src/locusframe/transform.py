"""Reference-frame transforms and sampled-series pipelines.

The frame transform built from a locus basis maps abc coordinates into the
(1, 2, 3) locus frame, where any sinusoidal triple becomes a unit-amplitude
cosine/sine pair plus a null third channel.  The classical amplitude-invariant
Clarke transform and the synchronous (Park) rotation are provided for
comparison pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .locus import LocusBasis, LocusError, PHASE_A_PEAK, build_basis
from .waveform import (  # FRAME_KINDS and abc_series are re-exported
    FRAME_KINDS,
    PhasorScenario,
    TransformedSeries,
    evaluate_scenario,
    sample_angles,
    sample_series as abc_series,
    segment_at,
)

_SQRT3 = math.sqrt(3.0)


class SingularMatrixError(LocusError):
    """A frame matrix is numerically singular."""


@dataclass(frozen=True)
class FrameTransform:
    """A 3x3 forward map (abc -> frame) with its closed-form inverse.

    The columns of ``inverse`` are the basis vectors that generate the frame;
    ``det_inverse`` is the determinant of that matrix.  ``normalized`` marks
    a frame whose in-plane basis vectors were rescaled to unit norm.
    """

    forward: np.ndarray
    inverse: np.ndarray
    theta_o: float
    det_inverse: float
    normalized: bool = False


def determinant3(m) -> float:
    """Closed-form determinant of a 3x3 matrix."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def adjugate3(m) -> np.ndarray:
    """Adjugate (transposed cofactor matrix) of a 3x3 matrix."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    return np.array(
        [
            [m11 * m22 - m12 * m21, m02 * m21 - m01 * m22, m01 * m12 - m02 * m11],
            [m12 * m20 - m10 * m22, m00 * m22 - m02 * m20, m02 * m10 - m00 * m12],
            [m10 * m21 - m11 * m20, m01 * m20 - m00 * m21, m00 * m11 - m01 * m10],
        ]
    )


def assemble(basis: LocusBasis, normalized: bool = False) -> FrameTransform:
    """Frame transform whose inverse has columns (e1, e2, e3).

    With ``normalized`` the in-plane columns are rescaled to unit vectors, so
    mapped coordinates keep the amplitudes ||e1|| and ||e2|| instead of 1.
    Raises SingularMatrixError when |det| <= 1e-12 times the product of the
    column norms (unreachable for a basis that passed the degeneracy gate).
    """
    e1, e2 = basis.e1, basis.e2
    if normalized:
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2 / np.linalg.norm(e2)
    inverse = np.column_stack([e1, e2, basis.e3])
    det = determinant3(inverse)
    # each column's squares summed row by row, as np.linalg.norm(axis=0) sums them
    n1, n2, n3 = (math.sqrt(x * x + y * y + z * z) for x, y, z in zip(*inverse.tolist()))
    if abs(det) <= 1e-12 * n1 * n2 * n3:
        raise SingularMatrixError(f"frame matrix is singular: det = {det:.3e}")
    forward = adjugate3(inverse) / det
    return FrameTransform(
        forward=forward,
        inverse=inverse,
        theta_o=basis.theta_o,
        det_inverse=det,
        normalized=normalized,
    )


def apply(transform: FrameTransform, triple) -> np.ndarray:
    """Map an abc triple (or a (3, n) block of triples) into frame coordinates."""
    return transform.forward @ np.asarray(triple, dtype=float)


def clarke_matrix() -> np.ndarray:
    """Amplitude-invariant Clarke forward matrix (abc -> alpha, beta, 0)."""
    return np.array(
        [
            [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
            [0.0, 1.0 / _SQRT3, -1.0 / _SQRT3],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ]
    )


def park_rotate(angle, pair):
    """Synchronous-frame projection of an in-plane pair.

    d = cos(angle) x + sin(angle) y,  q = -sin(angle) x + cos(angle) y.
    ``angle`` and the pair components may be scalars or arrays.
    """
    x, y = pair
    c = np.cos(angle)
    s = np.sin(angle)
    return c * x + s * y, -s * x + c * y


def _with_park(angles, coords):
    d, q = park_rotate(angles, (coords[0], coords[1]))
    return TransformedSeries("dq0", angles, np.vstack([d, q, coords[2]]))


def pipeline_locus(
    scenario: PhasorScenario,
    orientation=PHASE_A_PEAK,
    samples_per_period: int = 1000,
    periods: float = 1.0,
    *,
    segment_index: int | None = None,
    normalized: bool = False,
):
    """abc -> locus frame -> dq0 over a sampled grid.

    The basis comes from the segment active at the series start unless
    ``segment_index`` (0-based) picks another one.  The synchronous rotation
    angle equals the grid angle, i.e. it is null at the series start.
    Returns (locus123 series, dq0 series, the FrameTransform used).
    """
    if segment_index is None:
        segment = segment_at(scenario, 0.0)
    else:
        segment = scenario.segments[segment_index]
    transform = assemble(build_basis(segment, orientation), normalized=normalized)
    angles = sample_angles(samples_per_period, periods)
    coords = apply(transform, evaluate_scenario(scenario, angles))
    series = TransformedSeries("locus123", angles, coords)
    return series, _with_park(angles, coords), transform


def pipeline_clarke_park(
    scenario: PhasorScenario, samples_per_period: int = 1000, periods: float = 1.0
):
    """abc -> alpha, beta, 0 -> dq0 with the fixed Clarke basis.

    Returns (clarke_ab0 series, dq0 series).  The zero channel is
    (v_a + v_b + v_c) / 3, the third Clarke row, passed through unchanged by
    the synchronous rotation.
    """
    angles = sample_angles(samples_per_period, periods)
    coords = clarke_matrix() @ evaluate_scenario(scenario, angles)
    series = TransformedSeries("clarke_ab0", angles, coords)
    return series, _with_park(angles, coords)
