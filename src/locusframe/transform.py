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

from .locus import LocusBasis
from .waveform import TransformedSeries

# not called in this module, but benchmark/tracer.py wraps these three names here
from .locus import build_basis  # noqa: F401
from .waveform import evaluate_scenario, sample_series as abc_series  # noqa: F401

_SQRT3 = math.sqrt(3.0)


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
    A LocusBasis is valid by construction, so the determinant is never zero.
    """
    e1, e2 = basis.e1, basis.e2
    if normalized:
        # sqrt(v . v) on a contiguous vector, as np.linalg.norm computes it
        e1 = e1 / math.sqrt(e1.dot(e1))
        e2 = e2 / math.sqrt(e2.dot(e2))
    inverse = np.column_stack([e1, e2, basis.e3])
    det = determinant3(inverse)
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


def _map_then_rotate(frame_kind, forward, abc: TransformedSeries):
    """(frame_kind series, dq0 series) of ``forward @ abc.coords``.

    The synchronous rotation angle equals the grid angle, i.e. it is null at
    the series start; the third channel passes through unchanged.
    """
    coords = forward @ abc.coords
    d, q = park_rotate(abc.angles, (coords[0], coords[1]))
    return (
        TransformedSeries(frame_kind, abc.angles, coords),
        TransformedSeries("dq0", abc.angles, np.vstack([d, q, coords[2]])),
    )


def pipeline_locus(abc: TransformedSeries, frame: FrameTransform):
    """abc -> locus frame -> dq0 over a sampled abc series.

    Returns (locus123 series, dq0 series).
    """
    return _map_then_rotate("locus123", frame.forward, abc)


def pipeline_clarke_park(abc: TransformedSeries):
    """abc -> alpha, beta, 0 -> dq0 with the fixed Clarke basis.

    Returns (clarke_ab0 series, dq0 series).  The zero channel is
    (v_a + v_b + v_c) / 3, the third Clarke row.
    """
    return _map_then_rotate("clarke_ab0", clarke_matrix(), abc)
