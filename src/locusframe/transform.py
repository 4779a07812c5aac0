"""Reference-frame transforms and sampled-series pipelines.

The frame transform built from a locus basis maps abc coordinates into the
(1, 2, 3) locus frame, where any sinusoidal triple becomes a unit-amplitude
cosine/sine pair plus a null third channel.  The classical amplitude-invariant
Clarke transform and the synchronous (Park) rotation are provided for
comparison pipelines.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .locus import LocusBasis, _cross
from .waveform import TransformedSeries, Triple

# not called in the package; benchmark/tracer.py wraps these names here until it wraps
# home modules, and abc_series (waveform.sample_series) stays for it and the tests
from .locus import build_basis  # noqa: F401
from .waveform import evaluate_scenario, sample_series as abc_series  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

_SQRT3 = math.sqrt(3.0)


class FrameTransform(NamedTuple):
    """A 3x3 forward map (abc -> frame) with its closed-form inverse.

    ``rows`` are the forward matrix's rows and ``columns`` the inverse's
    columns, the basis vectors that generate the frame, as float triples;
    ``forward`` and ``inverse`` build the two matrices as new arrays on each
    read, so writing into one leaves the frame as it was.
    ``det_inverse`` is the determinant of the inverse.
    """

    rows: tuple[Triple, Triple, Triple]
    columns: tuple[Triple, Triple, Triple]
    theta_o: float
    det_inverse: float

    @property
    def forward(self) -> np.ndarray:
        import numpy as np

        return np.array(self.rows)

    @property
    def inverse(self) -> np.ndarray:
        import numpy as np

        return np.column_stack(self.columns)


def assemble(basis: LocusBasis, normalized: bool = False) -> FrameTransform:
    """Frame transform whose inverse has columns (e1, e2, e3).

    With ``normalized`` the in-plane columns are rescaled to unit vectors, so
    mapped coordinates keep the amplitudes ||e1|| and ||e2|| instead of 1.
    The forward rows are the reciprocal basis (e2 x e3, e3 x e1, e1 x e2) / det,
    with det expanded along the first row of the inverse.  A LocusBasis is
    valid by construction, so the determinant is never zero.
    """
    e1, e2, e3 = basis.vectors
    if normalized:
        n1, n2 = basis.norms
        (x1, y1, z1), (x2, y2, z2) = e1, e2
        e1 = (x1 / n1, y1 / n1, z1 / n1)
        e2 = (x2 / n2, y2 / n2, z2 / n2)
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = _cross(e2, e3), _cross(e3, e1), _cross(e1, e2)
    det = e1[0] * a1 + e2[0] * b1 + e3[0] * c1
    return FrameTransform(
        rows=(
            (a1 / det, a2 / det, a3 / det),
            (b1 / det, b2 / det, b3 / det),
            (c1 / det, c2 / det, c3 / det),
        ),
        columns=(e1, e2, e3),
        theta_o=basis.theta_o,
        det_inverse=det,
    )


def apply(transform: FrameTransform, triple) -> np.ndarray:
    """Map an abc triple (or a (3, n) block of triples) into frame coordinates."""
    import numpy as np

    return transform.forward @ np.asarray(triple, dtype=float)


def clarke_matrix() -> np.ndarray:
    """Amplitude-invariant Clarke forward matrix (abc -> alpha, beta, 0)."""
    import numpy as np

    return np.array(
        [
            [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
            [0.0, 1.0 / _SQRT3, -1.0 / _SQRT3],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ]
    )


def _turn(c, s, x, y):
    return c * x + s * y, c * y - s * x


def park_rotate(angle, pair):
    """Synchronous-frame projection of an in-plane pair.

    d = cos(angle) x + sin(angle) y,  q = cos(angle) y - sin(angle) x.
    ``angle`` and the pair components may be scalars or arrays.
    """
    import numpy as np

    x, y = pair
    return _turn(np.cos(angle), np.sin(angle), x, y)


def map_rotate(angles, coords, forwards):
    """[(mapped, dq0), ...] of the (3, n) abc samples ``coords`` at the grid ``angles``,
    one pair per 3x3 matrix of ``forwards``: ``forward @ coords``, and its in-plane pair
    turned as :func:`park_rotate` does by one cosine and sine of ``angles`` for all the
    matrices, with the third channel passed through."""
    import numpy as np

    c, s = np.cos(angles), np.sin(angles)
    maps = (forward @ coords for forward in forwards)  # one at a time: a lower peak
    return [(m, np.vstack([*_turn(c, s, m[0], m[1]), m[2]])) for m in maps]


def pipeline_locus(abc: TransformedSeries, frame: FrameTransform):
    """abc -> locus frame -> dq0 over a sampled abc series.

    Returns (locus123 series, dq0 series).
    """
    (pair,) = map_rotate(abc.angles, abc.coords, [frame.forward])
    return tuple(TransformedSeries(abc.angles, coords) for coords in pair)


def pipeline_clarke_park(abc: TransformedSeries):
    """abc -> alpha, beta, 0 -> dq0 with the fixed Clarke basis.

    Returns (alpha-beta-0 series, dq0 series).  The zero channel is
    (v_a + v_b + v_c) / 3, the third Clarke row.
    """
    (pair,) = map_rotate(abc.angles, abc.coords, [clarke_matrix()])
    return tuple(TransformedSeries(abc.angles, coords) for coords in pair)
