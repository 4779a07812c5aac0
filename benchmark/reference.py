"""Independent reference computations for the benchmark's output checks.

Everything here is written from the method's definitions and imports nothing
from ``locusframe``:

* signal model: v_k(theta) = V_k cos(theta + phi_k + s_k), s = (0, -2pi/3,
  +2pi/3), with the segment whose start angle is the largest one <= theta;
* locus basis: e1 = v(theta_o), e2 = v(theta_o + pi/2), e3 = sqrt(3) * unit
  normal of span(e1, e2); the forward matrix is numpy.linalg.inv([e1 e2 e3]);
* orientations: the phase-a peak is theta_o = -phi_a; the max-norm angle
  maximizes |v|^2 = C + |Z|/2 cos(2 theta + arg Z), Z = sum V_k^2 e^{2j q_k};
* Clarke (amplitude invariant), Park rotation, Fortescue on the phasors
  P_k = V_k e^{j(phi_k + s_k)}, and linear interpolation of a sampled stream.

Functions are vectorized over leading axes where a batch check needs it.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
SHIFTS = np.array([0.0, -TWO_PI / 3.0, TWO_PI / 3.0])
SQRT3 = np.sqrt(3.0)
CLARKE = np.array(
    [
        [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
        [0.0, 1.0 / SQRT3, -1.0 / SQRT3],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ]
)
ROT = np.exp(2j * np.pi / 3.0)
FORTESCUE = np.array([[1, 1, 1], [1, ROT, ROT**2], [1, ROT**2, ROT]]) / 3.0
FORTESCUE_INV = np.array([[1, 1, 1], [1, ROT**2, ROT], [1, ROT, ROT**2]])
#: a norm swing |Z|/2 at or below this share of C counts as a circular locus;
#: generated inputs sit either far below it (balanced) or far above it
CIRCLE_SHARE = 1e-6


def wrap(angle):
    """Angle(s) wrapped to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle, dtype=float), TWO_PI)


class Scenario:
    """Arrays of a scenario document (the JSON the CLI reads)."""

    def __init__(self, doc):
        segs = doc["segments"]
        self.frequency_hz = float(doc["frequency_hz"])
        self.start_periods = np.array([s["start_periods"] for s in segs], dtype=float)
        self.starts = TWO_PI * self.start_periods
        self.amps = np.array([s["amplitudes_pu"] for s in segs], dtype=float)
        self.offsets_deg = np.array([s["phase_offsets_deg"] for s in segs], dtype=float)
        self.phases = np.radians(self.offsets_deg) + SHIFTS

    def __len__(self):
        return len(self.starts)

    def active(self, angles):
        """Index of the segment active at each angle (switch angle -> newer)."""
        return np.searchsorted(self.starts, angles, side="right") - 1

    def signal(self, angles):
        """(3, n) abc samples on ``angles``."""
        angles = np.asarray(angles, dtype=float)
        idx = self.active(angles)
        return (self.amps[idx] * np.cos(angles[:, None] + self.phases[idx])).T


def grid(rate, periods):
    """Sample angles k * 2pi/rate covering [0, 2pi * periods]."""
    steps = int(np.ceil(rate * periods - 1e-9))
    return np.arange(steps + 1) * (TWO_PI / rate)


def triple(amps, phases, theta):
    """v(theta) of segment(s): amps, phases (..., 3), theta (...) -> (..., 3)."""
    return amps * np.cos(np.asarray(theta)[..., None] + phases)


def cross_share(e1, e2):
    """|e1 x e2| / (|e1| |e2|) along the last axis."""
    return np.linalg.norm(np.cross(e1, e2), axis=-1) / (
        np.linalg.norm(e1, axis=-1) * np.linalg.norm(e2, axis=-1)
    )


def basis_matrix(e1, e2):
    """[e1 e2 e3] with e3 = sqrt(3) * unit normal, over leading axes."""
    n = np.cross(e1, e2)
    e3 = SQRT3 * n / np.linalg.norm(n, axis=-1, keepdims=True)
    return np.stack([e1, e2, e3], axis=-1)


def segment_basis(amps, phases, theta_o):
    """Inverse-frame matrix [e1 e2 e3] of segment(s) at orientation theta_o."""
    e1 = triple(amps, phases, theta_o)
    e2 = triple(amps, phases, np.asarray(theta_o) + 0.5 * np.pi)
    return basis_matrix(e1, e2)


def phase_a_peak(phases):
    """Orientation at which phase a peaks."""
    return wrap(-phases[..., 0])


def norm_swing(amps, phases):
    """(Z, C) of |v(theta)|^2 = C + Re(Z e^{2j theta}) / 2."""
    sq = amps**2
    return np.sum(sq * np.exp(2j * phases), axis=-1), 0.5 * np.sum(sq, axis=-1)


def is_circular(amps, phases):
    z, c = norm_swing(amps, phases)
    return 0.5 * np.abs(z) <= CIRCLE_SHARE * c


def max_norm_miss(amps, phases, theta):
    """|wrap(2 theta + arg Z)|: 0 when theta maximizes the locus norm."""
    z, _ = norm_swing(amps, phases)
    return np.abs(wrap(2.0 * np.asarray(theta) + np.angle(z)))


def park(theta, x, y):
    """Synchronous projection of the pair (x, y) at angle(s) theta."""
    c, s = np.cos(theta), np.sin(theta)
    return c * x + s * y, -s * x + c * y


def phasors(amps, phases):
    return amps * np.exp(1j * phases)


def fortescue(p):
    """(zero, positive, negative) of phasor triple(s) along the last axis."""
    return p @ FORTESCUE.T


def from_sequence(s):
    return s @ FORTESCUE_INV.T


def interp(angles, values, t):
    """Linear interpolation of (3, n) samples on uniform ``angles`` at angle t."""
    k = int(np.searchsorted(angles, t, side="right")) - 1
    k = min(max(k, 0), angles.size - 2)
    w = (t - angles[k]) / (angles[k + 1] - angles[k])
    return (1.0 - w) * values[:, k] + w * values[:, k + 1]


def forward_deviation(measured_e1, measured_e2, exact_e1, exact_e2):
    """max |F_measured - F_exact| of the forward matrices built from two pairs."""
    measured = np.linalg.inv(basis_matrix(measured_e1, measured_e2))
    exact = np.linalg.inv(basis_matrix(exact_e1, exact_e2))
    return float(np.max(np.abs(measured - exact))), exact
