"""Frozen reference values and random-case helpers shared by the tests.

The reference numbers below were produced by a standalone script that used
only stdlib complex arithmetic, numpy.linalg, and dense grid searches, then
were frozen here as regression anchors.  Tests compare package output against
these values, never the other way around.
"""

import math

import numpy as np

from locusframe import (
    LocusError,
    ScenarioSegment,
    basis_vectors,
    degeneracy_metric,
    resolve_orientation,
)

# stock unbalanced segment: amplitudes and per-phase offsets (degrees -70, -10, -90)
UNBALANCED_AMPS = (0.7, 1.0, 0.4)
UNBALANCED_OFFSETS = (math.radians(-70.0), math.radians(-10.0), math.radians(-90.0))

# stock balanced segment: unit amplitudes, common -50 degree offset
BALANCED_OFFSET = math.radians(-50.0)

# phase-a-peak orientation of the unbalanced segment
THETA_CLASSICAL = math.radians(70.0)

# basis vectors of the unbalanced segment at the phase-a-peak orientation
E1_CLASSICAL = np.array([0.7, 0.5000000000000003, -0.06945927106677204])
E2_CLASSICAL = np.array([4.286263797015736e-17, 0.8660254037844385, -0.3939231012048833])
E3 = np.array([-0.3485240228167459, 0.7024744493422427, 1.544364158332142])

# forward matrix at the phase-a-peak orientation, full precision
FORWARD_CLASSICAL = np.array(
    [
        [1.370729050247444, 0.11658534333844603, 0.2563085757885315],
        [-0.697155975042379, 0.8974531319845719, -0.5655489315402719],
        [-0.11617467427224859, 0.23415814978074756, 0.5147880527773807],
    ]
)

# squared-norm profile of the unbalanced segment: (c_level, a_amplitude, psi)
PROFILE_C = 0.825
PROFILE_A = 0.46730354665325485
PROFILE_PSI = 0.5257083171599266

# norm-maximizing orientation of the unbalanced segment
THETA_DESIRED = -1.0482523219774116

# forward matrix at the norm-maximizing orientation, full precision
FORWARD_DESIRED = np.array(
    [
        [-0.34861521385938815, -0.7619139085027739, 0.2678929540938681],
        [1.4977957188466404, -0.4883661151434319, 0.5601544832775591],
        [-0.1161746742722486, 0.2341581497807476, 0.5147880527773807],
    ]
)
E1_DESIRED_NORM = 1.1367952967237571
E2_DESIRED_NORM = 0.5980772971336942

# 3-decimal golden matrices for the two orientations
GOLDEN_CLASSICAL = np.array(
    [
        [1.371, 0.117, 0.256],
        [-0.697, 0.897, -0.566],
        [-0.116, 0.234, 0.515],
    ]
)
GOLDEN_DESIRED = np.array(
    [
        [-0.349, -0.762, 0.268],
        [1.498, -0.488, 0.560],
        [-0.116, 0.234, 0.515],
    ]
)
GOLDEN_THIRD_ROW = (-0.116, 0.234, 0.515)

# synchronous-frame constants (cos theta_o, -sin theta_o) at phase-a-peak
DQ_CONSTANTS = (0.3420201433256688, -0.9396926207859083)

# cosine-referenced phasors of the unbalanced segment, structural shifts folded in
PHASORS = (
    0.23941410032796817 - 0.6577848345501358j,
    -0.642787609686539 - 0.7660444431189783j,
    0.3464101615137755 + 0.19999999999999996j,
)

# symmetrical components of those phasors (zero, positive, negative)
SEQUENCE_ZERO = -0.01898778261493178 - 0.4079430925563714j
SEQUENCE_POSITIVE = 0.408073951113392 - 0.4104776707390219j
SEQUENCE_NEGATIVE = -0.14967206817049197 + 0.16063592874525756j

# magnitude ratios (|negative|/|positive|, |zero|/|positive|)
UNBALANCE_RATIOS = (0.37932890001936526, 0.7055642480571295)


def explicit_norm(v) -> float:
    """||v|| of a 3-vector as the library computes it: sqrt of the plain sum of squares."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def unbalanced_segment(start_angle=0.0) -> ScenarioSegment:
    return ScenarioSegment(start_angle, UNBALANCED_AMPS, UNBALANCED_OFFSETS)


def balanced_segment(start_angle=0.0, amplitude=1.0, offset=BALANCED_OFFSET) -> ScenarioSegment:
    return ScenarioSegment(start_angle, (amplitude,) * 3, (offset,) * 3)


def random_segment(rng) -> ScenarioSegment:
    """One random phasor regime: amplitudes U[0.2, 1.2], offsets U(-pi, pi]."""
    amps = tuple(rng.uniform(0.2, 1.2, size=3))
    offs = tuple(rng.uniform(-math.pi, math.pi, size=3))
    return ScenarioSegment(0.0, amps, offs)


def random_nondegenerate_segment(rng, orientation, floor=1e-3) -> ScenarioSegment:
    """Redraw until the locus at the tested orientation is comfortably planar."""
    while True:
        segment = random_segment(rng)
        try:
            theta = resolve_orientation(segment, orientation)
        except LocusError:
            continue
        if degeneracy_metric(*basis_vectors(segment, theta)) >= floor:
            return segment
