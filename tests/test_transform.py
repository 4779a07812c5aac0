"""3x3 frame algebra, Clarke/Park, and the sampled pipelines."""

import math

import numpy as np
import pytest

from locusframe import (
    DegenerateLocusError,
    LocusBasis,
    MAX_NORM,
    PHASE_A_PEAK,
    PhasorScenario,
    ScenarioSegment,
    TransformedSeries,
    abc_series,
    apply,
    assemble,
    build_basis,
    clarke_matrix,
    evaluate,
    park_rotate,
    pipeline_clarke_park,
    pipeline_locus,
)
from locusframe.transform import map_rotate
from locusframe.waveform import _CHUNK_ROWS, TWO_PI, sample_angles

import support


def _scenario(segment):
    return PhasorScenario(omega=TWO_PI * 50.0, segments=(segment,))


def _indexed_determinant(m):
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _indexed_adjugate(m):
    return np.array(
        [
            [
                m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
                m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2],
                m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
            ],
            [
                m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2],
                m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
                m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2],
            ],
            [
                m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
                m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1],
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
            ],
        ]
    )


class TestScalarKernels:
    """The float kernels equal element-indexed numpy formulas bit for bit."""

    @pytest.mark.parametrize("normalized", [False, True])
    def test_assemble(self, unbalanced_segment, normalized):
        rng = np.random.default_rng(47)
        bases = [build_basis(unbalanced_segment, o) for o in (PHASE_A_PEAK, MAX_NORM, 0.4)]
        for orientation in (PHASE_A_PEAK, MAX_NORM, 0.9):
            for _ in range(500):
                segment = support.random_nondegenerate_segment(rng, orientation)
                bases.append(build_basis(segment, orientation))
        for basis in bases:
            e1, e2, e3 = map(np.array, basis.vectors)
            if normalized:
                e1, e2 = e1 / support.explicit_norm(e1), e2 / support.explicit_norm(e2)
            inverse = np.column_stack([e1, e2, e3])
            det = _indexed_determinant(inverse)
            frame = assemble(basis, normalized=normalized)
            assert np.array_equal(frame.inverse, inverse)
            assert frame.det_inverse == det
            assert np.array_equal(frame.forward, _indexed_adjugate(inverse) / det)
            # one form: the arrays are built from the float triples, bit for bit
            assert all(support.is_float_triple(v) for v in frame.rows + frame.columns)
            assert np.array_equal(frame.forward, np.array(frame.rows))
            assert np.array_equal(frame.inverse, np.column_stack(frame.columns))


class TestAssemble:
    def test_golden_classical(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        assert frame.forward == pytest.approx(support.FORWARD_CLASSICAL, abs=1e-12)
        assert frame.theta_o == pytest.approx(support.THETA_CLASSICAL)

    def test_golden_desired(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, MAX_NORM))
        assert frame.forward == pytest.approx(support.FORWARD_DESIRED, abs=1e-12)

    def test_inverse_columns_are_basis(self, unbalanced_segment):
        basis = build_basis(unbalanced_segment, PHASE_A_PEAK)
        frame = assemble(basis)
        e1, e2, e3 = basis.vectors
        assert frame.inverse[:, 0] == pytest.approx(e1)
        assert frame.inverse[:, 1] == pytest.approx(e2)
        assert frame.inverse[:, 2] == pytest.approx(e3)
        assert frame.det_inverse == pytest.approx(np.linalg.det(frame.inverse))

    def test_round_trip_random(self):
        rng = np.random.default_rng(41)
        eye = np.eye(3)
        for orientation in (PHASE_A_PEAK, MAX_NORM, 0.9):
            for _ in range(200):
                segment = support.random_nondegenerate_segment(rng, orientation)
                frame = assemble(build_basis(segment, orientation))
                assert frame.forward @ frame.inverse == pytest.approx(eye, abs=1e-12)
                assert frame.inverse @ frame.forward == pytest.approx(eye, abs=1e-12)

    def test_third_row_is_scaled_normal(self, unbalanced_segment):
        basis = build_basis(unbalanced_segment, PHASE_A_PEAK)
        frame = assemble(basis)
        assert frame.forward[2] == pytest.approx(np.array(basis.vectors[2]) / 3.0, abs=1e-12)

    def test_third_row_shared_between_orientations(self, unbalanced_segment):
        classical = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        desired = assemble(build_basis(unbalanced_segment, MAX_NORM))
        assert classical.forward[2] == pytest.approx(desired.forward[2], abs=1e-12)

    def test_normalized_columns(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK), normalized=True)
        assert np.linalg.norm(frame.inverse[:, 0]) == pytest.approx(1.0)
        assert np.linalg.norm(frame.inverse[:, 1]) == pytest.approx(1.0)

    def test_normalized_amplitudes(self, unbalanced_segment):
        basis = build_basis(unbalanced_segment, PHASE_A_PEAK)
        frame = assemble(basis, normalized=True)
        n1 = np.linalg.norm(basis.vectors[0])
        n2 = np.linalg.norm(basis.vectors[1])
        for theta in np.linspace(0.0, TWO_PI, 97):
            v1, v2, v3 = apply(frame, evaluate(unbalanced_segment, theta))
            delta = theta - basis.theta_o
            assert v1 == pytest.approx(n1 * math.cos(delta), abs=1e-9)
            assert v2 == pytest.approx(n2 * math.sin(delta), abs=1e-9)
            assert abs(v3) < 1e-9

    def test_singular_gate(self):
        # a LocusBasis is valid by construction: a collinear pair is rejected,
        # and e3 (so a frame with a singular third column) cannot be handed in
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateLocusError, match="linear locus"):
            LocusBasis(e1=e1, e2=2.0 * e1, theta_o=0.0)
        with pytest.raises(TypeError):
            LocusBasis(e1=e1, e2=e2, e3=e1 + e2, theta_o=0.0)
        with pytest.raises(TypeError):
            LocusBasis(e1=e1, e2=e2, theta_o=0.0, degeneracy=1.0)
        with pytest.raises(TypeError):
            LocusBasis(e1=e1, e2=e2, theta_o=0.0, norms=(1.0, 1.0))
        basis = LocusBasis(e1, e2, 0.0)
        assert basis.vectors[2] == pytest.approx([0.0, 0.0, math.sqrt(3.0)])
        assert assemble(basis).det_inverse == pytest.approx(math.sqrt(3.0))


class TestApply:
    def test_basis_vectors_map_to_axes(self, unbalanced_segment):
        basis = build_basis(unbalanced_segment, PHASE_A_PEAK)
        frame = assemble(basis)
        e1, e2, e3 = basis.vectors
        assert apply(frame, e1) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert apply(frame, e2) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
        assert apply(frame, e3) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_signal_at_orientation_angle(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        triple = evaluate(unbalanced_segment, math.radians(70.0))
        assert apply(frame, triple) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_maps_to_zero(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        assert apply(frame, [0.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0, 0.0])

    def test_written_arrays_leave_frame_unchanged(self, unbalanced_segment):
        # forward and inverse are new arrays on each read, so writing into one
        # cannot change the frozen frame or what apply returns
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        v = evaluate(unbalanced_segment, 0.3)
        mapped, rows, columns = apply(frame, v), frame.rows, frame.columns
        forward, inverse = frame.forward, frame.inverse
        forward[0, 0] += 1.0
        inverse[:, 1] = 0.0
        assert np.array_equal(apply(frame, v), mapped)
        assert frame.rows == rows and frame.columns == columns
        assert np.array_equal(frame.forward, np.array(rows))
        assert np.array_equal(frame.inverse, np.column_stack(columns))

    def test_block_application(self, unbalanced_segment):
        frame = assemble(build_basis(unbalanced_segment, PHASE_A_PEAK))
        block = evaluate(unbalanced_segment, np.linspace(0.0, 1.0, 8))
        mapped = apply(frame, block)
        assert mapped.shape == (3, 8)
        assert mapped[:, 3] == pytest.approx(apply(frame, block[:, 3]))


class TestClarke:
    def test_rows(self):
        m = clarke_matrix()
        assert m[0] == pytest.approx([2 / 3, -1 / 3, -1 / 3])
        assert m[1] == pytest.approx([0.0, 1 / math.sqrt(3), -1 / math.sqrt(3)])
        assert m[2] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_pure_zero_sequence(self):
        assert clarke_matrix() @ [1.0, 1.0, 1.0] == pytest.approx([0.0, 0.0, 1.0])

    def test_pure_alpha(self):
        assert clarke_matrix() @ [1.0, -0.5, -0.5] == pytest.approx([1.0, 0.0, 0.0])

    def test_balanced_amplitude_invariance(self):
        segment = support.balanced_segment(offset=0.0)
        for theta in np.linspace(0.0, TWO_PI, 33):
            alpha, beta, zero = clarke_matrix() @ evaluate(segment, theta)
            assert alpha == pytest.approx(math.cos(theta), abs=1e-12)
            assert beta == pytest.approx(math.sin(theta), abs=1e-12)
            assert abs(zero) < 1e-12


class TestPark:
    def test_zero_angle_identity(self):
        assert park_rotate(0.0, (0.7, -0.2)) == pytest.approx((0.7, -0.2))

    def test_quarter_turn(self):
        d, q = park_rotate(math.pi / 2.0, (1.0, 0.0))
        assert d == pytest.approx(0.0, abs=1e-15)
        assert q == pytest.approx(-1.0)

    def test_quadrature_becomes_constant(self):
        rng = np.random.default_rng(43)
        for theta_o in rng.uniform(-math.pi, math.pi, size=50):
            theta = rng.uniform(0.0, TWO_PI, size=40)
            d, q = park_rotate(theta, (np.cos(theta - theta_o), np.sin(theta - theta_o)))
            assert d == pytest.approx(np.full(40, math.cos(theta_o)), abs=1e-12)
            assert q == pytest.approx(np.full(40, -math.sin(theta_o)), abs=1e-12)

    def test_q_equals_the_negated_sine_form(self):
        # q = c*y - s*x is -s*x + c*y bit for bit, signed zeros included
        values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-300, -1e-300]
        angles = [0.0, -0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, 1.0, -2.0, 3.0]
        x, y, theta = (a.ravel() for a in np.meshgrid(values, values, angles))
        # the whole grid as arrays, then each point as scalars
        for angle, (u, v) in [(theta, (x, y))] + list(zip(theta, zip(x, y))):
            c, s = np.cos(angle), np.sin(angle)
            d, q = park_rotate(angle, (u, v))
            for got, expected in ((d, c * u + s * v), (q, -s * u + c * v)):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestTransformedSeries:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            TransformedSeries(np.arange(4.0), np.zeros((3, 5)))

    def test_angles_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            TransformedSeries(np.array([0.0, 1.0, 1.0]), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "angles", [[0.0, math.nan, 2.0], [math.nan], [0.0, math.inf]], ids=["nan", "one-nan", "inf"]
    )
    def test_angles_finite(self, angles):
        # a comparison with NaN is false, so a difference test alone lets these through
        with pytest.raises(ValueError, match="strictly increasing"):
            TransformedSeries(angles, np.zeros((3, len(angles))))


class TestPipelineLocus:
    def test_unit_quadrature_on_basis_segment(self, step_scenario):
        frame = assemble(build_basis(step_scenario.segments[1], PHASE_A_PEAK))
        series, dq0 = pipeline_locus(abc_series(step_scenario, 1000, 2.0), frame)
        mask = series.angles >= TWO_PI - 1e-12
        v1, v2, v3 = series.coords
        radius = v1[mask] ** 2 + v2[mask] ** 2
        assert np.max(np.abs(radius - 1.0)) < 1e-9
        assert np.max(np.abs(v3[mask])) < 1e-9

    def test_dq_constants(self, step_scenario):
        frame = assemble(build_basis(step_scenario.segments[1], PHASE_A_PEAK))
        _, dq0 = pipeline_locus(abc_series(step_scenario, 1000, 2.0), frame)
        mask = dq0.angles >= TWO_PI - 1e-12
        d, q, zero = dq0.coords
        assert np.ptp(d[mask]) < 1e-9
        assert np.ptp(q[mask]) < 1e-9
        assert d[mask][0] == pytest.approx(support.DQ_CONSTANTS[0], abs=1e-9)
        assert q[mask][0] == pytest.approx(support.DQ_CONSTANTS[1], abs=1e-9)
        assert np.max(np.abs(zero[mask])) < 1e-9

    def test_matches_manual_path(self, unbalanced_segment):
        manual = assemble(build_basis(unbalanced_segment, MAX_NORM))
        series, _ = pipeline_locus(abc_series(_scenario(unbalanced_segment), 200, 1.0), manual)
        angles = sample_angles(200, 1.0)
        expected = manual.forward @ evaluate(unbalanced_segment, angles)
        assert series.coords == pytest.approx(expected)


@pytest.mark.parametrize("n", [1, 2, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_map_rotate_equals_apply_then_park_rotate(unbalanced_segment, n):
    # bit for bit, which the %.6f text of the streamed-bytes tests could hide: each frame
    # of one call, the locus frame and Clarke (as a frame with its rows), against the
    # one-frame path of apply and park_rotate
    frame = assemble(build_basis(unbalanced_segment, MAX_NORM))
    clarke = frame._replace(rows=tuple(map(tuple, clarke_matrix().tolist())))
    angles = np.arange(n) * (TWO_PI / 1000.0)
    coords = evaluate(unbalanced_segment, angles)
    pairs = map_rotate(angles, coords, [frame.forward, clarke_matrix()])
    assert len(pairs) == 2
    for one, (mapped, dq0) in zip([frame, clarke], pairs):
        expected = apply(one, coords)
        d, q = park_rotate(angles, (expected[0], expected[1]))
        assert np.array_equal(mapped, expected)
        assert np.array_equal(dq0, np.vstack([d, q, expected[2]]))


class TestPipelineClarkePark:
    def test_balanced_constants(self):
        scenario = _scenario(support.balanced_segment(offset=0.3))
        ab0, dq0 = pipeline_clarke_park(abc_series(scenario, 500, 1.0))
        alpha, beta, zero = ab0.coords
        assert np.max(np.abs(alpha**2 + beta**2 - 1.0)) < 1e-12
        assert np.max(np.abs(zero)) < 1e-12
        d, q, _ = dq0.coords
        assert np.ptp(d) < 1e-12
        assert np.ptp(q) < 1e-12

    def test_unbalanced_oscillates(self, unbalanced_segment):
        ab0, dq0 = pipeline_clarke_park(abc_series(_scenario(unbalanced_segment), 500, 1.0))
        d, q, zero = dq0.coords
        assert np.ptp(d) > 0.01
        assert np.ptp(q) > 0.01
        assert np.max(np.abs(zero)) > 0.01

    def test_zero_input(self):
        scenario = _scenario(ScenarioSegment(0.0, (0.0,) * 3, (0.0,) * 3))
        ab0, dq0 = pipeline_clarke_park(abc_series(scenario, 100, 1.0))
        assert np.all(ab0.coords == 0.0)
        assert np.all(dq0.coords == 0.0)

    def test_zero_channel_is_scaled_sum(self, unbalanced_segment):
        ab0, _ = pipeline_clarke_park(abc_series(_scenario(unbalanced_segment), 100, 1.0))
        angles = sample_angles(100, 1.0)
        values = evaluate(unbalanced_segment, angles)
        assert ab0.coords[2] == pytest.approx(values.sum(axis=0) / 3.0, abs=1e-12)


def test_abc_series_matches_evaluate(step_scenario):
    series = abc_series(step_scenario, 100, 2.0)
    assert series.coords.shape == (3, 201)
    probe = 73
    from locusframe import evaluate_scenario

    expected = evaluate_scenario(step_scenario, series.angles[probe : probe + 1])
    assert series.coords[:, probe] == pytest.approx(expected[:, 0])


def test_balanced_reduction_to_clarke():
    rng = np.random.default_rng(47)
    for _ in range(50):
        amplitude = rng.uniform(0.2, 1.2)
        offset = rng.uniform(-math.pi, math.pi)
        segment = support.balanced_segment(amplitude=amplitude, offset=offset)
        frame = assemble(build_basis(segment, PHASE_A_PEAK))
        expected = clarke_matrix()
        expected = np.vstack([expected[0] / amplitude, expected[1] / amplitude, expected[2]])
        assert frame.forward == pytest.approx(expected, abs=1e-12)
