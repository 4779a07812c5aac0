"""Locus basis construction, orientation policies, and measurement paths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locusframe import (
    CircularLocusError,
    DegenerateLocusError,
    LocusError,
    MAX_NORM,
    MeasurementError,
    PHASE_A_PEAK,
    ScenarioSegment,
    TransformedSeries,
    UndefinedOrientationError,
    basis_from_stream,
    basis_from_vectors,
    basis_vectors,
    build_basis,
    evaluate,
    norm_profile,
    resolve_orientation,
    sample_series,
    theta_max_norm,
    theta_phase_a_peak,
    wrap_angle,
)
from locusframe.locus import DEGENERACY_ATOL, DEGENERACY_RTOL, LocusBasis, stream_window
from locusframe.waveform import AngleGrid, PhasorScenario, TWO_PI, sample_angles, values_at

import support


def test_basis_vectors_match_reference(unbalanced_segment):
    e1, e2 = basis_vectors(unbalanced_segment, support.THETA_CLASSICAL)
    assert support.is_float_triple(e1) and support.is_float_triple(e2)
    assert e1 == pytest.approx(support.E1_CLASSICAL, abs=1e-12)
    assert e2 == pytest.approx(support.E2_CLASSICAL, abs=1e-12)


def _math_values(segment, angle):
    """V_k cos(angle + q_k) in plain math, in the library's operation order."""
    phases = support.math_total_phases(segment)
    return tuple(v * math.cos(angle + q) for v, q in zip(segment.amplitudes, phases))


def test_basis_vectors_quarter_period_apart(unbalanced_segment):
    # e2 is just the signal a quarter period after e1
    theta = 0.37
    e1, e2 = basis_vectors(unbalanced_segment, theta)
    assert e1 == pytest.approx(evaluate(unbalanced_segment, theta))
    assert e2 == pytest.approx(evaluate(unbalanced_segment, theta + math.pi / 2))
    # bit for bit V_k cos(theta + q_k), as values_at gives it, at every orientation kind
    for segment in support.exact_check_segments():
        for orientation in (PHASE_A_PEAK, MAX_NORM, theta):
            theta_o = resolve_orientation(segment, orientation)
            e1, e2 = basis_vectors(segment, theta_o)
            for vector, angle in ((e1, theta_o), (e2, theta_o + 0.5 * math.pi)):
                assert vector == _math_values(segment, angle) == values_at(segment, angle)
            assert build_basis(segment, orientation).vectors[:2] == (e1, e2)


def test_locus_identity_reconstructs_signal(unbalanced_segment):
    # v(theta) = cos(theta - theta_o) e1 + sin(theta - theta_o) e2
    rng = np.random.default_rng(3)
    for theta_o in rng.uniform(-math.pi, math.pi, size=20):
        e1, e2 = map(np.array, basis_vectors(unbalanced_segment, theta_o))
        for theta in rng.uniform(0.0, TWO_PI, size=10):
            rebuilt = math.cos(theta - theta_o) * e1 + math.sin(theta - theta_o) * e2
            assert rebuilt == pytest.approx(
                evaluate(unbalanced_segment, theta), abs=1e-12
            )


class TestDegeneracyMetric:
    """``degeneracy`` is the cross share |e1 x e2|/(|e1| |e2|), accepted or rejected."""

    def test_orthonormal_pair(self):
        assert basis_from_vectors([1, 0, 0], [0, 1, 0], 0.0).degeneracy == 1.0

    def test_collinear_pair(self):
        with pytest.raises(DegenerateLocusError) as caught:
            basis_from_vectors([1, 2, 3], [2, 4, 6], 0.0)
        assert caught.value.degeneracy == support.cross_share([1, 2, 3], [2, 4, 6])
        assert caught.value.degeneracy == pytest.approx(0.0)

    def test_zero_vector(self):
        with pytest.raises(DegenerateLocusError) as caught:
            basis_from_vectors([0, 0, 0], [1, 0, 0], 0.0)
        assert caught.value.degeneracy == 0.0

    def test_null_floor(self):
        # orthogonal, but each norm at or below DEGENERACY_ATOL
        e1, e2 = [1e-13, 0.0, 0.0], [0.0, 1e-13, 0.0]
        assert support.cross_share(e1, e2) == 0.0
        with pytest.raises(DegenerateLocusError) as caught:
            basis_from_vectors(e1, e2, 0.0)
        assert caught.value.degeneracy == 0.0

    def test_metric_is_the_basis_gate(self):
        rng = np.random.default_rng(17)
        pairs = rng.normal(size=(600, 2, 3)) * 10.0 ** rng.uniform(-14.0, 1.0, size=(600, 2, 1))
        # nearly collinear pairs on both sides of DEGENERACY_RTOL
        tilt = 10.0 ** rng.uniform(-12.0, -6.0, size=(300, 1))
        pairs[:300, 1] = pairs[:300, 0] * rng.uniform(0.5, 2.0, size=(300, 1)) + tilt * pairs[:300, 1]
        # a minor axis far below the major one at a right angle: the cross
        # share stays 1 while g = 2ab/(a^2 + b^2) falls on both sides of the gate
        ratio = 10.0 ** rng.uniform(-11.0, -6.0, size=(100, 1))
        pairs[300:400, 1] = np.cross(pairs[300:400, 0], rng.normal(size=(100, 3)))
        pairs[300:400, 1] *= ratio * np.linalg.norm(pairs[300:400, 0], axis=1, keepdims=True)
        pairs[300:400, 1] /= np.linalg.norm(pairs[300:400, 1], axis=1, keepdims=True)
        rejected = 0
        for e1, e2 in pairs:
            n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
            g = 2.0 * np.linalg.norm(np.cross(e1, e2)) / (n1**2 + n2**2)
            should_reject = min(n1, n2) <= DEGENERACY_ATOL or g <= DEGENERACY_RTOL
            try:
                basis = basis_from_vectors(e1, e2, 0.0)
            except DegenerateLocusError as exc:
                assert should_reject
                rejected += 1
                assert exc.degeneracy == support.cross_share(e1, e2)
            else:
                assert not should_reject
                assert basis.degeneracy == support.cross_share(e1, e2)
        assert 100 < rejected < 500

    def test_clipped_to_one(self):
        # orthogonal in decimal; the unclipped share rounds to 1 + 2**-52
        e1, e2 = [0.316, -0.234, 1.33], [0.149, 0.241, 0.007]
        n1, n2 = support.explicit_norm(e1), support.explicit_norm(e2)
        assert support.explicit_norm(np.cross(e1, e2)) / (n1 * n2) > 1.0
        assert basis_from_vectors(e1, e2, 0.0).degeneracy == support.cross_share(e1, e2) == 1.0
        rng = np.random.default_rng(5)
        for _ in range(100):
            basis = basis_from_vectors(rng.normal(size=3), rng.normal(size=3), 0.0)
            assert 0.0 <= basis.degeneracy <= 1.0


class TestNormalVector:
    """e3 of basis_from_vectors: the plane normal scaled to norm sqrt(3)."""

    def test_reference_value(self, unbalanced_segment):
        e1, e2 = basis_vectors(unbalanced_segment, support.THETA_CLASSICAL)
        assert basis_from_vectors(e1, e2, 0.0).vectors[2] == pytest.approx(support.E3, abs=1e-12)

    def test_norm_and_orthogonality(self, unbalanced_segment):
        e1, e2 = basis_vectors(unbalanced_segment, 0.81)
        e3 = basis_from_vectors(e1, e2, 0.0).vectors[2]
        assert np.linalg.norm(e3) == pytest.approx(math.sqrt(3.0))
        assert abs(np.dot(e3, e1)) < 1e-12
        assert abs(np.dot(e3, e2)) < 1e-12

    def test_independent_of_orientation(self, unbalanced_segment):
        rng = np.random.default_rng(9)
        _, _, reference = basis_from_vectors(*basis_vectors(unbalanced_segment, 0.0), 0.0).vectors
        for theta_o in rng.uniform(-math.pi, math.pi, size=50):
            pair = basis_vectors(unbalanced_segment, theta_o)
            _, _, e3 = basis_from_vectors(*pair, theta_o).vectors
            assert e3 == pytest.approx(reference, abs=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateLocusError):
            basis_from_vectors([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], 0.0)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateLocusError):
            basis_from_vectors([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)

    def test_single_phase_segment_raises(self):
        segment = ScenarioSegment(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(DegenerateLocusError):
            basis_from_vectors(*basis_vectors(segment, 0.0), 0.0)


def _pairs_with_numpy_formulas():
    """Seeded random pairs (contiguous and strided) plus the stock segment's, each
    with e3 and the degeneracy from np.cross and the explicit norm
    sqrt(x*x + y*y + z*z), the square root of the plain sum of squares."""
    rng = np.random.default_rng(61)
    stock = support.unbalanced_segment()
    pairs = [basis_vectors(stock, theta) for theta in rng.uniform(-math.pi, math.pi, 50)]
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(3000, 2, 1))
    pairs += list(rng.normal(size=(3000, 2, 3)) * scales)
    pairs += [(m[:, 0], m[:, 1]) for m in rng.normal(size=(200, 3, 2))]
    for e1, e2 in pairs:
        cross = np.cross(e1, e2)
        n1, n2, cross_norm = (support.explicit_norm(v) for v in (e1, e2, cross))
        yield e1, e2, math.sqrt(3.0) * cross / cross_norm, min(1.0, float(cross_norm / (n1 * n2)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.5e50])
@pytest.mark.parametrize("position", range(6))
def test_component_gate(position, value):
    # each of the six components is checked on its own, NaN included
    pair = [[1.0, 0.5, -0.25], [0.0, 2.0, 1.0]]
    pair[position // 3][position % 3] = value
    with pytest.raises(LocusError, match="not finite or above"):
        basis_from_vectors(*pair, 0.0)


@pytest.mark.parametrize("theta_o", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [LocusBasis, basis_from_vectors])
def test_non_finite_theta_o_rejected(make, theta_o):
    pair = [1.0, 0.5, -0.25], [0.0, 2.0, 1.0]
    with pytest.raises(LocusError, match="theta_o") as excinfo:
        make(*pair, theta_o)
    assert type(excinfo.value) is LocusError
    # the component and degeneracy checks run first, with their own messages
    with pytest.raises(LocusError, match="not finite or above"):
        make([math.nan, 0.5, -0.25], pair[1], theta_o)
    with pytest.raises(DegenerateLocusError):
        make(pair[0], pair[0], theta_o)


def test_scalar_kernels_bit_identical_to_numpy_formulas():
    for e1, e2, e3, degeneracy in _pairs_with_numpy_formulas():
        basis = basis_from_vectors(e1, e2, 0.0)
        assert np.array_equal(basis.vectors[2], e3)
        assert basis.degeneracy == degeneracy == support.cross_share(e1, e2)


def test_norms_are_the_gate_norms():
    # the one source of |e1| and |e2|, read by assemble(normalized=True) and matrix
    for segment in support.exact_check_segments():
        for orientation in (PHASE_A_PEAK, MAX_NORM, 0.37):
            basis = build_basis(segment, orientation)
            e1, e2, _ = basis.vectors
            assert basis.norms == tuple(math.sqrt(x * x + y * y + z * z) for x, y, z in (e1, e2))


class TestThetaPhaseAPeak:
    def test_reference_value(self, unbalanced_segment):
        assert theta_phase_a_peak(unbalanced_segment) == pytest.approx(
            support.THETA_CLASSICAL
        )

    def test_phase_a_peaks_there(self, unbalanced_segment):
        theta = theta_phase_a_peak(unbalanced_segment)
        peak = evaluate(unbalanced_segment, theta)[0]
        assert peak == pytest.approx(unbalanced_segment.amplitudes[0])

    def test_zero_amplitude_raises(self):
        segment = ScenarioSegment(0.0, (0.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(UndefinedOrientationError):
            theta_phase_a_peak(segment)


class TestNormProfile:
    def test_reference_values(self, unbalanced_segment):
        profile = norm_profile(unbalanced_segment)
        assert profile.c_level == pytest.approx(support.PROFILE_C, abs=1e-12)
        assert profile.a_amplitude == pytest.approx(support.PROFILE_A, abs=1e-12)
        assert profile.psi == pytest.approx(support.PROFILE_PSI, abs=1e-12)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(21)
        thetas = np.linspace(0.0, TWO_PI, 64)
        for _ in range(50):
            segment = support.random_segment(rng)
            profile = norm_profile(segment)
            for theta in thetas:
                direct = float(np.sum(evaluate(segment, theta) ** 2))
                closed = profile.c_level - profile.a_amplitude * math.sin(
                    2.0 * theta + profile.psi
                )
                assert closed == pytest.approx(direct, abs=1e-12)

    def test_bit_identical_to_math_formula(self):
        for segment in support.exact_check_segments():
            wa, wb, wc = (v * v for v in segment.amplitudes)
            qa, qb, qc = (2.0 * q for q in support.math_total_phases(segment))
            # each three-term sum left to right
            n_coef = wa * math.cos(qa) + wb * math.cos(qb) + wc * math.cos(qc)
            d_coef = wa * math.sin(qa) + wb * math.sin(qb) + wc * math.sin(qc)
            a_amplitude = 0.5 * math.hypot(n_coef, d_coef)
            profile = norm_profile(segment)
            assert profile.c_level == (wa + wb + wc) / 2.0
            assert profile.a_amplitude == a_amplitude
            assert profile.psi == (math.atan2(-n_coef, d_coef) if a_amplitude > 0.0 else 0.0)

    def test_single_phase(self):
        # ||v||^2 = cos^2(theta) = 1/2 + 1/2 cos(2 theta), so psi = -pi/2
        segment = ScenarioSegment(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        profile = norm_profile(segment)
        assert profile.c_level == pytest.approx(0.5)
        assert profile.a_amplitude == pytest.approx(0.5)
        assert profile.psi == pytest.approx(-math.pi / 2.0)
        assert theta_max_norm(segment) == pytest.approx(0.0)

    def test_balanced_profile_flat(self, balanced_segment):
        profile = norm_profile(balanced_segment)
        assert profile.c_level == pytest.approx(1.5)
        assert profile.a_amplitude == pytest.approx(0.0, abs=1e-15)

    def test_zero_segment_profile(self):
        segment = ScenarioSegment(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        profile = norm_profile(segment)
        assert profile.c_level == 0.0
        assert profile.a_amplitude == 0.0
        assert profile.psi == 0.0


class TestThetaMaxNorm:
    def test_reference_value(self, unbalanced_segment):
        assert theta_max_norm(unbalanced_segment) == pytest.approx(
            support.THETA_DESIRED, abs=1e-12
        )

    def test_maximizes_norm(self, unbalanced_segment):
        theta = theta_max_norm(unbalanced_segment)
        best = np.linalg.norm(evaluate(unbalanced_segment, theta))
        for probe in np.linspace(-math.pi, math.pi, 720):
            assert np.linalg.norm(evaluate(unbalanced_segment, probe)) <= best + 1e-12

    def test_orthogonal_basis(self, unbalanced_segment):
        e1, e2 = basis_vectors(unbalanced_segment, theta_max_norm(unbalanced_segment))
        assert abs(np.dot(e1, e2)) < 1e-12
        assert np.linalg.norm(e1) == pytest.approx(support.E1_DESIRED_NORM, abs=1e-12)
        assert np.linalg.norm(e2) == pytest.approx(support.E2_DESIRED_NORM, abs=1e-12)

    def test_circular_raises(self, balanced_segment):
        with pytest.raises(CircularLocusError):
            theta_max_norm(balanced_segment)


class TestResolveOrientation:
    def test_named_choices(self, unbalanced_segment):
        assert resolve_orientation(unbalanced_segment, PHASE_A_PEAK) == pytest.approx(
            support.THETA_CLASSICAL
        )
        assert resolve_orientation(unbalanced_segment, MAX_NORM) == pytest.approx(
            support.THETA_DESIRED
        )

    def test_explicit_angle_wrapped(self, unbalanced_segment):
        assert resolve_orientation(unbalanced_segment, 3.0 * math.pi) == pytest.approx(
            math.pi
        )

    def test_max_norm_falls_back_on_circle(self, balanced_segment):
        assert resolve_orientation(balanced_segment, MAX_NORM) == pytest.approx(
            theta_phase_a_peak(balanced_segment)
        )

    def test_unknown_name_rejected(self, unbalanced_segment):
        with pytest.raises(ValueError, match="unknown orientation"):
            resolve_orientation(unbalanced_segment, "sideways")


def test_build_basis_metadata(unbalanced_segment):
    basis = build_basis(unbalanced_segment, PHASE_A_PEAK)
    assert basis.theta_o == pytest.approx(support.THETA_CLASSICAL)
    e1, e2, e3 = basis.vectors
    assert all(support.is_float_triple(v) for v in basis.vectors)
    assert e1 == pytest.approx(support.E1_CLASSICAL, abs=1e-12)
    assert e2 == pytest.approx(support.E2_CLASSICAL, abs=1e-12)
    assert e3 == pytest.approx(support.E3, abs=1e-12)
    assert 0.0 < basis.degeneracy <= 1.0


def test_build_basis_max_norm_is_orthogonal(unbalanced_segment):
    basis = build_basis(unbalanced_segment, MAX_NORM)
    assert basis.degeneracy == pytest.approx(1.0)


def test_build_basis_degenerate_segment_raises():
    segment = ScenarioSegment(0.0, (0.7, 1.0, 0.0), (0.0, 2.0 * math.pi / 3.0, 0.0))
    with pytest.raises(DegenerateLocusError):
        build_basis(segment, PHASE_A_PEAK)


class TestBasisFromStream:
    @staticmethod
    def _scenario(segment):
        return PhasorScenario(omega=TWO_PI * 50.0, segments=(segment,))

    def test_interpolation_accuracy(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 1000, 1.0)
        t1 = 0.3
        e1, e2 = basis_from_stream(series, t1)
        assert support.is_float_triple(e1) and support.is_float_triple(e2)
        expected1, expected2 = basis_vectors(unbalanced_segment, t1)
        assert e1 == pytest.approx(expected1, abs=1e-4)
        assert e2 == pytest.approx(expected2, abs=1e-4)

    def test_on_grid_interpolation_is_exact(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 64, 1.0)
        e1, e2 = basis_from_stream(series, 0.0)
        expected1, expected2 = basis_vectors(unbalanced_segment, 0.0)
        assert e1 == pytest.approx(expected1, abs=1e-12)
        assert e2 == pytest.approx(expected2, abs=1e-12)

    def test_rate_floor(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 32, 1.0)
        with pytest.raises(MeasurementError, match="samples per period"):
            basis_from_stream(series, 0.0)

    def test_span_check(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 1000, 1.0)
        with pytest.raises(MeasurementError, match="estimation needs"):
            basis_from_stream(series, 6.0)

    def test_nan_t1_rejected(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 1000, 1.0)
        with pytest.raises(MeasurementError, match="estimation needs"):
            basis_from_stream(series, math.nan)

    def test_short_series(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 1000, 1.0)
        single = TransformedSeries(series.angles[:1], series.coords[:, :1])
        with pytest.raises(MeasurementError, match="fewer than two samples"):
            basis_from_stream(single, 0.0)

    def test_non_uniform_rejected(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 1000, 1.0)
        gapped = TransformedSeries(
            np.delete(series.angles, 100), np.delete(series.coords, 100, axis=1)
        )
        with pytest.raises(MeasurementError, match="uniform"):
            basis_from_stream(gapped, 0.0)

    def test_uniformity_is_checked_before_rate_and_span(self, unbalanced_segment):
        series = sample_series(self._scenario(unbalanced_segment), 32, 1.0)
        gapped = TransformedSeries(np.delete(series.angles, 5), np.delete(series.coords, 5, axis=1))
        with pytest.raises(MeasurementError, match="uniform"):
            basis_from_stream(gapped, 6.0)


@st.composite
def _stream_estimates(draw):
    """(series, t1, grid): random coordinates on a grid of 64 to 4096 samples per period,
    t1 on a grid row, anywhere in between, with t2 on the last row, or within the span
    check's 1e-12 slack before the first row, and the grid as an AngleGrid."""
    rate = draw(st.integers(64, 4096))
    periods = draw(st.floats(0.3, 3.0))
    angles, grid = sample_angles(rate, periods), AngleGrid(rate, periods)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = TransformedSeries(angles, rng.normal(size=(3, angles.size)))
    end = angles[-1] - 0.5 * math.pi
    kind = draw(st.sampled_from(("row", "between", "last", "slack")))
    if kind == "row":
        t1 = angles[draw(st.integers(0, int(np.searchsorted(angles, end, side="right")) - 1))]
    elif kind == "between":
        t1 = draw(st.floats(0.0, 1.0)) * end
    else:
        t1 = end if kind == "last" else -5e-13
    return series, float(t1), grid


@settings(max_examples=300, deadline=None)
@given(_stream_estimates())
@example(
    (
        sample_series(PhasorScenario(1.0, (support.unbalanced_segment(),)), 64, 1.0),
        0.0,
        AngleGrid(64, 1.0),
    )
)
def test_bracketing_rows_give_the_same_bits(case):
    # np.interp over the rows stream_window returns finds the interval, and the exact
    # hit on a grid row, that it finds over the whole series; the AngleGrid of the same
    # rate and periods gives the same rows
    series, t1, grid = case
    whole = tuple(
        tuple(float(np.interp(angle, series.angles, channel)) for channel in series.coords)
        for angle in (t1, t1 + 0.5 * math.pi)
    )
    rows = stream_window(series.angles, t1)
    assert stream_window(grid, t1) == rows
    window = TransformedSeries(series.angles[rows], series.coords[:, rows])
    bits = np.array(whole).tobytes()
    assert np.array(basis_from_stream(series, t1)).tobytes() == bits
    assert np.array(basis_from_stream(window, t1)).tobytes() == bits


def test_grid_check_makes_no_grid_size_array():
    # np.diff over the whole grid and its two temporaries peak at about 15 MiB here
    angles = sample_angles(1000, 1000)
    assert angles.size == 10**6 + 1
    tracemalloc.start()
    try:
        assert stream_window(angles, 1.0) == slice(159, 411)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_grid_is_read_not_scanned():
    # stream_window reads the ends and the rows its two searches visit, whatever the size
    class Counting:
        reads = 0

        def __init__(self, grid):
            self.grid = grid

        def __len__(self):
            return len(self.grid)

        def __getitem__(self, key):
            Counting.reads += 1
            return self.grid[key]

    assert stream_window(Counting(AngleGrid(1000, 1000)), 1.0) == slice(159, 411)
    assert Counting.reads <= 64, Counting.reads


def test_far_grid_is_uniform_to_an_ulp():
    # near 1.9e7 rad the steps of np.arange(n) * step differ from the first by one ulp,
    # 3.7e-9, more than the 1e-9 the check allows on its own
    angles = np.arange(3_000_000_000, 3_000_001_000) * (TWO_PI / 1000)
    step = angles[1] - angles[0]
    assert np.abs(np.diff(angles) - step).max() == np.spacing(angles[-1]) > 1e-9
    coords = np.random.default_rng(5).normal(size=(3, angles.size))
    t1 = float(angles[10])
    whole = tuple(
        tuple(float(np.interp(t, angles, channel)) for channel in coords)
        for t in (t1, t1 + 0.5 * math.pi)
    )
    assert basis_from_stream(TransformedSeries(angles, coords), t1) == whole


def test_far_series_at_the_rate_floor_passes():
    # 40 rows at exactly 64 samples per period from rows 140000..150000 on: a single
    # step there is rounded to an ulp of its angles and can read as 64.0 - 2e-9 samples
    # per period, the mean step over the span cannot
    rejected = []
    for first in range(140_000, 150_000, 7):
        angles = np.arange(first, first + 40) * (TWO_PI / 64)
        try:
            basis_from_stream(TransformedSeries(angles, np.ones((3, 40))), float(angles[0]))
        except MeasurementError as exc:
            rejected.append((first, str(exc)))
    assert rejected == []


@pytest.mark.parametrize("rows", [18, 40, 200])
def test_far_window_at_the_rate_floor_passes(rows):
    # far from 0 a window's span is rounded to an ulp of its larger end: 18 rows from
    # row 905978835 at exactly 64 samples per period read 63.99999965, which an
    # absolute slack of 1e-9 rejected; 63 samples per period still fail
    for first in np.random.default_rng(5).integers(1e8, 3e9, 3000):
        angles = np.arange(first, first + rows) * (TWO_PI / 64)
        basis_from_stream(TransformedSeries(angles, np.ones((3, rows))), float(angles[0]))
        coarse = np.arange(first, first + rows) * (TWO_PI / 63)
        with pytest.raises(MeasurementError, match="63.0 samples per period"):
            stream_window(coarse, float(coarse[0]))


@pytest.mark.parametrize(
    "rate, shown", [(63.99, "63.9"), (63.9999, "63.9"), (63.0, "63.0"), (32.0, "32.0")]
)
def test_rejected_rate_never_reads_as_the_floor(rate, shown):
    # a rate just below 64 rounds to 64.0 at one decimal
    angles = np.arange(200) * (TWO_PI / rate)
    series = TransformedSeries(angles, np.ones((3, 200)))
    with pytest.raises(MeasurementError) as excinfo:
        basis_from_stream(series, 0.0)
    assert str(excinfo.value) == f"{shown} samples per period; need at least 64"


def test_window_passes_its_own_check():
    # near 525000 rad the window of a grid that passed passes on its own too
    grid = AngleGrid(64, 100_000)
    rows = stream_window(grid, 525000.5)
    assert rows.stop - rows.start == 18
    assert stream_window(grid[rows], 525000.5) == slice(0, 18)


def test_basis_from_vectors_round_trip(unbalanced_segment):
    e1, e2 = basis_vectors(unbalanced_segment, 0.7)
    basis = basis_from_vectors(e1, e2, 0.7)
    assert basis.theta_o == 0.7
    cross = np.cross(e1, e2)
    assert basis.vectors[2] == pytest.approx(math.sqrt(3.0) * cross / np.linalg.norm(cross))


def test_wrap_angle_reexported():
    assert wrap_angle(-math.pi) == math.pi
