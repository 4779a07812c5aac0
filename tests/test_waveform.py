"""Signal model: segments, scenarios, evaluation, sampling, parsing."""

import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import locusframe
from locusframe import (
    PhasorScenario,
    PhasorTriple,
    ScenarioError,
    ScenarioSegment,
    assemble,
    build_basis,
    evaluate,
    evaluate_scenario,
    fortescue,
    load_scenario,
    norm_profile,
    parse_scenario,
    sample_series,
    segment_at,
    to_phasors,
    total_phases,
    wrap_angle,
)
from locusframe.waveform import _CHUNK_ROWS, TWO_PI, AngleGrid, sample_angles

import support


def test_wrap_angle_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(TWO_PI) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(7)
    for angle in rng.uniform(-50.0, 50.0, size=200):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        # same direction on the unit circle
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-12)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-12)


class TestScenarioSegment:
    @pytest.mark.parametrize(
        "amplitudes, offsets", [((1.0, 1.0), (0.0, 0.0, 0.0)), ((1.0, 1.0, 1.0), (0.0,) * 4)]
    )
    def test_three_values_each_required(self, amplitudes, offsets):
        with pytest.raises(ScenarioError, match="must each hold three values"):
            ScenarioSegment(0.0, amplitudes, offsets)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSegment(0.0, (1.0, -0.1, 1.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ScenarioError, match="start angle must be finite"):
            ScenarioSegment(start, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_non_finite_offset_rejected(self, offset):
        # wrapped, it would be stored as NaN and surface as a basis-vector error
        with pytest.raises(ScenarioError, match="phase offset not finite"):
            ScenarioSegment(0.0, (1.0, 1.0, 1.0), (0.0, offset, 0.0))

    def test_offsets_stored_wrapped(self):
        segment = ScenarioSegment(0.0, (1.0, 1.0, 1.0), (3.0 * math.pi, 0.0, -math.pi))
        assert segment.phase_offsets[0] == pytest.approx(math.pi)
        assert segment.phase_offsets[2] == math.pi

    def test_negative_zeros_stored_as_zeros(self):
        segment = ScenarioSegment(-0.0, (1.0, -0.0, -0.0), (0.0, 0.0, 0.5))
        stored = (segment.start_angle, *segment.amplitudes)
        assert [math.copysign(1.0, x) for x in stored] == [1.0] * 4

    def test_structural_shifts_not_stored(self, unbalanced_segment):
        assert unbalanced_segment.phase_offsets == pytest.approx(
            support.UNBALANCED_OFFSETS
        )

    def test_repr(self):
        # the text a frozen dataclass printed
        segment = ScenarioSegment(0, (1, 2, 3), (0.5, 0, 0))
        assert repr(segment) == (
            "ScenarioSegment(start_angle=0.0, amplitudes=(1.0, 2.0, 3.0), "
            "phase_offsets=(0.5, 0.0, 0.0))"
        )


def _records():
    """(field name, one value) of each of the eight record types, by type name."""
    segment = support.unbalanced_segment()
    phasors = to_phasors(segment)
    basis = build_basis(segment)
    return {
        "ScenarioSegment": ("start_angle", segment),
        "PhasorScenario": ("omega", PhasorScenario(100.0 * math.pi, (segment,))),
        "TransformedSeries": ("angles", sample_series(PhasorScenario(1.0, (segment,)), 8)),
        "LocusBasis": ("norms", basis),
        "NormProfile": ("psi", norm_profile(segment)),
        "FrameTransform": ("theta_o", assemble(basis)),
        "PhasorTriple": ("a", phasors),
        "SequenceComponents": ("zero", fortescue(phasors)),
    }


@pytest.mark.parametrize("kind", list(_records()))
def test_record_frozen_and_copyable(kind):
    field, record = _records()[kind]
    assert type(record).__name__ == kind
    # another type is not equal, not an error
    assert (record == 3) is False
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for twin in copies:
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)
        if kind == "TransformedSeries":
            # a series compares by identity, so its copies compare by their arrays
            np.testing.assert_array_equal(twin.angles, record.angles)
            np.testing.assert_array_equal(twin.coords, record.coords)
        else:
            assert twin == record
            assert hash(twin) == hash(record)


def test_series_compares_by_identity():
    # its fields are arrays, whose == has no single truth value
    scenario = PhasorScenario(1.0, (support.unbalanced_segment(),))
    series, twin = sample_series(scenario, 8), sample_series(scenario, 8)
    assert (series == twin) is False
    assert (series != twin) is True
    assert (series == series) is True
    assert hash(series) == hash(series) != hash(twin)


def test_phasor_triple_repr_and_tuple_equality():
    # the dataclass text; as a named tuple it equals any tuple of the same fields
    assert repr(PhasorTriple(1, 2, 3)) == "PhasorTriple(a=1, b=2, c=3)"
    assert PhasorTriple(1, 2, 3) == (1, 2, 3)


class TestPhasorScenario:
    def test_requires_positive_omega(self, balanced_segment):
        with pytest.raises(ScenarioError):
            PhasorScenario(omega=0.0, segments=(balanced_segment,))

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_requires_finite_omega(self, balanced_segment, omega):
        with pytest.raises(ScenarioError, match="positive and finite"):
            PhasorScenario(omega=omega, segments=(balanced_segment,))

    def test_requires_segment(self):
        with pytest.raises(ScenarioError):
            PhasorScenario(omega=1.0, segments=())

    def test_first_segment_starts_at_zero(self):
        late = support.balanced_segment(start_angle=1.0)
        with pytest.raises(ScenarioError):
            PhasorScenario(omega=1.0, segments=(late,))

    def test_starts_strictly_increasing(self, balanced_segment):
        twin = support.balanced_segment(start_angle=0.0)
        with pytest.raises(ScenarioError):
            PhasorScenario(omega=1.0, segments=(balanced_segment, twin))

    def test_frequency_property(self, step_scenario):
        assert step_scenario.frequency_hz == pytest.approx(50.0)


def test_total_phases_folds_structural_shifts(unbalanced_segment):
    phases = np.degrees(total_phases(unbalanced_segment))
    assert phases == pytest.approx([-70.0, -130.0, 30.0])


def test_evaluate_balanced_at_zero():
    segment = support.balanced_segment(offset=0.0)
    assert evaluate(segment, 0.0) == pytest.approx([1.0, -0.5, -0.5])


def test_evaluate_zero_amplitudes():
    segment = ScenarioSegment(0.0, (0.0, 0.0, 0.0), (0.3, -0.2, 0.9))
    assert np.all(evaluate(segment, 1.234) == 0.0)


def test_evaluate_array_shape_and_agreement(unbalanced_segment):
    angles = np.linspace(0.0, 2.0 * TWO_PI, 17)
    block = evaluate(unbalanced_segment, angles)
    assert block.shape == (3, 17)
    for i, angle in enumerate(angles):
        assert block[:, i] == pytest.approx(evaluate(unbalanced_segment, angle))


def test_evaluate_periodicity(unbalanced_segment):
    rng = np.random.default_rng(11)
    for angle in rng.uniform(0.0, 10.0, size=50):
        assert evaluate(unbalanced_segment, angle) == pytest.approx(
            evaluate(unbalanced_segment, angle + TWO_PI), abs=1e-12
        )


class TestSegmentAt:
    def test_switch_angle_belongs_to_newer_segment(self, step_scenario):
        assert segment_at(step_scenario, TWO_PI) is step_scenario.segments[1]
        assert segment_at(step_scenario, TWO_PI - 1e-9) is step_scenario.segments[0]
        assert segment_at(step_scenario, 0.0) is step_scenario.segments[0]

    def test_negative_angle_rejected(self, step_scenario):
        with pytest.raises(ScenarioError):
            segment_at(step_scenario, -0.1)

    @pytest.mark.parametrize(
        "angle, message",
        [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be >= 0")],
    )
    def test_non_finite_angle_rejected(self, step_scenario, angle, message):
        with pytest.raises(ScenarioError, match=message):
            segment_at(step_scenario, angle)


def test_evaluate_scenario_honors_switches(step_scenario):
    angles = np.array([0.0, 1.0, TWO_PI - 1e-6, TWO_PI, TWO_PI + 1.0])
    block = evaluate_scenario(step_scenario, angles)
    for i, angle in enumerate(angles):
        expected = evaluate(segment_at(step_scenario, angle), angle)
        assert block[:, i] == pytest.approx(expected, abs=1e-12)


def test_evaluate_scenario_bit_identical_to_per_sample_evaluate():
    rng = np.random.default_rng(17)
    starts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 40.0, size=49))])
    segments = tuple(
        ScenarioSegment(
            start_angle=float(start),
            amplitudes=tuple(rng.uniform(0.2, 1.2, size=3)),
            phase_offsets=tuple(rng.uniform(-math.pi, math.pi, size=3)),
        )
        for start in starts
    )
    scenario = PhasorScenario(omega=TWO_PI * 50.0, segments=segments)
    # shuffled, with every switch angle itself and the last segment's tail
    angles = np.concatenate([rng.uniform(0.0, 45.0, size=400), starts])
    rng.shuffle(angles)
    block = evaluate_scenario(scenario, angles)
    assert block.shape == (3, angles.size)
    for i, angle in enumerate(angles):
        assert np.array_equal(block[:, i], evaluate(segment_at(scenario, angle), angle))


def test_scalar_evaluate_takes_the_sampling_kernel(monkeypatch, step_scenario):
    # math.cos one ulp high changes neither: both take numpy's cosine
    cos = math.cos
    monkeypatch.setattr(math, "cos", lambda x: math.nextafter(cos(x), math.inf))
    angles = np.array([0.0, 0.5 * math.pi, 1.0, TWO_PI, TWO_PI + 0.3, 5.5 + 0.5 * math.pi])
    block = evaluate_scenario(step_scenario, angles)
    for i, angle in enumerate(angles):
        assert np.array_equal(evaluate(segment_at(step_scenario, angle), angle), block[:, i])


def test_evaluate_scenario_rejects_negative_angles(step_scenario):
    with pytest.raises(ScenarioError):
        evaluate_scenario(step_scenario, np.array([0.0, -1e-9, 1.0]))
    assert evaluate_scenario(step_scenario, np.empty(0)).shape == (3, 0)


@pytest.mark.parametrize(
    "angles, message",
    [
        pytest.param([0.0, math.nan], "must be finite", id="nan"),
        pytest.param([math.inf], "must be finite", id="inf"),
        pytest.param([1.0, math.inf, 2.0], "must be finite", id="inf-inside"),
        pytest.param([math.nan, -1.0], "must be finite", id="nan-and-negative"),
        pytest.param([0.0, -math.inf], "must be >= 0", id="-inf"),
    ],
)
def test_evaluate_scenario_rejects_non_finite_angles(step_scenario, angles, message):
    with pytest.raises(ScenarioError, match=message):
        evaluate_scenario(step_scenario, angles)


def test_sample_angles_grid():
    angles = sample_angles(1000, 1.0)
    assert angles.size == 1001
    assert angles[0] == 0.0
    assert angles[-1] == pytest.approx(TWO_PI)
    assert np.diff(angles) == pytest.approx(TWO_PI / 1000)


@pytest.mark.parametrize("rate", [4, 64, 1000, 7919])
def test_sample_angles_builds_its_grid_in_place(rate):
    # one float array scaled in place, 8 bytes a row, with the bits of the product of
    # an integer arange and the step
    tracemalloc.start()
    try:
        angles = sample_angles(rate, 1e6 / rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert angles.size == 1_000_001
    assert peak <= 8 * angles.size + 64 * 1024
    assert np.array_equal(angles, np.arange(angles.size) * (TWO_PI / rate))


def test_sample_angles_fractional_periods():
    angles = sample_angles(8, 0.3)
    # ceil(2.4) = 3 steps, never overshooting by a full step
    assert angles.size == 4
    assert angles[-1] <= TWO_PI * 0.3 + TWO_PI / 8


@pytest.mark.parametrize(
    "periods, count",
    # 7 PiB of samples, beyond any 48-bit address space; beyond numpy's size
    # limit; beyond the float range
    [(1e12, r"1e\+15"), (1e300, r"1e\+303"), (1e306, "inf")],
    ids=["7-PiB", "size-limit", "float-range"],
)
def test_sample_angles_too_large(periods, count):
    with pytest.raises(ScenarioError, match=rf"grid of {count} samples"):
        sample_angles(1000, periods)


def _rows_by_index(grid, rows):
    return np.array([grid[k] for k in rows]).tobytes()


@pytest.mark.parametrize(
    "rate, periods", [(4, 0.3), (64, 2.5), (1000, 8.0), (7919, 1.3)], ids=str
)
def test_angle_grid_rows_match_the_whole_grid(rate, periods):
    # whole, a chunk at a time and row by row: the bits of np.arange(n) * step
    grid = AngleGrid(rate, periods)
    bits = (np.arange(len(grid), dtype=float) * (TWO_PI / rate)).tobytes()
    assert grid[:].tobytes() == sample_angles(rate, periods).tobytes() == bits
    chunks = [grid[lo : lo + _CHUNK_ROWS] for lo in range(0, len(grid), _CHUNK_ROWS)]
    assert b"".join(chunk.tobytes() for chunk in chunks) == bits
    assert _rows_by_index(grid, range(len(grid))) == bits
    assert _rows_by_index(grid, [-1]) == bits[-8:]
    with pytest.raises(IndexError):
        grid[len(grid)]


def test_angle_grid_far_rows():
    # rows near 3e9, where the steps of the grid differ by an ulp; 24 GB if built, so
    # the grid is restored from its fields, as pickle does, past the size check
    grid = AngleGrid.__new__(AngleGrid)
    grid.__setstate__((3_000_001_000, TWO_PI / 1000))
    rows = range(3_000_000_000, 3_000_001_000)
    bits = (np.arange(rows.start, rows.stop) * (TWO_PI / 1000)).tobytes()
    assert grid[rows.start :].tobytes() == bits
    assert grid[rows.start : rows.start + 10].tobytes() == bits[:80]
    assert _rows_by_index(grid, rows) == bits
    assert _rows_by_index(grid, [-1]) == bits[-8:]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_angle_grid_size_check_is_never_resident():
    # 1e7 rows, 76 MiB if built: the check asks for the block and drops it unwritten
    script = (
        "from locusframe.waveform import AngleGrid\n"
        "import numpy\n"
        "def peak():\n"
        "    status = open('/proc/self/status').read().splitlines()\n"
        "    return int(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        "before = peak()\n"
        "grid = AngleGrid(1000, 1e4)\n"
        "print(len(grid), peak() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(locusframe.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    rows, grown = map(int, done.stdout.split())
    assert rows == 10**7 + 1
    assert grown < 4 * 1024, grown  # kB


def test_sample_series_counts_and_values(step_scenario):
    series = sample_series(step_scenario, 100, 2.0)
    assert len(series) == 201
    expected = evaluate_scenario(step_scenario, np.array([series.angles[37]]))[:, 0]
    assert series.coords[:, 37] == pytest.approx(expected)


def test_sample_series_rejects_bad_rates(step_scenario):
    with pytest.raises(ScenarioError):
        sample_series(step_scenario, 3, 1.0)
    with pytest.raises(ScenarioError):
        sample_series(step_scenario, 100, 0.0)


GOOD_DOC = """
{"frequency_hz": 50.0,
 "segments": [{"start_periods": 0.0,
               "amplitudes_pu": [1.0, 1.0, 1.0],
               "phase_offsets_deg": [-50.0, -50.0, -50.0]},
              {"start_periods": 1.0,
               "amplitudes_pu": [0.7, 1.0, 0.4],
               "phase_offsets_deg": [-70.0, -10.0, -90.0]}]}
"""


class TestParseScenario:
    def test_good_document(self):
        scenario = parse_scenario(GOOD_DOC)
        assert scenario.frequency_hz == pytest.approx(50.0)
        assert len(scenario.segments) == 2
        assert scenario.segments[1].start_angle == pytest.approx(TWO_PI)
        assert scenario.segments[1].amplitudes == pytest.approx((0.7, 1.0, 0.4))
        assert scenario.segments[1].phase_offsets == pytest.approx(
            support.UNBALANCED_OFFSETS
        )

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed scenario document"):
            parse_scenario("{not json")

    def test_missing_frequency(self):
        with pytest.raises(ScenarioError, match="frequency_hz"):
            parse_scenario('{"segments": []}')

    def test_non_positive_frequency(self):
        with pytest.raises(ScenarioError, match="must be positive"):
            parse_scenario(GOOD_DOC.replace("50.0,", "0.0,", 1))

    def test_frequency_not_number(self):
        with pytest.raises(ScenarioError, match="must be a number"):
            parse_scenario('{"frequency_hz": "fast", "segments": []}')

    def test_empty_segments(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            parse_scenario('{"frequency_hz": 50.0, "segments": []}')

    def test_missing_segment_field(self):
        doc = (
            '{"frequency_hz": 50.0, "segments": ['
            '{"start_periods": 0.0, "amplitudes_pu": [1, 1, 1]}]}'
        )
        with pytest.raises(ScenarioError, match="phase_offsets_deg"):
            parse_scenario(doc)

    def test_bad_triple(self):
        doc = (
            '{"frequency_hz": 50.0, "segments": ['
            '{"start_periods": 0.0, "amplitudes_pu": [1, 1],'
            ' "phase_offsets_deg": [0, 0, 0]}]}'
        )
        with pytest.raises(ScenarioError, match="three numbers"):
            parse_scenario(doc)

    def test_negative_start(self):
        doc = GOOD_DOC.replace('"start_periods": 1.0', '"start_periods": -1.0')
        with pytest.raises(ScenarioError, match="start_periods"):
            parse_scenario(doc)

    def test_negative_amplitude(self):
        doc = GOOD_DOC.replace("[0.7, 1.0, 0.4]", "[-0.7, 1.0, 0.4]")
        with pytest.raises(ScenarioError, match="negative amplitude"):
            parse_scenario(doc)

    def test_non_increasing_segments(self):
        doc = GOOD_DOC.replace('"start_periods": 1.0', '"start_periods": 0.0')
        with pytest.raises(ScenarioError, match="strictly increasing"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("50.0,", "NaN,"),
            ('"start_periods": 1.0', '"start_periods": Infinity'),
            ("[0.7, 1.0, 0.4]", "[0.7, NaN, 0.4]"),
            ("[-70.0, -10.0, -90.0]", "[-70.0, -Infinity, -90.0]"),
            ("50.0,", "1" + "0" * 400 + ","),
        ],
        ids=["frequency-nan", "start-infinity", "amplitude-nan", "offset-neg-infinity",
             "frequency-int-overflow"],
    )
    def test_non_finite_number_rejected(self, old, new):
        assert old in GOOD_DOC
        with pytest.raises(ScenarioError, match="must be finite"):
            parse_scenario(GOOD_DOC.replace(old, new, 1))


def test_load_shipped_scenario(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.frequency_hz == pytest.approx(50.0)
    assert len(scenario.segments) == 2
    assert scenario.segments[1].amplitudes == pytest.approx((0.7, 1.0, 0.4))
