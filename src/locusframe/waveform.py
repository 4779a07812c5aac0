"""Three-phase sinusoidal signal model.

A scenario is a fundamental angular frequency plus an ordered list of phasor
segments.  Each segment fixes per-phase amplitudes and phase offsets; the
structural -2pi/3 and +2pi/3 displacements of phases b and c are applied at
evaluation time only, never stored.  All angles are radians; amplitudes are
per-unit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

#: three per-phase floats: a vector in abc space or one value per phase
Triple = tuple[float, float, float]

#: Structural phase displacements of phases a, b, c.
STRUCTURAL_SHIFTS = (0.0, -TWO_PI / 3.0, TWO_PI / 3.0)

#: largest amplitude: keeps |e1 x e2|^2, which grows as V^4, far inside the float range
AMPLITUDE_MAX = 1e50

#: grid rows that the streamed paths sample, map, render and write at a time;
#: a multiple of every OpenBLAS unroll width.  A chunk's arrays take about 0.68 MiB
#: of simulate's heap and 0.49 MiB of a noisy measure's, against 1.23 and 0.85 MiB
#: at 4096 rows (tracemalloc from the first chunk, --periods 100, CSV word tables
#: built before it; 0.04 MiB more of each when the first chunk builds them)
_CHUNK_ROWS = 2048

#: (scenario, its gather tables) of the last scenario that evaluate_scenario sampled
_last_tables = (None, None)


class ScenarioError(ValueError):
    """Invalid scenario data or scenario document."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    return math.pi - (math.pi - angle) % TWO_PI


class _Frozen:
    """Base of the records that check their inputs: the fields are ``__slots__``, set once
    in ``__init__``.  Assignment and deletion raise AttributeError, ``==`` and hash go over
    the fields of the same class only, and copy and pickle restore the fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    __getstate__ = _values

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class ScenarioSegment(_Frozen):
    """One piecewise-constant phasor regime of a three-phase signal.

    ``start_angle`` is the electrical angle (omega*t) at which the segment
    begins.  ``phase_offsets`` hold only the per-phase offsets; the structural
    shifts of phases b and c are added by :func:`evaluate`.
    """

    __slots__ = ("start_angle", "amplitudes", "phase_offsets")

    def __init__(self, start_angle, amplitudes, phase_offsets):
        if len(amplitudes) != 3 or len(phase_offsets) != 3:
            raise ScenarioError("amplitudes and phase_offsets must each hold three values")
        # `or 0.0`, here and on the amplitudes, stores a negative zero as zero and every
        # other value as the float object it is; `+ 0.0` would make a new float of each
        # value, 0.7 MiB more peak over frames-batch's 3000 segments
        start_angle = float(start_angle) or 0.0
        if not math.isfinite(start_angle):
            raise ScenarioError(f"start angle must be finite, got {start_angle}")
        va, vb, vc = amplitudes
        if min(va, vb, vc) < 0.0:
            raise ScenarioError(f"negative amplitude: {tuple(amplitudes)}")
        # each comparison is false for NaN
        if not (va <= AMPLITUDE_MAX and vb <= AMPLITUDE_MAX and vc <= AMPLITUDE_MAX):
            raise ScenarioError(
                f"amplitude not finite or above {AMPLITUDE_MAX:.0e}: {tuple(amplitudes)}"
            )
        pa, pb, pc = phase_offsets
        if not (math.isfinite(pa) and math.isfinite(pb) and math.isfinite(pc)):
            raise ScenarioError(f"phase offset not finite: {tuple(phase_offsets)}")
        object.__setattr__(self, "start_angle", start_angle)
        amplitudes = float(va) or 0.0, float(vb) or 0.0, float(vc) or 0.0
        object.__setattr__(self, "amplitudes", amplitudes)
        # stored offsets live in (-pi, pi]
        phase_offsets = wrap_angle(float(pa)), wrap_angle(float(pb)), wrap_angle(float(pc))
        object.__setattr__(self, "phase_offsets", phase_offsets)


class PhasorScenario(_Frozen):
    """A fundamental frequency plus segments sorted by start angle."""

    __slots__ = ("omega", "segments")

    def __init__(self, omega, segments):
        if not 0.0 < omega < math.inf:
            raise ScenarioError(f"omega must be positive and finite, got {omega}")
        segments = tuple(segments)
        if not segments:
            raise ScenarioError("scenario needs at least one segment")
        if segments[0].start_angle != 0.0:
            raise ScenarioError("first segment must start at angle 0")
        starts = [s.start_angle for s in segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ScenarioError("segment start angles must be strictly increasing")
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "segments", segments)

    @property
    def frequency_hz(self) -> float:
        return self.omega / TWO_PI


class TransformedSeries(_Frozen):
    """A coordinate time series: angles (omega*t) and three channels.

    ``coords`` has shape (3, len(angles)); ``len(series)`` is the sample count.
    """

    __slots__ = ("angles", "coords")
    # by identity: the fields are arrays, whose == has no single truth value
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, angles, coords):
        import numpy as np

        angles = np.asarray(angles, dtype=float)
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (3, angles.size):
            raise ValueError(f"coords shape {coords.shape} does not match {angles.size} angles")
        if not (np.all(np.isfinite(angles)) and np.all(np.diff(angles) > 0.0)):
            raise ValueError("angles must be finite and strictly increasing")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.angles.size


def total_phases(segment: ScenarioSegment) -> Triple:
    """Per-phase offsets with the structural shifts folded in."""
    pa, pb, pc = segment.phase_offsets
    sa, sb, sc = STRUCTURAL_SHIFTS
    return pa + sa, pb + sb, pc + sc


def values_at(segment: ScenarioSegment, angle: float) -> Triple:
    """(v_a, v_b, v_c) of a segment at one electrical angle, as floats.

    v_k = V_k cos(angle + phi_k + s_k) with s = (0, -2pi/3, +2pi/3), from
    ``math.cos`` without numpy, in the order of locus.basis_vectors' e1 and e2.
    Sampled values come from :func:`evaluate_scenario`.
    The angle is not checked, unlike in :func:`segment_at`: NaN gives NaN
    values and an infinite angle raises math's ValueError.
    """
    va, vb, vc = segment.amplitudes
    qa, qb, qc = total_phases(segment)
    return va * math.cos(angle + qa), vb * math.cos(angle + qb), vc * math.cos(angle + qc)


def evaluate(segment: ScenarioSegment, angle) -> np.ndarray:
    """Instantaneous (v_a, v_b, v_c) of a segment at electrical angle ``angle``.

    ``angle`` may be a scalar, giving shape (3,), or a 1-D array, giving
    shape (3, n) with the phase axis first.  Both take numpy's cosine, as
    :func:`evaluate_scenario` does, so they agree with it bit for bit.
    Unlike there, angles are not checked: a NaN angle gives NaN values, and an
    infinite one NaN values with numpy's invalid-value RuntimeWarning.
    """
    import numpy as np

    theta = np.asarray(angle, dtype=float)
    amps = np.asarray(segment.amplitudes)
    phases = np.asarray(total_phases(segment))
    if theta.ndim:
        amps, phases = amps[:, np.newaxis], phases[:, np.newaxis]
    return amps * np.cos(theta + phases)


def segment_at(scenario: PhasorScenario, angle: float) -> ScenarioSegment:
    """The segment active at ``angle``: largest start_angle <= angle.

    Boundaries are closed on the left, so a switch angle belongs to the newer
    segment.  A negative or non-finite angle raises ScenarioError.
    """
    if angle < 0.0:
        raise ScenarioError(f"angle must be >= 0, got {angle}")
    if not math.isfinite(angle):
        raise ScenarioError(f"angle must be finite, got {angle}")
    starts = [s.start_angle for s in scenario.segments]
    return scenario.segments[bisect_right(starts, angle) - 1]


def _gather_tables(scenario: PhasorScenario):
    """(starts, amplitudes, phases) of the segments: a (K,) table and two (3, K) ones,
    gathered per sample by :func:`evaluate_scenario`.  A PhasorScenario is immutable,
    so the tables of the last scenario are kept, and a streamed run that samples
    one scenario a chunk at a time builds them once."""
    import numpy as np

    global _last_tables
    if _last_tables[0] is not scenario:
        segments = scenario.segments
        tables = (
            np.array([s.start_angle for s in segments]),
            np.array([s.amplitudes for s in segments]).T,
            np.array([total_phases(s) for s in segments]).T,
        )
        _last_tables = (scenario, tables)
    return _last_tables[1]


def evaluate_scenario(scenario: PhasorScenario, angles) -> np.ndarray:
    """Evaluate a scenario on an angle grid, honoring segment switches.

    Returns an array of shape (3, len(angles)), bit-identical to
    :func:`evaluate` on each sample's active segment.  Negative or non-finite
    angles raise ScenarioError, as in :func:`segment_at`.
    """
    import numpy as np

    angles = np.asarray(angles, dtype=float)
    if angles.size and angles.min() < 0.0:
        raise ScenarioError(f"angles must be >= 0, got {angles.min()}")
    # the max is NaN when any angle is
    if angles.size and not angles.max() < math.inf:
        raise ScenarioError(f"angles must be finite, got {angles.max()}")
    starts, amps, phases = _gather_tables(scenario)
    index = np.searchsorted(starts, angles, side="right") - 1
    # the same operations as evaluate; np.take gathers the same elements as
    # table[:, index], several times faster on a (3, K) table
    out = np.take(phases, index, axis=1)
    out += angles
    np.cos(out, out=out)
    out *= np.take(amps, index, axis=1)
    return out


class AngleGrid(_Frozen):
    """Uniform angle grid with step 2pi/samples_per_period covering [0, 2pi*periods].

    ``size`` rows, row k being ``float(k) * step``, made when read: an index gives one
    float, a slice an array, ``np.arange`` over its row numbers scaled by the step in
    place.  Either holds the bits of the same rows of the grid read whole, and no
    grid-size array is kept.

    Raises ScenarioError for fewer than 4 samples per period, a span that is not
    positive and finite, or a grid too large for numpy to allocate.  That check asks
    numpy for the grid's block and drops it unwritten, so the block never becomes
    resident.
    """

    __slots__ = ("size", "step")

    def __init__(self, samples_per_period: int, periods: float):
        import numpy as np

        if samples_per_period < 4:
            raise ScenarioError(
                f"samples_per_period must be at least 4, got {samples_per_period}"
            )
        if not 0.0 < periods < math.inf:
            raise ScenarioError(f"periods must be positive and finite, got {periods}")
        span = math.inf  # when a rate past the float range fails the product itself
        try:
            span = samples_per_period * periods
            size = math.ceil(span - 1e-9) + 1
            np.empty(size)
        except (OverflowError, ValueError, MemoryError) as exc:
            # past the float range or numpy's size limit, or beyond the memory at hand
            raise ScenarioError(f"cannot allocate a grid of {span:.4g} samples") from exc
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "step", TWO_PI / samples_per_period)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key):
        import numpy as np

        rows = range(self.size)[key]
        if isinstance(rows, int):
            return float(rows) * self.step
        block = np.arange(rows.start, rows.stop, rows.step, dtype=float)
        block *= self.step  # in place: no second block-size array
        return block


def sample_angles(samples_per_period: int, periods: float) -> np.ndarray:
    """The rows of ``AngleGrid(samples_per_period, periods)`` as one array; raises
    ScenarioError as AngleGrid does."""
    return AngleGrid(samples_per_period, periods)[:]


def sample_series(
    scenario: PhasorScenario, samples_per_period: int = 1000, periods: float = 1.0
) -> TransformedSeries:
    """Uniformly sampled abc coordinates of a scenario.

    The grid step is 2pi/samples_per_period and the grid covers
    [0, 2pi*periods]; for N samples per period and an integral N*periods the
    series holds N*periods + 1 samples.
    """
    angles = sample_angles(samples_per_period, periods)
    return TransformedSeries(angles, evaluate_scenario(scenario, angles))


def sample_chunks(scenario: PhasorScenario, angles):
    """The abc series of a scenario on the grid ``angles``, an array or an AngleGrid, as
    one ``(angles, coords)`` pair of arrays per _CHUNK_ROWS rows, in grid order, coords of
    shape (3, n).  Each value depends only on its own angle, so the chunks hold the rows
    of the whole series bit for bit."""
    for lo in range(0, len(angles), _CHUNK_ROWS):
        grid = angles[lo : lo + _CHUNK_ROWS]
        yield grid, evaluate_scenario(scenario, grid)


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    if key not in mapping:
        raise ScenarioError(f"missing field {key!r} in {where}")
    return mapping[key]


def _as_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json.loads accepts NaN, Infinity and -Infinity
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {number}")
    return number


def _as_triple(value, what):
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{what} must be an array of three numbers")
    return tuple(_as_number(v, what) for v in value)


def parse_scenario(text: str) -> PhasorScenario:
    """Parse a scenario JSON document.

    Expected shape::

        {"frequency_hz": 50.0,
         "segments": [{"start_periods": 0.0,
                       "amplitudes_pu": [1.0, 1.0, 1.0],
                       "phase_offsets_deg": [-50.0, -50.0, -50.0]}, ...]}

    ``start_periods`` maps to start_angle = 2pi*start_periods and the offsets
    are converted from degrees to radians.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario document is nested too deeply") from exc
    freq = _as_number(_require(doc, "frequency_hz", "scenario"), "frequency_hz")
    if not freq > 0.0:
        raise ScenarioError(f"frequency_hz must be positive, got {freq}")
    raw_segments = _require(doc, "segments", "scenario")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ScenarioError("segments must be a non-empty array")
    segments = []
    for i, raw in enumerate(raw_segments):
        where = f"segments[{i}]"
        start = _as_number(_require(raw, "start_periods", where), f"{where}.start_periods")
        if start < 0.0:
            raise ScenarioError(f"{where}.start_periods must be >= 0, got {start}")
        amplitudes = _as_triple(_require(raw, "amplitudes_pu", where), f"{where}.amplitudes_pu")
        offsets_deg = _as_triple(
            _require(raw, "phase_offsets_deg", where), f"{where}.phase_offsets_deg"
        )
        segments.append(
            ScenarioSegment(
                start_angle=TWO_PI * start,
                amplitudes=amplitudes,
                phase_offsets=tuple(math.radians(d) for d in offsets_deg),
            )
        )
    return PhasorScenario(omega=TWO_PI * freq, segments=tuple(segments))


def load_scenario(path) -> PhasorScenario:
    """Read and parse a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    return parse_scenario(text)
