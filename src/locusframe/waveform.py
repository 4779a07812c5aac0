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
from dataclasses import dataclass
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


class ScenarioError(ValueError):
    """Invalid scenario data or scenario document."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    return math.pi - (math.pi - angle) % TWO_PI


@dataclass(frozen=True)
class ScenarioSegment:
    """One piecewise-constant phasor regime of a three-phase signal.

    ``start_angle`` is the electrical angle (omega*t) at which the segment
    begins.  ``phase_offsets`` hold only the per-phase offsets; the structural
    shifts of phases b and c are added by :func:`evaluate`.
    """

    start_angle: float
    amplitudes: tuple[float, float, float]
    phase_offsets: tuple[float, float, float]

    def __post_init__(self):
        if len(self.amplitudes) != 3 or len(self.phase_offsets) != 3:
            raise ScenarioError("amplitudes and phase_offsets must each hold three values")
        object.__setattr__(self, "start_angle", float(self.start_angle))
        if not math.isfinite(self.start_angle):
            raise ScenarioError(f"start angle must be finite, got {self.start_angle}")
        if min(self.amplitudes) < 0.0:
            raise ScenarioError(f"negative amplitude: {tuple(self.amplitudes)}")
        if not all(a <= AMPLITUDE_MAX for a in self.amplitudes):
            raise ScenarioError(
                f"amplitude not finite or above {AMPLITUDE_MAX:.0e}: {tuple(self.amplitudes)}"
            )
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        if not all(math.isfinite(p) for p in self.phase_offsets):
            raise ScenarioError(f"phase offset not finite: {tuple(self.phase_offsets)}")
        # stored offsets live in (-pi, pi]
        object.__setattr__(
            self, "phase_offsets", tuple(wrap_angle(float(p)) for p in self.phase_offsets)
        )


@dataclass(frozen=True)
class PhasorScenario:
    """A fundamental frequency plus segments sorted by start angle."""

    omega: float
    segments: tuple[ScenarioSegment, ...]

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ScenarioError(f"omega must be positive and finite, got {self.omega}")
        segments = tuple(self.segments)
        if not segments:
            raise ScenarioError("scenario needs at least one segment")
        if segments[0].start_angle != 0.0:
            raise ScenarioError("first segment must start at angle 0")
        starts = [s.start_angle for s in segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ScenarioError("segment start angles must be strictly increasing")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "segments", segments)

    @property
    def frequency_hz(self) -> float:
        return self.omega / TWO_PI


@dataclass(frozen=True)
class TransformedSeries:
    """A coordinate time series: angles (omega*t) and three channels.

    ``coords`` has shape (3, len(angles)); ``len(series)`` is the sample count.
    """

    angles: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        import numpy as np

        angles = np.asarray(self.angles, dtype=float)
        coords = np.asarray(self.coords, dtype=float)
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

    v_k = V_k cos(angle + phi_k + s_k) with s = (0, -2pi/3, +2pi/3).
    """
    va, vb, vc = segment.amplitudes
    qa, qb, qc = total_phases(segment)
    return va * math.cos(angle + qa), vb * math.cos(angle + qb), vc * math.cos(angle + qc)


def evaluate(segment: ScenarioSegment, angle) -> np.ndarray:
    """Instantaneous (v_a, v_b, v_c) of a segment at electrical angle ``angle``.

    ``angle`` may be a scalar, giving :func:`values_at` as an array, or a 1-D
    array; for arrays the phase axis comes first and the result has shape
    (3, n).
    """
    import numpy as np

    theta = np.asarray(angle, dtype=float)
    if theta.ndim == 0:
        return np.array(values_at(segment, float(theta)))
    amps = np.asarray(segment.amplitudes)
    phases = np.asarray(total_phases(segment))
    return amps[:, np.newaxis] * np.cos(theta[np.newaxis, :] + phases[:, np.newaxis])


def segment_at(scenario: PhasorScenario, angle: float) -> ScenarioSegment:
    """The segment active at ``angle``: largest start_angle <= angle.

    Boundaries are closed on the left, so a switch angle belongs to the newer
    segment.
    """
    if angle < 0.0:
        raise ScenarioError(f"angle must be >= 0, got {angle}")
    starts = [s.start_angle for s in scenario.segments]
    return scenario.segments[bisect_right(starts, angle) - 1]


def evaluate_scenario(scenario: PhasorScenario, angles) -> np.ndarray:
    """Evaluate a scenario on an angle grid, honoring segment switches.

    Returns an array of shape (3, len(angles)), bit-identical to
    :func:`evaluate` on each sample's active segment.  Negative angles raise
    ScenarioError, as in :func:`segment_at`.
    """
    import numpy as np

    angles = np.asarray(angles, dtype=float)
    if angles.size and angles.min() < 0.0:
        raise ScenarioError(f"angles must be >= 0, got {angles.min()}")
    segments = scenario.segments
    starts = np.array([s.start_angle for s in segments])
    index = np.searchsorted(starts, angles, side="right") - 1
    # (3, K) tables gathered per sample; the same operations as evaluate
    amps = np.array([s.amplitudes for s in segments]).T
    phases = np.array([total_phases(s) for s in segments]).T
    out = phases[:, index]
    out += angles
    np.cos(out, out=out)
    out *= amps[:, index]
    return out


def sample_angles(samples_per_period: int, periods: float) -> np.ndarray:
    """Uniform angle grid with step 2pi/samples_per_period covering [0, 2pi*periods].

    Raises ScenarioError for fewer than 4 samples per period, a span that is
    not positive and finite, or a grid too large for numpy to allocate.
    """
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
        return np.arange(math.ceil(span - 1e-9) + 1) * (TWO_PI / samples_per_period)
    except (OverflowError, ValueError, MemoryError) as exc:
        # past the float range or numpy's size limit, or beyond the memory at hand
        raise ScenarioError(f"cannot allocate a grid of {span:.4g} samples") from exc


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
