"""Command-line front end for scenario validation, matrices, and pipelines.

Subcommands:

* ``validate``: parse a scenario file and summarize it.
* ``matrix``: print the forward and inverse frame matrices for one segment.
* ``simulate``: run the transform pipelines over a sampled grid, write CSVs.
* ``measure``: estimate the frame matrix from sampled data and report the
  deviation from the analytic one.

Exit codes: 0 success, 2 validation error, 3 degenerate locus, 4 measurement
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import TYPE_CHECKING

from . import locus, transform, waveform
from .locus import MAX_NORM, PHASE_A_PEAK
from .waveform import TWO_PI, ScenarioError

if TYPE_CHECKING:
    import numpy as np

#: frame tokens accepted by simulate --frames
SIMULATE_FRAMES = ("abc", "locus123", "clarke", "dq0")

#: rows rendered per block in write_series_csv
_CSV_BLOCK_ROWS = 4096
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f\n"
#: |x| below this keeps |x|*1e6 under 2**52, where one ulp is at most 0.5
_FIXED_MAX = 4.5e9


def _ascii_words(texts):
    """One uint32 word per text of at most 4 ASCII bytes, NUL-padded on the left."""
    import numpy as np

    data = "".join(text.rjust(4, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, dtype=np.uint32)


@functools.cache
def _csv_tables():
    """The word tables of _fixed_rows: units, high, fraction_high, fraction_low."""
    import numpy as np

    digits = [f"{g:03d}" for g in range(1000)]
    # one 3-digit group of the whole part: 2000*sign + value when every higher
    # group is 0 (no padding, the sign before the first digit), 2000*sign + 1000
    # + value otherwise (zero-padded, no sign)
    units = _ascii_words(
        text for sign in ("", "-") for text in [sign + str(g) for g in range(1000)] + digits
    )
    # the same above the units group, where a leading 0 shows nothing, not even the sign
    high = units.copy()
    high[[0, 2000]] = 0
    fraction_high = _ascii_words("." + text for text in digits)
    fraction_low = _ascii_words(text + end for end in ",\n" for text in digits)
    return units, high, fraction_high, fraction_low


def parse_orientation(text: str):
    """argparse type for --orientation: a named choice or ``angle:<radians>``."""
    if text in (PHASE_A_PEAK, MAX_NORM):
        return text
    if text.startswith("angle:"):
        try:
            angle = float(text[len("angle:"):])
        except ValueError:
            angle = math.nan
        if not math.isfinite(angle):
            raise argparse.ArgumentTypeError(f"bad angle in {text!r}")
        return angle
    raise argparse.ArgumentTypeError(
        f"orientation must be {PHASE_A_PEAK}, {MAX_NORM}, or angle:<radians>, got {text!r}"
    )


def parse_frames(text: str):
    """argparse type for --frames: comma-separated subset of SIMULATE_FRAMES."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("no frames requested")
    for token in tokens:
        if token not in SIMULATE_FRAMES:
            raise argparse.ArgumentTypeError(
                f"unknown frame {token!r}; choose from {', '.join(SIMULATE_FRAMES)}"
            )
    return tokens


def orientation_label(orientation) -> str:
    """File-name label of an orientation choice.

    ``classical`` for the phase-a peak, ``desired`` for max-norm, and
    ``angle<millirad>`` for an explicit angle, e.g. ``angle-1048``.
    """
    if orientation == PHASE_A_PEAK:
        return "classical"
    if orientation == MAX_NORM:
        return "desired"
    millirad = round(waveform.wrap_angle(float(orientation)) * 1000.0)
    return f"angle{millirad}"


def _number(value: float, fixed: str = "%.6f", wide: str = "%.6e") -> str:
    """``value`` in the ``fixed`` format, or in ``wide`` at a magnitude of 1e6 or more."""
    return (wide if abs(value) >= 1e6 else fixed) % value


def matrix_lines(matrix) -> list[str]:
    """Rows of a 3x3 matrix, each entry sign-aligned with 3 decimals after a space
    (in e-notation at a magnitude of 1e6 or more)."""
    return ["".join(" " + _number(entry, "%7.3f", "%.3e") for entry in row) for row in matrix]


def _fixed_rows(rows: np.ndarray) -> bytes | None:
    """CSV text of a (n, 4) block, each value as ``"%.6f" % x`` gives it.

    Rounds |x|*1e6 to an integer count of millionths and renders it from the
    word tables.  Below 2**52 both |x|*1e6 and that integer are multiples of
    one ulp (at most 0.5), and the exact product lies within half an ulp, so
    a distance under 0.5 proves the integer is the correctly rounded one.
    Returns None when the block holds a value where that proof fails: a
    non-finite value, |x| >= _FIXED_MAX, or a tie |x|*1e6 = k + 0.5.
    """
    import numpy as np

    magnitude = np.abs(rows)
    if not np.all(magnitude < _FIXED_MAX):  # NaN fails the test too
        return None
    scaled = magnitude * 1e6
    units = np.rint(scaled)
    if not np.all(np.abs(scaled - units) < 0.5):
        return None
    units_group, high_group, fraction_high, fraction_low = _csv_tables()
    whole, fraction = np.divmod(units.astype(np.int64), 1_000_000)
    groups = (len(str(whole.max())) + 2) // 3  # of the widest whole part
    sign = np.signbit(rows) * 2000
    words = np.empty(rows.shape + (groups + 2,), dtype=np.uint32)
    above = whole  # the whole part without the groups rendered so far
    for k in range(groups):
        table = high_group if k else units_group
        words[..., groups - 1 - k] = table[sign + above % 1000 + 1000 * (above >= 1000)]
        above = above // 1000
    high, low = np.divmod(fraction, 1000)
    low[:, 3] += 1000  # the last column ends in the row's newline, the others in a comma
    words[..., groups] = fraction_high[high]
    words[..., groups + 1] = fraction_low[low]
    return words.tobytes().translate(None, b"\0")


def write_series_csv(path, series: waveform.TransformedSeries, header: str) -> None:
    """Write a series as CSV: ``header``, then %.6f values, comma-separated.

    Rows are rendered a block at a time by :func:`_fixed_rows`; a block it
    cannot prove exact is %-formatted instead.  Both give the bytes of
    ``f"{x:.6f}"``, ``-0.000000`` included.
    """
    import numpy as np

    with open(path, "wb") as handle:
        handle.write(header.encode("ascii") + b"\n")
        for lo in range(0, len(series), _CSV_BLOCK_ROWS):
            hi = lo + _CSV_BLOCK_ROWS
            rows = np.vstack([series.angles[lo:hi], series.coords[:, lo:hi]]).T
            text = _fixed_rows(rows)
            if text is None:
                text = (_CSV_ROW * len(rows) % tuple(rows.ravel().tolist())).encode("ascii")
            handle.write(text)


def _segment_degeneracy(segment):
    # (degeneracy, whether the basis gate rejects the segment) at the phase-a peak, or
    # at 0 where phase a has none; the gate's g does not depend on the orientation
    probe = PHASE_A_PEAK if segment.amplitudes[0] else 0.0
    try:
        return locus.build_basis(segment, probe).degeneracy, False
    except locus.DegenerateLocusError as exc:
        return exc.degeneracy, True


def _pick_segment(scenario, index_1based: int | None):
    """Segment by 1-based CLI index; None means the last segment."""
    count = len(scenario.segments)
    if index_1based is None:
        return count - 1
    if not 1 <= index_1based <= count:
        raise ScenarioError(
            f"segment index {index_1based} out of range 1..{count}"
        )
    return index_1based - 1


def cmd_validate(args) -> int:
    scenario = waveform.load_scenario(args.scenario)
    print(f"scenario: {_number(scenario.frequency_hz)} Hz, {len(scenario.segments)} segment(s)")
    for k, segment in enumerate(scenario.segments, start=1):
        amps = " ".join(_number(a) for a in segment.amplitudes)
        offs = " ".join(f"{math.degrees(p):.6f}" for p in segment.phase_offsets)
        metric, degenerate = _segment_degeneracy(segment)
        flag = "  [degenerate]" if degenerate else ""
        print(
            f"  segment {k}: start {_number(segment.start_angle / TWO_PI)} periods, "
            f"amplitudes {amps}, offsets_deg {offs}, degeneracy {metric:.6f}{flag}"
        )
    return 0


def _frame(args, scenario, index: int):
    """(basis, frame) of segment ``index`` under --orientation and --normalized."""
    basis = locus.build_basis(scenario.segments[index], args.orientation)
    return basis, transform.assemble(basis, normalized=args.normalized)


def _write(out, outputs) -> list[str]:
    """Write each ``(name, header, series)`` of ``outputs`` as a CSV in ``out`` and return
    the ``wrote <path>`` lines, for the caller to print once every write has succeeded.
    Called after every computation, so a rejected run leaves no directory."""
    os.makedirs(out, exist_ok=True)
    wrote = []
    for name, header, series in outputs:
        path = os.path.join(out, name)
        write_series_csv(path, series, header)
        wrote.append(f"wrote {path}")
    return wrote


def cmd_matrix(args) -> int:
    scenario = waveform.load_scenario(args.scenario)
    index = _pick_segment(scenario, args.segment)
    basis, frame = _frame(args, scenario, index)
    suffix = ", normalized" if args.normalized else ""
    print(f"segment {index + 1}, orientation {orientation_label(args.orientation)}{suffix}")
    print(f"theta_o = {frame.theta_o:.6f} rad")
    n1, n2 = basis.norms
    print(f"|e1| = {_number(n1)}  |e2| = {_number(n2)}  degeneracy = {basis.degeneracy:.6f}")
    for title, rows in (("forward:", frame.rows), ("inverse:", zip(*frame.columns))):
        print(title, *matrix_lines(rows), sep="\n")
    return 0


def cmd_simulate(args) -> int:
    scenario = waveform.load_scenario(args.scenario)
    periods = args.periods
    if periods is None:
        periods = scenario.segments[-1].start_angle / TWO_PI + 1.0
    index = _pick_segment(scenario, args.segment)

    # the grid is checked (exit 2) before the basis (exit 3)
    abc = waveform.sample_series(scenario, args.rate, periods)
    outputs = []
    if "abc" in args.frames:
        outputs.append(("V_abc.csv", "t,Va,Vb,Vc", abc))
    if "locus123" in args.frames or "dq0" in args.frames:
        _, frame = _frame(args, scenario, index)
        series123, dq0 = transform.pipeline_locus(abc, frame)
        label = orientation_label(args.orientation)
        if "locus123" in args.frames:
            outputs.append((f"V_123_{label}.csv", "t,V1,V2,V3", series123))
        if "dq0" in args.frames:
            outputs.append((f"V_dq0_{label}.csv", "t,Vd,Vq,V0", dq0))
    if "clarke" in args.frames:
        ab0, clarke_dq0 = transform.pipeline_clarke_park(abc)
        outputs.append(("V_ab0_clarke.csv", "t,Valpha,Vbeta,V0", ab0))
        if "dq0" in args.frames:
            outputs.append(("V_dq0_clarke.csv", "t,Vd,Vq,V0", clarke_dq0))

    print(*_write(args.out, outputs), sep="\n")
    return 0


def cmd_measure(args) -> int:
    import numpy as np

    if not math.isfinite(args.t1_angle):
        raise ScenarioError(f"t1 angle must be finite, got {args.t1_angle}")
    if args.t1_angle < 0.0:
        raise ScenarioError(f"t1 angle must be >= 0, got {args.t1_angle}")
    if not 0.0 <= args.noise < math.inf:
        raise ScenarioError(f"noise sigma must be >= 0 and finite, got {args.noise}")
    if args.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {args.seed}")
    scenario = waveform.load_scenario(args.scenario)
    series = waveform.sample_series(scenario, args.rate, args.periods)
    if args.noise > 0.0:
        # one sample-major draw: sample i gets draws 3i..3i+2
        rng = np.random.default_rng(args.seed)
        noise = rng.normal(0.0, args.noise, size=(len(series), 3))
        series = waveform.TransformedSeries(series.angles, series.coords + noise.T)

    e1, e2 = locus.basis_from_stream(series, args.t1_angle)
    measured = transform.assemble(locus.LocusBasis(e1, e2, args.t1_angle))

    # the reference probes come from the kernel that made the samples
    exact = waveform.evaluate_scenario(scenario, [args.t1_angle, args.t1_angle + 0.5 * math.pi])
    analytic = transform.assemble(locus.LocusBasis(*exact.T, args.t1_angle))
    deviation = float(np.max(np.abs(measured.forward - analytic.forward)))

    wrote = _write(args.out, [("V_abc_measured.csv", "t,Va,Vb,Vc", series)])
    print(
        f"samples per period: {args.rate}",
        f"t1 angle: {_number(args.t1_angle)} rad",
        f"noise sigma: {_number(args.noise)} (seed {args.seed})",
        *wrote,
        f"max forward deviation: {deviation:.6e}",
        sep="\n",
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with one ``error:`` line and exit 2, no usage block;
    subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _subcommand(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """The subparser ``name``: it takes a scenario file and runs ``func``."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("scenario", help="scenario JSON file")
    parser.set_defaults(func=func)
    return parser


def _frame_options(parser, segment, segment_help: str) -> None:
    """--orientation, --segment and --normalized, as matrix and simulate read them;
    ``segment`` is the --segment default, None for the last segment."""
    parser.add_argument(
        "--orientation",
        type=parse_orientation,
        default=PHASE_A_PEAK,
        help="phase-a-peak, max-norm, or angle:<radians> (default phase-a-peak)",
    )
    parser.add_argument("--segment", type=int, default=segment, help=segment_help)
    parser.add_argument(
        "--normalized",
        action="store_true",
        help="rescale the in-plane basis vectors to unit norm",
    )


def _sampling_options(parser, periods, periods_help: str) -> None:
    """--rate, --periods and --out, as simulate and measure read them; ``periods`` is
    the --periods default, None to cover every segment plus one period."""
    parser.add_argument("--rate", type=int, default=1000, help="samples per period (default 1000)")
    parser.add_argument("--periods", type=float, default=periods, help=periods_help)
    parser.add_argument("--out", default=".", help="output directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="locusframe",
        description="Locus-aligned reference-frame transforms for three-phase scenarios.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _subcommand(sub, "validate", "parse and summarize a scenario file", cmd_validate)

    p_matrix = _subcommand(sub, "matrix", "print the frame matrices for one segment", cmd_matrix)
    _frame_options(p_matrix, 1, "1-based segment index (default 1)")

    p_simulate = _subcommand(sub, "simulate", "run the pipelines and write CSV files", cmd_simulate)
    p_simulate.add_argument(
        "--frames",
        type=parse_frames,
        default=list(SIMULATE_FRAMES),
        help="comma-separated subset of abc,locus123,clarke,dq0 (default all)",
    )
    _frame_options(
        p_simulate, None, "1-based index of the segment the basis is built from (default: last)"
    )
    _sampling_options(
        p_simulate, None, "periods to simulate (default: cover every segment plus one period)"
    )

    p_measure = _subcommand(
        sub, "measure", "estimate the frame matrix from sampled data", cmd_measure
    )
    _sampling_options(p_measure, 1.0, "periods to sample (default 1)")
    t1_help = "angle of the first basis measurement in radians (default 0)"
    p_measure.add_argument("--t1-angle", type=float, default=0.0, help=t1_help)
    noise_help = "Gaussian noise standard deviation, per unit (default 0)"
    p_measure.add_argument("--noise", type=float, default=0.0, help=noise_help)
    p_measure.add_argument("--seed", type=int, default=0, help="noise generator seed (default 0)")
    return parser


def main(argv=None) -> int:
    # 3x3 products gain nothing from OpenBLAS's thread pool; a value already set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, locus.LocusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, locus.MeasurementError):
            return 4
        return 3 if isinstance(exc, locus.LocusError) else 2
    except MemoryError as exc:  # past sample_angles' check: a gather table, the noise draw
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
