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
import contextlib
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

_CSV_ROW = "%.6f,%.6f,%.6f,%.6f\n"
#: |x| below this keeps |x|*1e6 under 2**52, where one ulp is at most 0.5
_FIXED_MAX = 4.5e9


def _ascii_words(form, values=range(1000)):
    """One uint32 word per ``form % value``, each 4 ASCII bytes, spaces read as NULs."""
    import numpy as np

    text = form * len(values) % tuple(values)
    return np.frombuffer(text.replace(" ", "\0").encode("ascii"), dtype=np.uint32)


@functools.cache
def _csv_tables():
    """The word tables of _fixed_rows: units, high, fraction_high, fraction_low."""
    import numpy as np

    # one 3-digit group of the whole part: 2000*sign + value when every higher
    # group is 0 (no padding, the sign before the first digit), 2000*sign + 1000
    # + value otherwise (zero-padded, no sign)
    padded = _ascii_words("\0%03d")
    negated = _ascii_words("%4d", range(0, -1000, -1))
    units = np.concatenate([_ascii_words("%4d"), padded, negated, padded])
    units[2000] = _ascii_words("%4s", ["-0"])[0]  # "%4d" % -0 reads "   0"
    # the same above the units group, where a leading 0 shows nothing, not even the sign
    high = units.copy()
    high[[0, 2000]] = 0
    fraction_high = _ascii_words(".%03d")
    fraction_low = np.concatenate([_ascii_words("%03d,"), _ascii_words("%03d\n")])
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


def _fixed_rows(angles: np.ndarray, coords: np.ndarray) -> bytes | None:
    """CSV text of the rows ``(angles[i], *coords[:, i])``, each value as ``"%.6f" % x``
    gives it.

    Rounds |x|*1e6 to an integer count u of millionths and renders it from the word
    tables.  Below 2**52 both |x|*1e6 and u are multiples of one ulp (at most 0.5),
    and the exact product lies within half an ulp, so a distance under 0.5 proves u
    is the correctly rounded one.  u < 4.5e15, so u / 1e6 < 2**33, and half an ulp
    of that quotient (at most 4.8e-7) is less than its 1e-6 distance from the next
    integer: flooring it splits off the whole part exactly, and the same holds for
    the smaller quotients by 1e3 below.  Returns None when the rows hold a value
    where the proof fails: a non-finite value, |x| >= _FIXED_MAX, or a tie
    |x|*1e6 = k + 0.5.
    """
    import numpy as np

    scaled = np.empty((4, angles.size))  # one row per CSV column
    scaled[0] = angles
    scaled[1:] = coords
    # the max and the min are NaN when any value is, and fail the test
    if not (scaled.max() < _FIXED_MAX and -scaled.min() < _FIXED_MAX):
        return None
    sign = np.signbit(scaled) * np.int16(2000)  # where a negative value's words start
    scaled *= 1e6
    np.abs(scaled, out=scaled)
    units = np.rint(scaled)
    np.subtract(scaled, units, out=scaled)
    np.abs(scaled, out=scaled)
    if not scaled.max() < 0.5:
        return None
    whole = scaled
    np.divide(units, 1e6, out=whole)
    np.floor(whole, out=whole)
    whole *= 1e6  # exact: an integer below 2**53, and so is its quotient by 1e6
    units -= whole  # the fraction's millionths
    whole /= 1e6
    units_group, high_group, fraction_high, fraction_low = _csv_tables()
    groups = (len(str(int(whole.max()))) + 2) // 3  # of the widest whole part
    words = np.empty((angles.size, 4, groups + 2), dtype=np.uint32)
    index = np.empty(words.shape[:2], dtype=np.intp)  # of the words' (row, column) order
    column = index.T  # in the order of scaled
    # each quotient is non-negative, so the cast to index truncates it to its floor
    np.divide(units, 1e3, out=column, casting="unsafe")
    words[..., groups] = fraction_high[index]
    column *= -1000
    np.add(column, units, out=column, casting="unsafe")
    column[3] += 1000  # the last column ends in the row's newline, the others in a comma
    words[..., groups + 1] = fraction_low[index]
    # the 3-digit groups of the whole part from the units up, each zero-padded when a
    # nonzero group follows; the top one is below 1000 and never padded
    for k in range(groups - 1):
        np.divide(whole, 1e3, out=column, casting="unsafe")
        column *= -1000
        np.add(column, whole, out=column, casting="unsafe")
        column += (whole >= 1000) * np.int16(1000)
        column += sign
        words[..., groups - 1 - k] = (high_group if k else units_group)[index]
        np.divide(whole, 1e3, out=whole)
        np.floor(whole, out=whole)
    np.add(whole, sign, out=column, casting="unsafe")
    words[..., 0] = (high_group if groups > 1 else units_group)[index]
    # each array goes before the next copy of the text is made, so that at most two
    # copies are held at a time
    del scaled, whole, units, index, column, sign
    text = words.tobytes()
    del words
    return text.translate(None, b"\0")


def _write_rows(handle, angles, coords) -> None:
    """Append the CSV rows ``angles[i], *coords[:, i]`` to ``handle``, %.6f comma-separated.

    Each slice of waveform._CHUNK_ROWS rows is rendered in one call of
    :func:`_fixed_rows`; a slice it cannot prove exact is %-formatted instead.
    Both give the bytes of ``f"{x:.6f}"``, ``-0.000000`` included.
    """
    import numpy as np

    step = waveform._CHUNK_ROWS
    for lo in range(0, angles.size, step):
        rows, block = angles[lo : lo + step], coords[:, lo : lo + step]
        text = _fixed_rows(rows, block)
        if text is None:
            values = np.column_stack([rows, block.T]).ravel().tolist()
            text = (_CSV_ROW * rows.size % tuple(values)).encode("ascii")
        handle.write(text)


def write_series_csv(path, series: waveform.TransformedSeries, header: str) -> None:
    """Write a series as CSV: ``header``, then the rows of :func:`_write_rows`."""
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii") + b"\n")
        _write_rows(handle, series.angles, series.coords)


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


def _write(out, files, chunks) -> list[str]:
    """Write one CSV in ``out`` per ``(name, header)`` of ``files``, its rows those of the
    matching (3, n) block of each ``(angles, [block, ...])`` that ``chunks`` yields, and
    return the ``wrote <path>`` lines for the caller to print.

    All or nothing: each CSV is written under a temporary name and renamed once the last
    chunk is written.  On any failure, making ``out`` or computing a chunk included, the
    temporaries, the CSVs already renamed and the directories this call created are
    removed before the error propagates.
    """
    made = []  # the directories makedirs creates, innermost first
    head = os.path.abspath(out)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    paths = [os.path.join(out, name) for name, _ in files]
    temps = [os.path.join(out, f".{name}.tmp") for name, _ in files]
    done = []
    try:
        os.makedirs(out, exist_ok=True)
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(temp, "wb")) for temp in temps]
            for handle, (_, header) in zip(handles, files):
                handle.write(header.encode("ascii") + b"\n")
            for angles, blocks in chunks:
                # each block is dropped once written: the heap reuses its memory for the
                # blocks after it instead of returning it, and the next chunk starts empty
                for handle in handles:
                    _write_rows(handle, angles, blocks.pop(0))
                del angles
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            done.append(path)
    except BaseException:
        for path in temps + done:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    return [f"wrote {path}" for path in paths]


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
    """Sample the scenario on its grid a chunk of sample_chunks at a time, map and rotate
    each chunk into the requested frames in one transform.map_rotate call, and render each
    CSV's rows of the chunk in one call.  Each value depends only on its own sample, so the
    bytes are those of the whole series.  The grid is an AngleGrid, whose rows each chunk
    makes when it reads them, so memory is one chunk's working set, whatever --periods is."""
    scenario = waveform.load_scenario(args.scenario)
    periods = args.periods
    if periods is None:
        periods = scenario.segments[-1].start_angle / TWO_PI + 1.0
    index = _pick_segment(scenario, args.segment)

    # the grid is checked (exit 2) before the basis (exit 3)
    angles = waveform.AngleGrid(args.rate, periods)
    frames = args.frames
    label = orientation_label(args.orientation)
    # (wanted, name, header) of each block of a chunk: abc, then each forward's map and dq0
    outputs = [("abc" in frames, "V_abc.csv", "t,Va,Vb,Vc")]
    forwards = []
    if "locus123" in frames or "dq0" in frames:
        forwards.append(_frame(args, scenario, index)[1].forward)
        outputs.append(("locus123" in frames, f"V_123_{label}.csv", "t,V1,V2,V3"))
        outputs.append(("dq0" in frames, f"V_dq0_{label}.csv", "t,Vd,Vq,V0"))
    if "clarke" in frames:
        forwards.append(transform.clarke_matrix())
        outputs.append((True, "V_ab0_clarke.csv", "t,Valpha,Vbeta,V0"))
        outputs.append(("dq0" in frames, "V_dq0_clarke.csv", "t,Vd,Vq,V0"))

    def chunk(sampled):
        grid, abc = sampled
        pairs = transform.map_rotate(grid, abc, forwards) if forwards else []
        blocks = [abc, *(block for pair in pairs for block in pair)]
        return grid, [block for block, (wanted, _, _) in zip(blocks, outputs) if wanted]

    files = [(name, header) for wanted, name, header in outputs if wanted]
    print(*_write(args.out, files, map(chunk, waveform.sample_chunks(scenario, angles))), sep="\n")
    return 0


def cmd_measure(args) -> int:
    """Sample the grid a chunk of sample_chunks at a time, add each chunk's noise from the
    run's one default_rng(seed), and write the CSV as _write takes the chunks.  Each chunk
    copies its rows of stream_window's slice, around --t1-angle and a quarter period
    later, and the chunk that completes them estimates the frame before it is written:
    a rejected estimate (exit 3) stops the stream there, and _write leaves no output.
    The grid and the window are checked (exit 2, then exit 4) before --out is made.
    Each value and each row's noise draws depend only on the row, so the bytes are
    those of the whole series.  The grid is an AngleGrid, whose rows each chunk makes
    when it reads them, so memory does not grow with --periods."""
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
    # the grid is checked (exit 2, then exit 4) before any sample is taken
    angles = waveform.AngleGrid(args.rate, args.periods)
    rows = locus.stream_window(angles, args.t1_angle)
    # grid row k gets draws 3k..3k+2; a noiseless run makes no generator
    rng = np.random.default_rng(args.seed) if args.noise > 0.0 else None
    deviation = None

    def chunks():
        nonlocal deviation
        window = np.empty((3, rows.stop - rows.start))  # the noisy abc of rows
        stop = 0  # rows sampled so far
        for grid, abc in waveform.sample_chunks(scenario, angles):
            if rng is not None:
                np.add(abc, rng.normal(0.0, args.noise, (grid.size, 3)).T, out=abc)
            start, stop = stop, stop + grid.size
            lo, hi = max(start, rows.start), min(stop, rows.stop)
            if lo < hi:
                window[:, lo - rows.start : hi - rows.start] = abc[:, lo - start : hi - start]
            if start < rows.stop <= stop:
                # the grid's rows read again are the bits that the chunks read
                e1, e2 = locus.basis_from_window(angles[rows], window, args.t1_angle)
                del window  # let go before the rest of the write
                estimate = transform.assemble(locus.LocusBasis(e1, e2, args.t1_angle))
                # the reference probes come from the kernel that made the samples
                probes = [args.t1_angle, args.t1_angle + 0.5 * math.pi]
                exact = waveform.evaluate_scenario(scenario, probes)
                analytic = transform.assemble(locus.LocusBasis(*exact.T, args.t1_angle))
                deviation = float(np.max(np.abs(estimate.forward - analytic.forward)))
            yield grid, [abc]

    wrote = _write(args.out, [("V_abc_measured.csv", "t,Va,Vb,Vc")], chunks())
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
    except MemoryError as exc:  # past AngleGrid's size check: a gather table, the noise draw
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
