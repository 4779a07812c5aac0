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
import gc
import math
import os
import sys

# transform and the CSV engine (csvout) are imported by the subcommands that run them,
# so validate compiles neither
from . import locus, waveform
from .locus import MAX_NORM, PHASE_A_PEAK
from .waveform import TWO_PI, ScenarioError

#: frame tokens accepted by simulate --frames
SIMULATE_FRAMES = ("abc", "locus123", "clarke", "dq0")

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


def write_series_csv(path, series: waveform.TransformedSeries, header: str) -> None:
    """Write a series as CSV, ``header`` then its rows, all or nothing: one csvout._write
    of the series in slices of waveform._CHUNK_ROWS rows."""
    from . import csvout

    angles, coords, step = series.angles, series.coords, waveform._CHUNK_ROWS
    chunks = ((angles[lo : lo + step], [coords[:, lo : lo + step]])
              for lo in range(0, angles.size, step))
    csvout._write(os.path.dirname(path) or ".", [(os.path.basename(path), header)], chunks)


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


def cmd_validate(args) -> list[str]:
    """The lines of validate's report: the scenario, then one line per segment."""
    scenario = waveform.load_scenario(args.scenario)
    lines = [f"scenario: {_number(scenario.frequency_hz)} Hz, {len(scenario.segments)} segment(s)"]
    for k, segment in enumerate(scenario.segments, start=1):
        amps = " ".join(_number(a) for a in segment.amplitudes)
        offs = " ".join(f"{math.degrees(p):.6f}" for p in segment.phase_offsets)
        metric, degenerate = _segment_degeneracy(segment)
        flag = "  [degenerate]" if degenerate else ""
        lines.append(
            f"  segment {k}: start {_number(segment.start_angle / TWO_PI)} periods, "
            f"amplitudes {amps}, offsets_deg {offs}, degeneracy {metric:.6f}{flag}"
        )
    return lines


def _frame(args, scenario, index: int):
    """(basis, frame) of segment ``index`` under --orientation and --normalized."""
    from . import transform

    basis = locus.build_basis(scenario.segments[index], args.orientation)
    return basis, transform.assemble(basis, normalized=args.normalized)


def cmd_matrix(args) -> list[str]:
    """The lines of matrix's report: the segment's frame, its forward and inverse rows."""
    scenario = waveform.load_scenario(args.scenario)
    index = _pick_segment(scenario, args.segment)
    basis, frame = _frame(args, scenario, index)
    suffix = ", normalized" if args.normalized else ""
    (n1, n2), g = basis.norms, basis.degeneracy
    return [
        f"segment {index + 1}, orientation {orientation_label(args.orientation)}{suffix}",
        f"theta_o = {frame.theta_o:.6f} rad",
        f"|e1| = {_number(n1)}  |e2| = {_number(n2)}  degeneracy = {g:.6f}",
        "forward:", *matrix_lines(frame.rows), "inverse:", *matrix_lines(zip(*frame.columns)),
    ]


def cmd_simulate(args) -> list[str]:
    """Sample the scenario on its grid a chunk of sample_chunks at a time, map and rotate
    each chunk into the requested frames in one transform.map_rotate call, and render each
    CSV's rows of the chunk in one call.  Each value depends only on its own sample, so the
    bytes are those of the whole series.  The grid is an AngleGrid, whose rows each chunk
    makes when it reads them, so memory is one chunk's working set, whatever --periods is."""
    from . import csvout, transform

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
    return csvout._write(args.out, files, map(chunk, waveform.sample_chunks(scenario, angles)))


def cmd_measure(args) -> list[str]:
    """Sample the grid a chunk of sample_chunks at a time, add each chunk's noise from the
    run's one default_rng(seed), and write the CSV as csvout._write takes the chunks.
    Each chunk copies its rows of stream_window's slice, around --t1-angle and a quarter
    period later, and the chunk that completes them estimates the frame before it is
    written: a rejected estimate (exit 3) stops the stream there, and csvout._write leaves
    no output.
    The grid and the window are checked (exit 2, then exit 4) before --out is made.
    Each value and each row's noise draws depend only on the row, so the bytes are
    those of the whole series.  The grid is an AngleGrid, whose rows each chunk makes
    when it reads them, so memory does not grow with --periods."""
    from . import csvout, transform

    import numpy as np  # after transform, the import order of the measured peaks

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

    wrote = csvout._write(args.out, [("V_abc_measured.csv", "t,Va,Vb,Vc")], chunks())
    return [
        f"samples per period: {args.rate}",
        f"t1 angle: {_number(args.t1_angle)} rad",
        f"noise sigma: {_number(args.noise)} (seed {args.seed})",
        *wrote, f"max forward deviation: {deviation:.6e}",
    ]


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with one ``error:`` line and exit 2, no usage block;
    subparsers inherit it."""

    def error(self, message):
        _report(message)
        self.exit(2)

    def print_help(self, file=None):
        # argparse drops an OSError of this write; raised, main reports it as any other
        _emit(file or sys.stdout, self.format_help())


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
    try:
        args = build_parser().parse_args(argv)  # an undeliverable --help raises OSError
        # the report in one write: unbuffered, a print makes a call per argument and separator
        _emit(sys.stdout, "\n".join(args.func(args)) + "\n")
        return 0
    except (ScenarioError, OSError, locus.LocusError) as exc:
        _report(str(exc))
        if isinstance(exc, locus.MeasurementError):
            return 4
        return 3 if isinstance(exc, locus.LocusError) else 2
    except MemoryError as exc:  # past AngleGrid's size check: a gather table, the noise draw
        _report(str(exc) or "out of memory")
        return 2


def _emit(stream, text: str) -> None:
    """Write ``text`` to ``stream`` in one call; a None stream (fd closed at start) drops it."""
    if stream is not None:
        stream.write(text)


def _report(message: str) -> None:
    """Write ``error: <message>`` on stderr; a stderr that cannot take it changes no exit code."""
    with contextlib.suppress(OSError):
        _emit(sys.stderr, f"error: {message}\n")


def _flush(stream) -> OSError | None:
    """Flush ``stream`` and return None, or the OSError of the flush, after pointing the
    stream's fd at os.devnull, so the interpreter's own flush at exit cannot fail again."""
    if stream is None:  # None when the process started with the fd closed
        return None
    try:
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


#: CPython's own hash modules, which hashlib, hmac and secrets fall back on when OpenSSL's
#: _hashlib does not import (_sha256 and _sha512 are one _sha2 from Python 3.12)
_BUILTIN_HASHES = (
    "_md5",
    "_sha1",
    *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
    "_blake2",
    "_sha3",
)


def _keep_openssl_out() -> None:
    """Make ``import _hashlib`` fail in this process, if the interpreter has its own hashes.

    numpy.random imports secrets, and with it hmac and hashlib, only to seed an unseeded
    generator from OS entropy, and measure seeds the one it makes; without _hashlib the
    three take CPython's hash modules and OpenSSL is never loaded.  An interpreter that
    lacks one of them (a FIPS-style build that keeps only blake2) keeps OpenSSL, since
    hashlib would log each hash it cannot build.  find_spec gives None for a name whose
    sys.modules entry is None, so a module blocked that way counts as missing.
    """
    from importlib.util import find_spec

    if all(find_spec(name) for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)


def run():
    """Process entry of ``locusframe`` and ``python -m locusframe.cli``: exit with main's code.

    OpenSSL is kept out of the process first (``_keep_openssl_out``), which takes about
    3.4 MiB off a noisy measure's peak and leaves its noise as it was.  Output still
    buffered on stdout is flushed after main returned or argparse exited (--help, a
    rejected argument), so a closed or full stdout is one ``error:`` line and exit 2
    whether or not stdout is buffered.  stderr is flushed after it: one that cannot
    take its report keeps the exit code.  The heap is frozen last: the full collections
    of interpreter shutdown skip every object main left, while atexit handlers, the
    interpreter's flush and the exit code are as before.  main itself blocks and freezes
    nothing, so in-process callers keep their hashlib and normal collection.
    """
    _keep_openssl_out()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    error = _flush(sys.stdout)
    if error is not None:
        _report(str(error))
        code = 2
    _flush(sys.stderr)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
