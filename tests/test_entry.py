"""The process entry ``cli.run``: the console script and ``python -m locusframe.cli``.

``run`` exits with ``main``'s code, or argparse's, after flushing stdout and stderr and
freezing the heap, so interpreter shutdown skips its full collections; ``main`` freezes
nothing.
"""

import ast
import errno
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locusframe import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SUBCOMMANDS = [
    ["validate"],
    ["matrix"],
    ["simulate", "--out", "{out}"],
    ["measure", "--noise", "0.01", "--out", "{out}"],
]


def _env(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


EXIT_CODES = pytest.mark.parametrize(
    "scenario, argv, expected",
    [
        ("scenario_path", ["validate"], 0),
        (None, ["validate", "no-such-file.json"], 2),
        ("degenerate_scenario_path", ["matrix"], 3),
        ("scenario_path", ["measure", "--t1-angle", "700", "--out", "{out}"], 4),
        # argparse's exit from inside main
        (None, ["matrix", "--no-such-option"], 2),
    ],
    ids=["exit 0", "exit 2", "exit 3", "exit 4", "rejected argument"],
)


def _args(request, tmp_path, scenario, argv):
    """``argv`` with the ``scenario`` fixture's path after the subcommand, if any, and
    ``{out}`` pointing into ``tmp_path``."""
    path = [str(request.getfixturevalue(scenario))] if scenario else []
    return [argv[0], *path, *(a.format(out=tmp_path / "out") for a in argv[1:])]


def _main_in_process(args) -> int:
    """``cli.main(args)``'s code, or argparse's exit code."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


@EXIT_CODES
def test_main_block_passes_the_exit_code_and_freezes(request, tmp_path, scenario, argv, expected):
    # the module run as __main__, as `python -m locusframe.cli` runs it
    wrapper = (
        "import gc, runpy, sys\n"
        "sys.argv[0] = 'locusframe'\n"
        "try:\n"
        "    runpy.run_module('locusframe.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count() > 0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", wrapper, *_args(request, tmp_path, scenario, argv)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_env(True),
        check=True,
    )
    assert done.stdout.splitlines()[-1] == f"exit {expected} True"
    assert (done.stderr == "") == (expected == 0)


def test_main_in_process_freezes_nothing(capsys, scenario_path, tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["simulate", str(scenario_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def _measured(out, stdout):
    """(stdout with ``out`` as OUT, {CSV name: bytes}) of a measure run into ``out``."""
    csvs = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return stdout.replace(os.fsencode(out), b"OUT"), csvs


@pytest.mark.parametrize("seed", ["7", "2024"])
def test_noise_does_not_depend_on_the_hash_backend(capsysbinary, scenario_path, tmp_path, seed):
    # run keeps OpenSSL's _hashlib out of its process, so numpy.random imports hashlib on
    # CPython's own hashes there; a seeded generator draws the same noise as in this
    # process, whose hashlib is OpenSSL's.  With the builtin hashes blocked but blake2 (a
    # FIPS-style build), run keeps OpenSSL and hashlib logs no missing hash.
    pytest.importorskip("_hashlib")
    argv = ["measure", str(scenario_path), "--periods", "3", "--noise", "0.05", "--seed", seed]
    assert _main_in_process([*argv, "--out", str(tmp_path / "main")]) == 0
    expected = _measured(tmp_path / "main", capsysbinary.readouterr().out)
    fips = [name for name in cli._BUILTIN_HASHES if name != "_blake2"]
    for blocked, openssl in (([], False), (fips, True)):
        wrapper = (
            "import atexit, runpy, sys\n"
            f"sys.modules.update(dict.fromkeys({blocked!r}))\n"
            "atexit.register(lambda: print('_hashlib', sys.modules.get('_hashlib') is not None))\n"
            "runpy.run_module('locusframe.cli', run_name='__main__', alter_sys=True)\n"
        )
        out = tmp_path / f"openssl-{openssl}"
        done = subprocess.run(
            [sys.executable, "-c", wrapper, *argv, "--out", str(out)],
            capture_output=True,
            env=_env(False),
        )
        assert (done.returncode, done.stderr) == (0, b"")
        report, _, last = done.stdout.rstrip(b"\n").rpartition(b"\n")
        assert last == f"_hashlib {openssl}".encode()
        assert _measured(out, report + b"\n") == expected


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["locusframe"]
    module, _, name = target.partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in block.body] == [f"{name}()"]
    assert callable(getattr(cli, name))


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "stdout, code",
    [(_closed_pipe, errno.EPIPE), (_full_device, errno.ENOSPC)],
    ids=["closed pipe", "/dev/full"],
)
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_undeliverable_stdout_is_one_error_line(scenario_path, tmp_path, argv, stdout, code, unbuffered):
    # buffered, the text reaches stdout only when run flushes it, after main returned
    out = tmp_path / "out"
    args = [argv[0], str(scenario_path), *(a.format(out=out) for a in argv[1:])]
    fd = stdout()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "locusframe.cli", *args],
            stdout=fd,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(unbuffered),
        )
    finally:
        os.close(fd)
    assert (done.returncode, done.stderr) == (2, f"error: {OSError(code, os.strerror(code))}\n")
    # the CSVs were complete before their wrote lines could not be delivered
    expected = {"simulate": 5, "measure": 1}.get(argv[0], 0)
    assert len(list(out.glob("*.csv"))) == expected


@pytest.mark.skipif(sys.platform == "win32", reason="closes fd 1 through sh")
def test_stdout_closed_at_start_is_no_error(request, tmp_path):
    # Python starts with sys.stdout None: main's one write of each report, and
    # print_help's of the help text, are skipped
    for argv in [*SUBCOMMANDS, ["--help"]]:
        args = _args(request, tmp_path, None if "--help" in argv else "scenario_path", argv)
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "locusframe.cli", *args],
            stderr=subprocess.PIPE,
            text=True,
            env=_env(False),
        )
        assert (done.returncode, done.stderr) == (0, ""), args
    assert len(list((tmp_path / "out").glob("*.csv"))) == 6  # simulate's 5, measure's 1


class _CountingStdout(io.StringIO):
    """A stdout that keeps the text of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv", [*SUBCOMMANDS, ["--help"], ["matrix", "--help"]], ids=" ".join)
def test_each_report_is_one_write(monkeypatch, request, tmp_path, argv):
    # main writes the whole report, print_help the whole help text, in one call: with
    # PYTHONUNBUFFERED each call is a write system call
    args = _args(request, tmp_path, None if "--help" in argv else "scenario_path", argv)
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert _main_in_process(args) == 0
    assert len(stdout.writes) == 1
    assert stdout.writes[0] == stdout.getvalue()
    assert stdout.getvalue().endswith("\n") and stdout.getvalue().count("\n") > 1


@EXIT_CODES
def test_no_stderr_drops_the_error_line_and_keeps_the_code(
    monkeypatch, request, tmp_path, scenario, argv, expected
):
    # sys.stderr is None when the process started with fd 2 closed: each error: line,
    # argparse's rejection included, is dropped and none lands on stdout
    args = _args(request, tmp_path, scenario, argv)
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", None)
    assert _main_in_process(args) == expected
    assert (stdout.getvalue() == "") == (expected != 0)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "stdout, code",
    [(_closed_pipe, errno.EPIPE), (_full_device, errno.ENOSPC)],
    ids=["closed pipe", "/dev/full"],
)
@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]], ids=" ".join)
def test_undeliverable_help_is_one_error_line(argv, stdout, code, unbuffered):
    # argparse exits from inside main once the help text is written: buffered, that
    # text reaches stdout only in run's flush; unbuffered, its write fails in print_help
    fd = stdout()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "locusframe.cli", *argv],
            stdout=fd,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(unbuffered),
        )
    finally:
        os.close(fd)
    assert (done.returncode, done.stderr) == (2, f"error: {OSError(code, os.strerror(code))}\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@EXIT_CODES
def test_unwritable_stderr_keeps_the_exit_code(
    request, tmp_path, scenario, argv, expected, unbuffered
):
    # the error: line cannot be written, in _report's write or in run's flush of stderr
    stderr = _full_device()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "locusframe.cli", *_args(request, tmp_path, scenario, argv)],
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            cwd=tmp_path,
            env=_env(unbuffered),
        )
    finally:
        os.close(stderr)
    assert done.returncode == expected
    assert (done.stdout == "") == (expected != 0)
