"""Command-line behavior: output formats, file artifacts, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locusframe import (
    MAX_NORM,
    PHASE_A_PEAK,
    TransformedSeries,
    abc_series,
    assemble,
    basis_vectors,
    build_basis,
    load_scenario,
    pipeline_locus,
)
from locusframe import cli, locus, transform, waveform
from locusframe.locus import DEGENERACY_RTOL
from locusframe.waveform import AMPLITUDE_MAX, TWO_PI
from locusframe.cli import (
    SIMULATE_FRAMES,
    build_parser,
    main,
    matrix_lines,
    orientation_label,
    parse_orientation,
    write_series_csv,
)

import support

GOLDEN_CLASSICAL_TEXT = [
    "   1.371   0.117   0.256",
    "  -0.697   0.897  -0.566",
    "  -0.116   0.234   0.515",
]
GOLDEN_DESIRED_TEXT = [
    "  -0.349  -0.762   0.268",
    "   1.498  -0.488   0.560",
    "  -0.116   0.234   0.515",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_rejected(code, out, err, expected=2):
    """The expected exit code with one error line on stderr, no traceback,
    nothing on stdout."""
    assert code == expected
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert out == ""


def _assert_usage_rejected(capsys, argv):
    """argparse rejects argv: exit 2 with one error line and no usage block."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    _assert_rejected(excinfo.value.code, captured.out, captured.err)
    assert "usage:" not in captured.err
    return captured.err


def _write_scenario(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    return path


def _one_segment_doc(amplitudes, offsets_deg):
    segment = {
        "start_periods": 0.0,
        "amplitudes_pu": list(amplitudes),
        "phase_offsets_deg": list(offsets_deg),
    }
    return {"frequency_hz": 50.0, "segments": [segment]}


def _near_linear_path(tmp_path, eps_deg):
    """Offsets (0, 120 + eps, -120) degrees: the total phases agree up to eps,
    so the locus is an ellipse with axis ratio about eps in radians."""
    doc = _one_segment_doc((1.0, 1.0, 1.0), (0.0, 120.0 + eps_deg, -120.0))
    return _write_scenario(tmp_path, json.dumps(doc))


def _deviation(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("max forward deviation:"):
            return float(line.split(":", 1)[1])
    raise AssertionError("deviation line missing from output")


class TestOrientationPlumbing:
    def test_labels(self):
        assert orientation_label(PHASE_A_PEAK) == "classical"
        assert orientation_label(MAX_NORM) == "desired"
        assert orientation_label(-1.0482523219774116) == "angle-1048"
        assert orientation_label(0.0) == "angle0"

    def test_parse_named(self):
        assert parse_orientation("phase-a-peak") == PHASE_A_PEAK
        assert parse_orientation("max-norm") == MAX_NORM

    def test_parse_angle(self):
        assert parse_orientation("angle:0.25") == pytest.approx(0.25)

    def test_parse_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_orientation("sideways")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_orientation("angle:fast")

    @pytest.mark.parametrize("text", ["angle:nan", "angle:inf", "angle:-inf"])
    def test_parse_rejects_non_finite_angle(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_orientation(text)

    def test_non_finite_angle_flag_exits_2(self, capsys, scenario_path, tmp_path):
        out_dir = tmp_path / "out"
        err = _assert_usage_rejected(
            capsys,
            ["simulate", str(scenario_path), "--orientation", "angle:nan", "--out", str(out_dir)],
        )
        assert "bad angle" in err
        assert not out_dir.exists()


class TestValidate:
    def test_stock_scenario(self, capsys, scenario_path):
        code, out, _ = _run(capsys, ["validate", str(scenario_path)])
        assert code == 0
        assert "50.000000 Hz" in out
        assert "2 segment(s)" in out
        assert "degeneracy" in out

    def test_degenerate_flagged_but_ok(self, capsys, degenerate_scenario_path):
        code, out, _ = _run(capsys, ["validate", str(degenerate_scenario_path)])
        assert code == 0
        assert "[degenerate]" in out

    def test_invalid_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = _run(capsys, ["validate", str(bad)])
        assert code == 2
        assert "error:" in err

    def test_segment_not_an_object(self, capsys, tmp_path):
        path = _write_scenario(tmp_path, json.dumps({"frequency_hz": 50.0, "segments": [1]}))
        code, out, err = _run(capsys, ["validate", str(path)])
        _assert_rejected(code, out, err)
        assert err == "error: segments[0] must be a JSON object\n"

    def test_non_increasing_segments(self, capsys, tmp_path):
        bad = tmp_path / "order.json"
        bad.write_text(
            json.dumps(
                {
                    "frequency_hz": 50.0,
                    "segments": [
                        {
                            "start_periods": 0.0,
                            "amplitudes_pu": [1, 1, 1],
                            "phase_offsets_deg": [0, 0, 0],
                        },
                        {
                            "start_periods": 0.0,
                            "amplitudes_pu": [1, 1, 1],
                            "phase_offsets_deg": [0, 0, 0],
                        },
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = _run(capsys, ["validate", str(bad)])
        assert code == 2
        assert "strictly increasing" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["validate", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in err

    def test_tiny_amplitudes_flagged_as_matrix_rejects_them(self, capsys, tmp_path):
        # the [degenerate] flag and the basis gate apply one rule
        doc = {
            "frequency_hz": 50.0,
            "segments": [
                {
                    "start_periods": 0.0,
                    "amplitudes_pu": [1e-13, 1e-13, 1e-13],
                    "phase_offsets_deg": [0.0, 0.0, 0.0],
                }
            ],
        }
        path = _write_scenario(tmp_path, json.dumps(doc))
        code, out, _ = _run(capsys, ["validate", str(path)])
        assert code == 0
        assert "degeneracy 0.000000  [degenerate]" in out
        code, _, err = _run(capsys, ["matrix", str(path)])
        assert code == 3
        assert "linear locus" in err

    def test_non_utf8_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"frequency_hz": 50.0, "note": "Gr\u00f6\u00dfe"}'.encode("latin-1"))
        code, out, err = _run(capsys, ["validate", str(path)])
        _assert_rejected(code, out, err)
        assert "UTF-8" in err

    def test_deeply_nested_document_rejected(self, capsys, tmp_path):
        path = _write_scenario(tmp_path, "[" * 100_000 + "]" * 100_000)
        code, out, err = _run(capsys, ["validate", str(path)])
        _assert_rejected(code, out, err)
        assert "nested too deeply" in err

    def test_infinite_start_rejected(self, capsys, scenario_path, tmp_path):
        text = scenario_path.read_text(encoding="utf-8")
        assert '"start_periods": 1.0' in text
        text = text.replace('"start_periods": 1.0', '"start_periods": Infinity')
        path = _write_scenario(tmp_path, text)
        code, out, err = _run(capsys, ["validate", str(path)])
        _assert_rejected(code, out, err)
        assert "finite" in err

    @pytest.mark.parametrize("subcommand", ["validate", "matrix", "simulate", "measure"])
    @pytest.mark.parametrize("field", ["frequency_hz", "start_periods"])
    def test_overflowing_frequency_or_start_rejected(self, capsys, tmp_path, subcommand, field):
        # 1e308 is a finite JSON number, and 2 pi times it is not
        doc = _one_segment_doc((0.7, 1.0, 0.4), (-70.0, -10.0, -90.0))
        if field == "frequency_hz":
            doc["frequency_hz"] = 1e308
            message = "omega must be positive and finite, got inf"
        else:
            doc["segments"].append({**doc["segments"][0], "start_periods": 1e308})
            message = "start angle must be finite, got inf"
        path = _write_scenario(tmp_path, json.dumps(doc))
        out_dir = tmp_path / "out"
        argv = {
            "validate": [],
            "matrix": [],
            "simulate": ["--periods", "0.05", "--rate", "64", "--out", str(out_dir)],
            "measure": ["--out", str(out_dir)],
        }[subcommand]
        code, out, err = _run(capsys, [subcommand, str(path), *argv])
        _assert_rejected(code, out, err)
        assert message in err
        assert not out_dir.exists()


class TestMatrix:
    def test_golden_classical_text(self, capsys, scenario_path):
        code, out, _ = _run(capsys, ["matrix", str(scenario_path), "--segment", "2"])
        assert code == 0
        lines = out.splitlines()
        start = lines.index("forward:") + 1
        assert lines[start : start + 3] == GOLDEN_CLASSICAL_TEXT
        assert "inverse:" in lines

    def test_golden_desired_text(self, capsys, scenario_path):
        code, out, _ = _run(
            capsys,
            ["matrix", str(scenario_path), "--segment", "2", "--orientation", "max-norm"],
        )
        assert code == 0
        lines = out.splitlines()
        start = lines.index("forward:") + 1
        assert lines[start : start + 3] == GOLDEN_DESIRED_TEXT

    def test_deterministic_output(self, capsys, scenario_path):
        argv = ["matrix", str(scenario_path), "--segment", "2"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_explicit_angle_label(self, capsys, scenario_path):
        code, out, _ = _run(
            capsys,
            ["matrix", str(scenario_path), "--segment", "2", "--orientation", "angle:0.5"],
        )
        assert code == 0
        assert "angle500" in out
        assert "theta_o = 0.500000 rad" in out

    def test_normalized_marker(self, capsys, scenario_path):
        code, out, _ = _run(
            capsys, ["matrix", str(scenario_path), "--segment", "2", "--normalized"]
        )
        assert code == 0
        assert "normalized" in out

    def test_segment_out_of_range(self, capsys, scenario_path):
        code, _, err = _run(capsys, ["matrix", str(scenario_path), "--segment", "3"])
        assert code == 2
        assert "out of range" in err

    def test_degenerate_exit_code(self, capsys, degenerate_scenario_path):
        code, _, err = _run(capsys, ["matrix", str(degenerate_scenario_path)])
        assert code == 3
        assert "error:" in err

    def test_nan_amplitude_rejected(self, capsys, scenario_path, tmp_path):
        text = scenario_path.read_text(encoding="utf-8")
        assert "[0.7, 1.0, 0.4]" in text
        path = _write_scenario(tmp_path, text.replace("[0.7, 1.0, 0.4]", "[NaN, 1.0, 0.4]"))
        code, out, err = _run(capsys, ["matrix", str(path), "--segment", "2"])
        _assert_rejected(code, out, err)
        assert "finite" in err

    def test_bad_orientation_flag(self, capsys, scenario_path):
        err = _assert_usage_rejected(
            capsys, ["matrix", str(scenario_path), "--orientation", "sideways"]
        )
        assert "'sideways'" in err


class TestSimulate:
    def test_default_writes_all_frames(self, capsys, scenario_path, tmp_path):
        code, out, _ = _run(
            capsys, ["simulate", str(scenario_path), "--out", str(tmp_path)]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "V_123_classical.csv",
            "V_ab0_clarke.csv",
            "V_abc.csv",
            "V_dq0_clarke.csv",
            "V_dq0_classical.csv",
        ]
        assert out.count("wrote ") == 5

    def test_headers(self, capsys, scenario_path, tmp_path):
        _run(capsys, ["simulate", str(scenario_path), "--out", str(tmp_path)])
        heads = {
            "V_abc.csv": "t,Va,Vb,Vc",
            "V_123_classical.csv": "t,V1,V2,V3",
            "V_ab0_clarke.csv": "t,Valpha,Vbeta,V0",
            "V_dq0_classical.csv": "t,Vd,Vq,V0",
            "V_dq0_clarke.csv": "t,Vd,Vq,V0",
        }
        for name, expected in heads.items():
            first = (tmp_path / name).read_text(encoding="utf-8").splitlines()[0]
            assert first == expected

    def test_csv_round_trip(self, capsys, scenario_path, tmp_path):
        _run(capsys, ["simulate", str(scenario_path), "--out", str(tmp_path)])
        scenario = load_scenario(scenario_path)
        frame = assemble(build_basis(scenario.segments[1], PHASE_A_PEAK))
        series, _ = pipeline_locus(abc_series(scenario, 1000, 2.0), frame)
        data = np.genfromtxt(
            tmp_path / "V_123_classical.csv", delimiter=",", names=True
        )
        assert data.shape[0] == series.angles.size
        assert np.max(np.abs(data["t"] - series.angles)) < 1e-6
        for column, row in zip(("V1", "V2", "V3"), series.coords):
            assert np.max(np.abs(data[column] - row)) < 1e-6

    def test_frames_subset(self, capsys, scenario_path, tmp_path):
        code, _, _ = _run(
            capsys,
            ["simulate", str(scenario_path), "--frames", "abc", "--out", str(tmp_path)],
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["V_abc.csv"]

    def test_desired_orientation_file_name(self, capsys, scenario_path, tmp_path):
        code, _, _ = _run(
            capsys,
            [
                "simulate",
                str(scenario_path),
                "--frames",
                "locus123",
                "--orientation",
                "max-norm",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["V_123_desired.csv"]

    def test_dq0_without_clarke(self, capsys, scenario_path, tmp_path):
        code, _, _ = _run(
            capsys,
            ["simulate", str(scenario_path), "--frames", "dq0", "--out", str(tmp_path)],
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["V_dq0_classical.csv"]

    def test_balanced_clarke_zero_channel(self, capsys, balanced_scenario_path, tmp_path):
        out_dir = tmp_path / "csv"
        code, _, _ = _run(
            capsys,
            [
                "simulate",
                str(balanced_scenario_path),
                "--frames",
                "clarke",
                "--out",
                str(out_dir),
            ],
        )
        assert code == 0
        data = np.genfromtxt(out_dir / "V_ab0_clarke.csv", delimiter=",", names=True)
        assert np.all(data["V0"] == 0.0)

    def test_degenerate_basis_exit_code(self, capsys, degenerate_scenario_path, tmp_path):
        code, _, err = _run(
            capsys, ["simulate", str(degenerate_scenario_path), "--out", str(tmp_path)]
        )
        assert code == 3
        assert "error:" in err

    def test_default_run_evaluates_scenario_once(self, capsys, scenario_path, tmp_path):
        # every frame is mapped from the one sampled abc series
        spy = mock.Mock(wraps=waveform.evaluate_scenario)
        with mock.patch.object(waveform, "evaluate_scenario", spy), mock.patch.object(
            transform, "evaluate_scenario", spy
        ):
            code, _, _ = _run(capsys, ["simulate", str(scenario_path), "--out", str(tmp_path)])
        assert code == 0
        assert spy.call_count == 1

    @pytest.mark.parametrize("frames", ["locus123", "dq0", "clarke", "abc,locus123,clarke,dq0"])
    def test_bad_grid_before_degenerate_basis(
        self, capsys, degenerate_scenario_path, tmp_path, frames
    ):
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys,
            [
                "simulate",
                str(degenerate_scenario_path),
                "--rate",
                "0",
                "--frames",
                frames,
                "--out",
                str(out_dir),
            ],
        )
        _assert_rejected(code, out, err)
        assert "samples_per_period" in err
        assert not out_dir.exists()

    def test_bad_frame_token(self, capsys, scenario_path, tmp_path):
        err = _assert_usage_rejected(
            capsys, ["simulate", str(scenario_path), "--frames", "abc,xyz", "--out", str(tmp_path)]
        )
        assert "'xyz'" in err

    def test_empty_frame_list(self, capsys, scenario_path, tmp_path):
        err = _assert_usage_rejected(
            capsys, ["simulate", str(scenario_path), "--frames", ",", "--out", str(tmp_path)]
        )
        assert err == "error: argument --frames: no frames requested\n"

    def test_non_integer_rate_flag(self, capsys, scenario_path, tmp_path):
        err = _assert_usage_rejected(
            capsys, ["simulate", str(scenario_path), "--rate", "abc", "--out", str(tmp_path)]
        )
        assert "--rate" in err


    @pytest.mark.parametrize(
        "flags",
        [
            ["--rate", "0"],
            ["--periods", "-1"],
            ["--periods", "0"],
            ["--periods", "inf"],
            # 1e15 samples: 7 PiB, beyond any 48-bit address space
            ["--periods", "1e12"],
            # a rate past the float range
            ["--rate", "1" + "0" * 400],
        ],
        ids=[
            "rate-0",
            "periods-negative",
            "periods-0",
            "periods-inf",
            "periods-huge",
            "rate-huge",
        ],
    )
    def test_bad_grid_rejected(self, capsys, scenario_path, tmp_path, flags):
        # no CSV and not even the output directory
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys, ["simulate", str(scenario_path), *flags, "--out", str(out_dir)]
        )
        _assert_rejected(code, out, err)
        assert not out_dir.exists()


class TestMeasure:
    def test_reproduces_analytic_matrix(self, capsys, scenario_path, tmp_path):
        code, out, _ = _run(
            capsys,
            ["measure", str(scenario_path), "--rate", "1000", "--out", str(tmp_path)],
        )
        assert code == 0
        assert (tmp_path / "V_abc_measured.csv").exists()
        assert _deviation(out) < 1e-3

    def test_lower_rate_is_coarser(self, capsys, scenario_path, tmp_path):
        argv = ["measure", str(scenario_path), "--t1-angle", "0.3", "--out", str(tmp_path)]
        _, fine_out, _ = _run(capsys, argv + ["--rate", "1000"])
        code, coarse_out, _ = _run(capsys, argv + ["--rate", "64"])
        assert code == 0
        fine = _deviation(fine_out)
        coarse = _deviation(coarse_out)
        assert 0.0 < fine < 1e-3
        assert coarse > fine
        assert math.isfinite(coarse)

    def test_rate_below_floor(self, capsys, scenario_path, tmp_path):
        # a rejected measurement writes no CSV and not even the directory
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys,
            ["measure", str(scenario_path), "--rate", "32", "--out", str(out_dir)],
        )
        _assert_rejected(code, out, err, expected=4)
        assert "samples per period" in err
        assert not out_dir.exists()

    def test_insufficient_span(self, capsys, scenario_path, tmp_path):
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys,
            ["measure", str(scenario_path), "--t1-angle", "6.0", "--out", str(out_dir)],
        )
        _assert_rejected(code, out, err, expected=4)
        assert "estimation needs" in err
        assert not out_dir.exists()

    def test_span_message_bounded(self, capsys, scenario_path, tmp_path):
        # the angles print in %g form, so a huge --t1-angle stays one short line
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys,
            ["measure", str(scenario_path), "--t1-angle", "1e300", "--out", str(out_dir)],
        )
        _assert_rejected(code, out, err, expected=4)
        assert "estimation needs [1e+300, 1e+300]" in err
        assert len(err) < 200
        assert not out_dir.exists()

    def test_single_sample_series(self, capsys, scenario_path, tmp_path):
        out_dir = tmp_path / "new"
        argv = ["measure", str(scenario_path), "--rate", "64", "--periods", "1e-300"]
        code, out, err = _run(capsys, argv + ["--out", str(out_dir)])
        _assert_rejected(code, out, err, expected=4)
        assert "fewer than two samples" in err
        assert not out_dir.exists()

    def test_noise_is_reproducible(self, capsys, scenario_path, tmp_path):
        argv = [
            "measure",
            str(scenario_path),
            "--noise",
            "0.01",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
        ]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "flags, line",
        [
            pytest.param([], "max forward deviation: 0.000000e+00", id="default"),
            pytest.param(
                ["--noise", "0.01", "--seed", "3", "--t1-angle", "0.3"],
                "max forward deviation: 7.580231e-03",
                id="noisy",
            ),
            # the probe pair straddles the segment switch at 2 pi
            pytest.param(
                ["--periods", "2", "--t1-angle", "5.5"],
                "max forward deviation: 6.774383e-06",
                id="across the switch",
            ),
        ],
    )
    def test_deviation_line_pinned(self, capsys, scenario_path, tmp_path, flags, line):
        # byte-exact lines: the analytic probes must give the printed deviation unchanged
        argv = ["measure", str(scenario_path), *flags, "--out", str(tmp_path)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert out.splitlines()[-1] == line

    def test_reference_from_the_sampling_kernel(self, capsys, scenario_path, tmp_path, monkeypatch):
        # math.cos one ulp high: samples and reference both take numpy's cosine,
        # so a noiseless estimate on the grid still reads exactly 0
        cos = math.cos
        monkeypatch.setattr(math, "cos", lambda x: math.nextafter(cos(x), math.inf))
        code, out, _ = _run(capsys, ["measure", str(scenario_path), "--out", str(tmp_path)])
        assert code == 0
        assert out.splitlines()[-1] == "max forward deviation: 0.000000e+00"

    def test_huge_sigma_prints_in_e_notation(self, capsys, scenario_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = _run(capsys, ["measure", str(scenario_path), "--noise", "1e45"])
        assert code == 0
        lines = out.splitlines()
        assert "noise sigma: 1.000000e+45 (seed 0)" in lines
        assert max(len(line) for line in lines) <= 100

    def test_noise_worsens_estimate(self, capsys, scenario_path, tmp_path):
        clean_argv = ["measure", str(scenario_path), "--t1-angle", "0.3", "--out", str(tmp_path)]
        _, clean_out, _ = _run(capsys, clean_argv)
        _, noisy_out, _ = _run(capsys, clean_argv + ["--noise", "0.01", "--seed", "3"])
        assert _deviation(noisy_out) > _deviation(clean_out)


    @pytest.mark.parametrize(
        "flags",
        [
            ["--t1-angle", "nan"],
            ["--t1-angle", "inf"],
            ["--noise", "-1"],
            ["--noise", "nan"],
            ["--noise", "inf"],
            ["--noise", "0.01", "--seed", "-1"],
            # beyond numpy's array size limit
            ["--periods", "1e300"],
            ["--rate", "1" + "0" * 400],
        ],
        ids=[
            "t1-nan",
            "t1-inf",
            "noise-negative",
            "noise-nan",
            "noise-inf",
            "seed-negative",
            "periods-huge",
            "rate-huge",
        ],
    )
    def test_bad_argument_rejected(self, capsys, scenario_path, tmp_path, flags):
        out_dir = tmp_path / "new"
        code, out, err = _run(
            capsys, ["measure", str(scenario_path), *flags, "--out", str(out_dir)]
        )
        _assert_rejected(code, out, err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("t1", ["-1e-13", "-0.001"])
    def test_negative_t1_rejected(self, capsys, scenario_path, tmp_path, t1):
        # one rule below zero, before sampling: neither the span check's slack
        # nor the analytic probe's evaluate_scenario decides
        out_dir = tmp_path / "new"
        argv = ["measure", str(scenario_path), f"--t1-angle={t1}", "--out", str(out_dir)]
        code, out, err = _run(capsys, argv)
        _assert_rejected(code, out, err)
        assert err == f"error: t1 angle must be >= 0, got {float(t1)}\n"
        assert not out_dir.exists()

    def test_negative_zero_t1_accepted(self, capsys, scenario_path, tmp_path):
        argv = ["measure", str(scenario_path), "--out", str(tmp_path)]
        code, out, _ = _run(capsys, argv + ["--t1-angle=-0.0"])
        _, zero_out, _ = _run(capsys, argv + ["--t1-angle=0.0"])
        assert code == 0
        assert out.splitlines()[-1] == zero_out.splitlines()[-1]

    def test_noise_draw_order(self, capsys, scenario_path, tmp_path):
        # sample i of the CSV carries draws 3i..3i+2 of default_rng(seed)
        argv = ["measure", str(scenario_path)]
        _run(capsys, argv + ["--out", str(tmp_path / "clean")])
        code, _, _ = _run(
            capsys,
            argv + ["--noise", "0.01", "--seed", "3", "--out", str(tmp_path / "noisy")],
        )
        assert code == 0
        clean = np.loadtxt(tmp_path / "clean" / "V_abc_measured.csv", delimiter=",", skiprows=1)
        noisy = np.loadtxt(tmp_path / "noisy" / "V_abc_measured.csv", delimiter=",", skiprows=1)
        assert np.array_equal(noisy[:, 0], clean[:, 0])
        added = noisy[:, 1:] - clean[:, 1:]
        n = added.shape[0]
        expected = np.random.default_rng(3).normal(0.0, 0.01, size=(n, 3))
        np.testing.assert_allclose(added, expected, rtol=0.0, atol=1e-6)
        channel_major = np.random.default_rng(3).normal(0.0, 0.01, size=(3, n)).T
        assert np.max(np.abs(added - channel_major)) > 1e-3


class TestFrameGate:
    """One gate on the locus shape and one bound on amplitudes."""

    @pytest.mark.parametrize("eps_deg", [1e-7, 1e-9])
    def test_near_linear_locus_rejected(self, capsys, tmp_path, eps_deg):
        path = _near_linear_path(tmp_path, eps_deg)
        e1, e2 = basis_vectors(load_scenario(path).segments[0], 0.0)
        code, out, _ = _run(capsys, ["validate", str(path)])
        assert code == 0
        # the printed degeneracy stays the cross share, the flag is the gate
        assert f"degeneracy {support.cross_share(e1, e2):.6f}  [degenerate]" in out
        if eps_deg == 1e-7:
            assert "degeneracy 0.816497  [degenerate]" in out
        n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
        g = 2.0 * np.linalg.norm(np.cross(e1, e2)) / (n1**2 + n2**2)
        assert 0.0 < g <= DEGENERACY_RTOL
        out_dir = tmp_path / "out"
        simulate = ["simulate", str(path), "--periods", "0.05", "--rate", "64"]
        for argv in (["matrix", str(path)], simulate + ["--out", str(out_dir)]):
            code, out, err = _run(capsys, argv)
            _assert_rejected(code, out, err, expected=3)
            assert f"linear locus: g = 2|e1 x e2|/(|e1|^2 + |e2|^2) = {g:.3e} " in err
        assert not out_dir.exists()

    def test_ill_conditioned_locus_kept_with_entries_apart(self, capsys, tmp_path):
        # eps = 1e-3 degrees: cond about 1.2e5, well above the gate, and
        # forward entries wider than their 7-character field
        path = _near_linear_path(tmp_path, 1e-3)
        code, out, _ = _run(capsys, ["matrix", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "forward:" and lines[7] == "inverse:"
        forward = np.array([[float(x) for x in line.split()] for line in lines[4:7]])
        frame = assemble(build_basis(load_scenario(path).segments[0]))
        assert forward.shape == (3, 3)
        assert np.abs(frame.forward).max() > 1e4
        assert np.abs(forward - frame.forward).max() < 5e-4

    @pytest.mark.parametrize("amplitude", [1e150, 1e154, 1e160, 1e200])
    @pytest.mark.parametrize("subcommand", ["validate", "matrix", "simulate", "measure"])
    def test_amplitude_beyond_bound_rejected(self, capsys, tmp_path, subcommand, amplitude):
        doc = _one_segment_doc((amplitude, amplitude, amplitude), (0.0, 10.0, 0.0))
        path = _write_scenario(tmp_path, json.dumps(doc))
        argv = [subcommand, str(path)]
        if subcommand in ("simulate", "measure"):
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = _run(capsys, argv)
        _assert_rejected(code, out, err)
        assert f"above {AMPLITUDE_MAX:.0e}" in err
        assert not (tmp_path / "out").exists()

    def test_amplitude_at_bound_runs(self, capsys, tmp_path):
        amplitudes = (AMPLITUDE_MAX, 0.5 * AMPLITUDE_MAX, 0.2 * AMPLITUDE_MAX)
        doc = _one_segment_doc(amplitudes, (0.0, 10.0, 0.0))
        path = _write_scenario(tmp_path, json.dumps(doc))
        for argv in (
            ["validate", str(path)],
            ["matrix", str(path)],
            ["simulate", str(path), "--out", str(tmp_path)],
            ["measure", str(path), "--out", str(tmp_path)],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = _run(capsys, argv)
            assert (code, err) == (0, "")
            assert "nan" not in out and "inf" not in out

    def test_large_values_print_in_e_notation(self, capsys, tmp_path):
        # %.6f would print these as 30- to 50-digit numbers on lines of up to 311 characters
        doc = _one_segment_doc((1e49, 2e49, 1.5e49), (0.0, 10.0, -20.0))
        doc["frequency_hz"] = 1e40
        doc["segments"].append(
            {"start_periods": 1e30, "amplitudes_pu": [2e49, 5e48, 1e49],
             "phase_offsets_deg": [5.0, 0.0, 40.0]}
        )
        path = _write_scenario(tmp_path, json.dumps(doc))
        outputs = []
        for argv in (
            ["validate", str(path)],
            ["matrix", str(path)],
            ["matrix", str(path), "--segment", "2", "--orientation", "max-norm"],
        ):
            code, out, err = _run(capsys, argv)
            assert (code, err) == (0, "")
            assert max(len(line) for line in out.splitlines()) < 200
            outputs.append(out)
        assert "scenario: 1.000000e+40 Hz" in outputs[0]
        assert "start 1.000000e+30 periods, amplitudes 2.000000e+49 5.000000e+48" in outputs[0]
        assert "|e1| = 1.239257e+49  |e2| = 2.390448e+49" in outputs[1]
        assert "\ninverse:\n 1.000e+49 " in outputs[1]

    def test_negative_zeros_print_as_zeros(self, capsys, tmp_path):
        # a -0.0 start or amplitude printed as -0.000000 and flipped the sign of printed
        # zeros in both matrices of this segment
        outputs = []
        for zero in (0.0, -0.0):
            doc = _one_segment_doc((1.0, zero, 0.5), (0.0, 0.0, 30.0))
            doc["segments"][0]["start_periods"] = zero
            path = _write_scenario(tmp_path, json.dumps(doc))
            outputs.append([_run(capsys, [cmd, str(path)]) for cmd in ("validate", "matrix")])
        assert outputs[1] == outputs[0]
        assert "start 0.000000 periods, amplitudes 1.000000 0.000000 0.500000" in outputs[0][0][1]

    def test_overflowing_noise_rejected(self, capsys, scenario_path, tmp_path):
        out_dir = tmp_path / "out"
        argv = ["measure", str(scenario_path), "--noise", "1e300", "--out", str(out_dir)]
        code, out, err = _run(capsys, argv)
        _assert_rejected(code, out, err, expected=3)
        assert "not finite or above" in err
        assert not out_dir.exists()


_OFFSET_BASES = (0.0, 60.0, 120.0, 180.0, -60.0, -120.0)


@st.composite
def _fuzz_cases(draw):
    """(scenario document, measure noise sigma, orientation flags): amplitudes over
    10^+-300, offsets near multiples of 60 degrees, so near-linear loci are
    frequent, frequencies and a second segment's start over 10^-300..1.7e308,
    where 2 pi times the value can overflow, and each orientation kind with or
    without --normalized."""

    def wide_positive():
        return draw(st.floats(0.0, 1.7)) * 10.0 ** draw(st.integers(-300, 308))

    segments = []
    for k in range(draw(st.integers(1, 2))):
        start = 0.0
        if k:
            start = 0.02 if draw(st.booleans()) else wide_positive()
        if draw(st.booleans()):  # one scale for the three phases
            scale = 10.0 ** draw(st.integers(-300, 300))
            amplitudes = [scale * draw(st.floats(0.0, 1.2)) for _ in range(3)]
        else:
            amplitudes = [
                draw(st.floats(0.0, 9.99)) * 10.0 ** draw(st.integers(-300, 300))
                for _ in range(3)
            ]
        offsets = [
            draw(st.sampled_from(_OFFSET_BASES))
            + draw(st.sampled_from((-1.0, 0.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, 1.0))
            for _ in range(3)
        ]
        segments.append(
            {"start_periods": start, "amplitudes_pu": amplitudes, "phase_offsets_deg": offsets}
        )
    frequency = 50.0 if draw(st.booleans()) else wide_positive()
    noise = draw(st.one_of(st.just(0.0), st.integers(-3, 307).map(lambda k: 10.0**k)))
    angle = draw(st.floats(allow_nan=False, allow_infinity=False))
    orientation = draw(st.sampled_from((PHASE_A_PEAK, MAX_NORM, f"angle:{angle!r}")))
    flags = ["--orientation", orientation] + ["--normalized"] * draw(st.booleans())
    return {"frequency_hz": frequency, "segments": segments}, noise, flags


def _check_run(argv, out_dir=None):
    """Finite output with exit 0, or exit 2/3/4 with one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code in (2, 3, 4)
        _assert_rejected(code, out, err, expected=code)
        assert out_dir is None or not out_dir.exists()
        return out
    assert err == ""
    for token in re.split(r"[\s,:]+", out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), out
    for csv in out_dir.iterdir() if out_dir is not None else ():
        data = csv.read_bytes()
        assert b"nan" not in data and b"inf" not in data, csv.name
    return out


@pytest.mark.parametrize("argv", [[], ["measure"]], ids=["no subcommand", "no scenario"])
def test_missing_argument_is_one_error_line(capsys, argv):
    err = _assert_usage_rejected(capsys, argv)
    assert "required" in err


@pytest.mark.parametrize("subcommand", ["validate", "matrix", "simulate", "measure"])
def test_help_still_prints_usage(capsys, subcommand):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: locusframe {subcommand} ")


def _parsed(argv, names):
    """{name: (value, type)} of the options ``names`` as build_parser parses ``argv``."""
    args = build_parser().parse_args(argv)
    return {name: (getattr(args, name), type(getattr(args, name))) for name in names}


def test_shared_options_parse_alike():
    frame_names = ("orientation", "segment", "normalized")
    sampling_names = ("rate", "periods", "out")
    frame = ["--orientation", "angle:0.4", "--segment", "2", "--normalized"]
    sampling = ["--rate", "64", "--periods", "2", "--out", "d"]
    expected = {"orientation": (0.4, float), "segment": (2, int), "normalized": (True, bool)}
    for subcommand in ("matrix", "simulate"):
        assert _parsed([subcommand, "s.json", *frame], frame_names) == expected
    expected = {"rate": (64, int), "periods": (2.0, float), "out": ("d", str)}
    for subcommand in ("simulate", "measure"):
        assert _parsed([subcommand, "s.json", *sampling], sampling_names) == expected
    # the defaults agree but for --segment (matrix 1, simulate the last) and --periods
    # (measure 1, simulate every segment plus one period)
    frame = {"orientation": (PHASE_A_PEAK, str), "normalized": (False, bool)}
    sampling = {"rate": (1000, int), "out": (".", str)}
    none = (None, type(None))
    assert _parsed(["matrix", "s.json"], frame_names) == {**frame, "segment": (1, int)}
    assert _parsed(["simulate", "s.json"], frame_names + sampling_names) == {
        **frame, **sampling, "segment": none, "periods": none
    }
    assert _parsed(["measure", "s.json"], sampling_names) == {**sampling, "periods": (1.0, float)}


@pytest.mark.parametrize(
    "subcommand, taken",
    [("measure", "V_abc_measured.csv"), ("simulate", "V_123_classical.csv")],
    ids=["measure", "simulate"],
)
def test_failed_write_prints_nothing(capsys, scenario_path, tmp_path, subcommand, taken):
    # the "wrote" lines, and measure's report lines, come out only after every CSV
    # is written; simulate moves V_abc.csv into place before the taken name fails,
    # and takes it out again
    (tmp_path / taken).mkdir()
    code, out, err = _run(capsys, [subcommand, str(scenario_path), "--out", str(tmp_path)])
    _assert_rejected(code, out, err)
    assert [path.name for path in tmp_path.iterdir()] == [taken]


_CHUNK = waveform._CHUNK_ROWS


def _chunk_sizes(rows):
    """The row counts of the chunks that the streamed paths cut ``rows`` grid rows into."""
    return [min(_CHUNK, rows - lo) for lo in range(0, rows, _CHUNK)]


@pytest.mark.parametrize("out", ["new", "nested/new", "existing"], ids=["new", "nested", "existing"])
def test_failure_mid_stream_leaves_nothing(capsys, monkeypatch, scenario_path, tmp_path, out):
    # 5 periods are more than one chunk; the second fails after the first was written,
    # and the run takes out its temporaries and the directories it made, but not an
    # older CSV
    map_rotate = transform.map_rotate
    calls = []

    def exhausted_on_second_chunk(angles, coords, forwards):
        calls.append(len(angles))
        if len(calls) == 2:
            raise MemoryError()
        return map_rotate(angles, coords, forwards)

    monkeypatch.setattr(transform, "map_rotate", exhausted_on_second_chunk)
    out_dir = tmp_path / out
    if out == "existing":
        out_dir.mkdir()
        (out_dir / "V_abc.csv").write_bytes(b"older run\n")
    argv = ["simulate", str(scenario_path), "--periods", "5", "--out", str(out_dir)]
    code, stdout, err = _run(capsys, argv)
    _assert_rejected(code, stdout, err)
    assert err == "error: out of memory\n"
    assert len(_chunk_sizes(5001)) > 1
    assert calls == _chunk_sizes(5001)[:2]
    if out == "existing":
        assert [path.name for path in out_dir.iterdir()] == ["V_abc.csv"]
        assert (out_dir / "V_abc.csv").read_bytes() == b"older run\n"
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["new", "nested/new", "existing"], ids=["new", "nested", "existing"])
def test_measure_failure_mid_stream_leaves_nothing(
    capsys, monkeypatch, scenario_path, tmp_path, out
):
    # the first chunk holds the window and passes the estimate, and is written; sampling
    # the second fails
    evaluate = waveform.evaluate_scenario
    calls = []

    def exhausted_on_second_chunk(scenario, angles):
        calls.append(len(angles))
        if len(calls) == 3:  # after the first chunk and the estimate's two probes
            raise MemoryError()
        return evaluate(scenario, angles)

    monkeypatch.setattr(waveform, "evaluate_scenario", exhausted_on_second_chunk)
    out_dir = tmp_path / out
    if out == "existing":
        out_dir.mkdir()
        (out_dir / "V_abc_measured.csv").write_bytes(b"older run\n")
    argv = ["measure", str(scenario_path), "--periods", "5", "--noise", "0.01"]
    code, stdout, err = _run(capsys, [*argv, "--out", str(out_dir)])
    _assert_rejected(code, stdout, err)
    assert err == "error: out of memory\n"
    # the first chunk, which holds the window rows 0..251 up to the row after t2 = pi/2
    # (row 250), the two reference probes, then the second chunk
    first, second = _chunk_sizes(5001)[:2]
    assert first > 251
    assert calls == [first, 2, second]
    if out == "existing":
        assert [path.name for path in out_dir.iterdir()] == ["V_abc_measured.csv"]
        assert (out_dir / "V_abc_measured.csv").read_bytes() == b"older run\n"
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, expected",
    [(["--noise", "1e300", "--t1-angle", "300"], 3), (["--t1-angle", "700"], 4)],
    ids=["overflowing estimate", "span"],
)
@pytest.mark.parametrize("out", ["nested/new", "file"])
def test_rejected_estimate_comes_before_output(
    capsys, scenario_path, tmp_path, flags, expected, out
):
    # the window is checked before --out is made: with --out a regular file a span that
    # misses it still exits 4, not 2; the estimate comes from the chunks as they are
    # written, after --out is made, so there an overflowing one exits 2, not 3; either
    # leaves the file as it was, and a rejected estimate leaves no output
    out_path = tmp_path / out
    if out == "file":
        expected = 2 if expected == 3 else expected
        out_path.write_bytes(b"not a directory\n")
    argv = ["measure", str(scenario_path), "--periods", "100", *flags, "--out", str(out_path)]
    _assert_rejected(*_run(capsys, argv), expected=expected)
    if out == "file":
        assert list(tmp_path.iterdir()) == [out_path]
        assert out_path.read_bytes() == b"not a directory\n"
    else:
        assert list(tmp_path.iterdir()) == []


#: a grid row on a chunk edge, many chunks from row 0
_EDGE = 16384
#: rate and start periods that put segment switches on samples 1024 (inside the first
#: chunk), 16383 and 16384 (either side of the chunk edge at _EDGE), and between samples
#: 32767 and 32768 (next to the one at 2 * _EDGE)
_STREAM_RATE = 1024
_STREAM_STARTS = (0.0, 1.0, 16383 / 1024, 16.0, 32767.5 / 1024)


@pytest.fixture(scope="module")
def stream_scenario(tmp_path_factory):
    amplitudes = ((1.0, 1.0, 1.0), (0.7, 1.0, 0.4), (0.9, 0.2, 1.1), (0.5, 0.8, 0.6), (1.2, 0.4, 0.3))
    offsets = ((-50.0,) * 3, (-70.0, -10.0, -90.0), (30.0, 0.0, 170.0), (0.0, 90.0, -45.0), (10.0, 20.0, 30.0))
    doc = {
        "frequency_hz": 50.0,
        "segments": [
            {"start_periods": start, "amplitudes_pu": list(amps), "phase_offsets_deg": list(offs)}
            for start, amps, offs in zip(_STREAM_STARTS, amplitudes, offsets)
        ],
    }
    path = tmp_path_factory.mktemp("stream") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _library_csvs(directory, scenario, samples, flags):
    """{name: bytes} of the five CSVs that write_series_csv gives for the whole series
    of ``samples`` grid rows at _STREAM_RATE, under simulate's frame ``flags``."""
    args = build_parser().parse_args(["simulate", "s.json", *flags])
    abc = waveform.sample_series(scenario, _STREAM_RATE, (samples - 1) / _STREAM_RATE)
    assert len(abc) == samples
    index = len(scenario.segments) - 1 if args.segment is None else args.segment - 1
    frame = assemble(build_basis(scenario.segments[index], args.orientation), args.normalized)
    label = orientation_label(args.orientation)
    series123, dq0 = pipeline_locus(abc, frame)
    ab0, clarke_dq0 = transform.pipeline_clarke_park(abc)
    csvs = {}
    for name, header, series in [
        ("V_abc.csv", "t,Va,Vb,Vc", abc),
        (f"V_123_{label}.csv", "t,V1,V2,V3", series123),
        (f"V_dq0_{label}.csv", "t,Vd,Vq,V0", dq0),
        ("V_ab0_clarke.csv", "t,Valpha,Vbeta,V0", ab0),
        ("V_dq0_clarke.csv", "t,Vd,Vq,V0", clarke_dq0),
    ]:
        write_series_csv(directory / name, series, header)
        csvs[name] = (directory / name).read_bytes()
    return csvs


def _streamed_csvs(capsys, directory, scenario_path, samples, flags):
    """{name: bytes} of the CSVs that simulate writes for ``samples`` grid rows."""
    periods = repr((samples - 1) / _STREAM_RATE)
    argv = ["simulate", str(scenario_path), "--rate", str(_STREAM_RATE), "--periods", periods]
    code, _, err = _run(capsys, [*argv, *flags, "--out", str(directory)])
    assert (code, err) == (0, "")
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize(
    "samples, flags",
    [
        (1000, []),
        (_EDGE - 1, []),
        (_EDGE, []),
        (_EDGE + 1, ["--orientation", MAX_NORM, "--normalized", "--segment", "3"]),
        (2 * _EDGE - 1, ["--orientation", "angle:0.4", "--segment", "4"]),
        (2 * _EDGE, []),
        (2 * _EDGE + 1, ["--segment", "2"]),
    ],
)
def test_streamed_bytes_equal_whole_series(capsys, tmp_path, stream_scenario, samples, flags):
    # each value depends only on its own sample, so simulate's chunks write the bytes
    # that the whole-series library path writes, over many chunk edges and up to,
    # on and past the ones at _EDGE and 2 * _EDGE with switches beside them
    assert _EDGE % _CHUNK == 0
    scenario = load_scenario(stream_scenario)
    (tmp_path / "library").mkdir()
    expected = _library_csvs(tmp_path / "library", scenario, samples, flags)
    assert _streamed_csvs(capsys, tmp_path / "cli", stream_scenario, samples, flags) == expected


@pytest.mark.parametrize(
    "frames",
    [
        ",".join(subset)
        for k in range(1, len(SIMULATE_FRAMES) + 1)
        for subset in itertools.combinations(SIMULATE_FRAMES, k)
    ],
)
def test_streamed_frames_subset(capsys, tmp_path, stream_scenario, frames):
    # the files of each --frames subset, over a chunk edge with a switch beside it
    samples = _EDGE + 1
    scenario = load_scenario(stream_scenario)
    (tmp_path / "library").mkdir()
    every = _library_csvs(tmp_path / "library", scenario, samples, [])
    tokens = frames.split(",")
    names = [
        name
        for name, wanted in [
            ("V_abc.csv", "abc" in tokens),
            ("V_123_classical.csv", "locus123" in tokens),
            ("V_dq0_classical.csv", "dq0" in tokens),
            ("V_ab0_clarke.csv", "clarke" in tokens),
            ("V_dq0_clarke.csv", "clarke" in tokens and "dq0" in tokens),
        ]
        if wanted
    ]
    streamed = _streamed_csvs(capsys, tmp_path / "cli", stream_scenario, samples, ["--frames", frames])
    assert streamed == {name: every[name] for name in names}


def _measured_whole_series(directory, out, scenario, rate, samples, t1, sigma, seed):
    """(stdout, CSV bytes) of measure by the whole-series path: ``samples`` grid rows
    from sample_series, one noise draw for all of them, basis_from_stream over every
    row and write_series_csv into ``directory``; ``out`` is the --out of the stdout."""
    series = waveform.sample_series(scenario, rate, (samples - 1) / rate)
    assert len(series) == samples
    if sigma > 0.0:
        noise = np.random.default_rng(seed).normal(0.0, sigma, size=(samples, 3))
        series = TransformedSeries(series.angles, noise.T + series.coords)
    e1, e2 = locus.basis_from_stream(series, t1)
    exact = waveform.evaluate_scenario(scenario, [t1, t1 + 0.5 * math.pi])
    measured, analytic = (assemble(locus.LocusBasis(*pair, t1)) for pair in ((e1, e2), exact.T))
    deviation = np.max(np.abs(measured.forward - analytic.forward))
    write_series_csv(directory / "V_abc_measured.csv", series, "t,Va,Vb,Vc")
    stdout = (
        f"samples per period: {rate}\nt1 angle: {t1:.6f} rad\n"
        f"noise sigma: {sigma:.6f} (seed {seed})\nwrote {out / 'V_abc_measured.csv'}\n"
        f"max forward deviation: {deviation:.6e}\n"
    )
    return stdout, (directory / "V_abc_measured.csv").read_bytes()


def _row(k, rate=_STREAM_RATE):
    """The angle of grid row ``k`` at ``rate``, as sample_angles computes it."""
    return k * (TWO_PI / rate)


@pytest.mark.parametrize(
    "rate, samples, t1, sigma, t2_row",
    [
        pytest.param(1024, _CHUNK - 1, _row(1000.3), 0.01, None, id="inside a chunk"),
        # pi/2 is 512 rows at 2048 per period; at 1024, no t1 gives t1 + pi/2 == _row(4095)
        pytest.param(
            2048, _CHUNK, _row(_CHUNK - 513, 2048), 0.0, _CHUNK - 1, id="t2 on the last row"
        ),
        pytest.param(1024, _CHUNK + 1, 0.0, 0.0, 256, id="t1 on the first row"),
        pytest.param(1024, _CHUNK + 1, _row(_CHUNK - 256), 0.02, _CHUNK, id="t2 alone in a chunk"),
        pytest.param(1024, 2 * _CHUNK - 1, _row(_CHUNK - 100.5), 0.01, None, id="over a chunk edge"),
        pytest.param(1024, 2 * _CHUNK, _row(2 * _CHUNK - 300.7), 0.0, None, id="in the last chunk"),
        pytest.param(
            1024, 2 * _CHUNK, _row(_CHUNK // 2), 0.05, _CHUNK // 2 + 256, id="t2 on a grid row"
        ),
        pytest.param(1024, 2 * _CHUNK + 1, _row(2 * _CHUNK - 256), 0.01, 2 * _CHUNK, id="last row"),
        pytest.param(
            1024, 4 * _CHUNK + 1, _row(3 * _CHUNK + 100.5), 0.01, None, id="past the first chunks"
        ),
        # a quarter period is 4096 rows at 16384 per period: the window spans three chunks
        pytest.param(
            16384, 4 * _CHUNK + 1, _row(1000.3, 16384), 0.01, None, id="over three chunks"
        ),
        # the first step of the rows around t1 is an ulp above the grid's and reads as
        # 64.0 - 8e-8 samples per period; measure reads the rate of the grid's span alone
        pytest.param(64, 128001, 9000.5, 0.01, None, id="window below the rate floor"),
    ],
)
def test_streamed_measure_equals_whole_series(
    capsys, tmp_path, stream_scenario, rate, samples, t1, sigma, t2_row
):
    # measure samples and draws the noise a chunk at a time, and estimates from the rows
    # around t1 and t2 = t1 + pi/2 that the chunks copy; its stdout and CSV are those of
    # the whole series
    scenario = load_scenario(stream_scenario)
    if t2_row is not None:  # t2 hits a grid row exactly, and np.interp returns that row
        assert t1 + 0.5 * math.pi == _row(t2_row, rate)
    out = tmp_path / "cli"
    library = tmp_path / "library"
    library.mkdir()
    expected = _measured_whole_series(library, out, scenario, rate, samples, t1, sigma, 11)
    periods = repr((samples - 1) / rate)
    argv = ["measure", str(stream_scenario), "--rate", str(rate), "--periods", periods]
    argv += ["--t1-angle", repr(t1), "--noise", repr(sigma), "--seed", "11", "--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert (stdout, (out / "V_abc_measured.csv").read_bytes()) == expected
    assert [path.name for path in out.iterdir()] == ["V_abc_measured.csv"]


def _peak_mib(scenario_path, out, periods, argv):
    """VmHWM in MiB of a fresh process that runs main(argv) on the scenario for
    ``periods`` periods into ``out``; read inside the child after main returns, as
    ru_maxrss would carry the peak of the process that spawned it across fork and exec."""
    script = (
        "import sys\n"
        "from locusframe import cli\n"
        "if cli.main([*sys.argv[4:], sys.argv[1], '--periods', sys.argv[2], '--out', sys.argv[3]]):\n"
        "    sys.exit('main failed')\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(scenario_path), periods, str(out), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    return int(done.stdout.splitlines()[-1]) / 1024.0  # kB to MiB


_READS_VMHWM = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
)


@_READS_VMHWM
@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["measure", "--noise", "0.01", "--t1-angle", "3"]],
    ids=["simulate", "measure"],
)
def test_peak_memory_flat_in_periods(scenario_path, tmp_path, argv):
    peaks = [_peak_mib(scenario_path, tmp_path / n, n, argv) for n in ("20", "1000")]
    # 20 periods are 20 001 rows and 1000 periods 1 000 001; a grid array of 8 bytes a
    # row would grow by 7.6 MiB
    assert abs(peaks[1] - peaks[0]) < 2.0, peaks


@_READS_VMHWM
def test_late_t1_keeps_memory_flat(scenario_path, tmp_path):
    # the chunks before t1 are written and dropped, and only the rows around t1 and t2
    # are kept; keeping the prefix of t1 = 2500, about 398 000 rows, would add about 12 MiB
    argv = ["measure", "--noise", "0.01", "--t1-angle"]
    peaks = [_peak_mib(scenario_path, tmp_path / t1, "400", [*argv, t1]) for t1 in ("3", "2500")]
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks


def _spy_sampling(monkeypatch):
    """The list to which each evaluate_scenario call appends its sample count."""
    evaluate = waveform.evaluate_scenario
    calls = []

    def spy(scenario, angles):
        calls.append(len(angles))
        return evaluate(scenario, angles)

    monkeypatch.setattr(waveform, "evaluate_scenario", spy)
    return calls


@pytest.mark.parametrize("noise", ["0", "0.01"])
def test_measure_samples_each_row_once(capsys, monkeypatch, scenario_path, tmp_path, noise):
    # one pass: every chunk is sampled once from row 0, and the estimate's two reference
    # probes follow the chunk that completes the rows around t1 = 200 and t2
    calls = _spy_sampling(monkeypatch)
    argv = ["measure", str(scenario_path), "--periods", "40", "--t1-angle", "200"]
    code, _, err = _run(capsys, [*argv, "--noise", noise, "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    rows = locus.stream_window(waveform.sample_angles(1000, 40.0), 200.0)
    last = (rows.stop - 1) // _CHUNK  # the chunk that holds the window's last row
    sizes = _chunk_sizes(40001)
    assert 0 < last < len(sizes) - 1
    assert calls == [*sizes[: last + 1], 2, *sizes[last + 1 :]]


def test_rejected_estimate_costs_only_the_window(capsys, monkeypatch, scenario_path, tmp_path):
    # an overflowing estimate stops the stream at the chunk that completes the window:
    # the chunks after it are never sampled, and the run leaves no output
    calls = _spy_sampling(monkeypatch)
    argv = ["measure", str(scenario_path), "--periods", "1000", "--noise", "1e300"]
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, [*argv, "--t1-angle", "300", "--out", str(out)])
    _assert_rejected(code, stdout, err, expected=3)
    rows = locus.stream_window(waveform.AngleGrid(1000, 1000.0), 300.0)
    sizes = _chunk_sizes(1000001)
    last = (rows.stop - 1) // _CHUNK
    assert last < len(sizes) - 1
    assert calls == sizes[: last + 1]
    assert list(tmp_path.iterdir()) == []


def _peak_from_first_chunk(capsys, monkeypatch, argv):
    """The traced heap peak of a streamed run of ``argv``, from its first chunk on."""
    sample_chunks = waveform.sample_chunks

    def traced(*args):
        tracemalloc.start()
        yield from sample_chunks(*args)

    monkeypatch.setattr(waveform, "sample_chunks", traced)
    try:
        code, _, err = _run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    return peak


def test_streamed_simulate_working_set(capsys, monkeypatch, scenario_path, tmp_path):
    # traced from the first chunk on, past the grid's size check and the basis: sampling,
    # both pipelines and the five CSV renders of one chunk at a time; about 0.68 MiB with
    # chunks of 2048 rows, 1.23 MiB with 4096, and 0.04 MiB more when the first chunk
    # also builds the CSV word tables
    argv = ["simulate", str(scenario_path), "--periods", "100", "--out", str(tmp_path)]
    peak = _peak_from_first_chunk(capsys, monkeypatch, argv)
    assert peak < 2**20, peak


def test_streamed_measure_working_set(capsys, monkeypatch, scenario_path, tmp_path):
    # traced from the first chunk on, past the grid's and the window's checks: sampling,
    # the noise draws, the copies of the window rows, the estimate and the render of one
    # chunk at a time; about 0.49 MiB with chunks of 2048 rows, 0.85 MiB with 4096, and
    # 0.04 MiB more when the first chunk also builds the CSV word tables
    argv = ["measure", str(scenario_path), "--periods", "100", "--noise", "0.01"]
    peak = _peak_from_first_chunk(capsys, monkeypatch, [*argv, "--out", str(tmp_path)])
    assert peak < 0.7 * 2**20, peak


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's heap trimming")
def test_streamed_simulate_reuses_heap_pages(scenario_path, tmp_path):
    # in a fresh process, so the heap starts small; 49 chunks of about 170 fresh pages
    # each would take over 8000 minor faults, reusing the first chunk's pages about 350
    script = (
        "import resource, sys\n"
        "from locusframe import cli\n"
        "import numpy\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "cli.main(['simulate', sys.argv[1], '--periods', '100', '--out', sys.argv[2]])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(scenario_path), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    assert int(done.stdout.splitlines()[-1]) < 3000


def test_streamed_simulate_builds_gather_tables_once(
    capsys, monkeypatch, scenario_path, tmp_path
):
    # 20 periods are more than four chunks; each segment's phases go into the gather
    # tables once, and no basis is built for these frames
    total_phases = waveform.total_phases
    folded = []

    def spy(segment):
        folded.append(segment)
        return total_phases(segment)

    monkeypatch.setattr(waveform, "total_phases", spy)
    argv = ["simulate", str(scenario_path), "--periods", "20", "--frames", "abc,clarke"]
    code, _, err = _run(capsys, [*argv, "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert 20001 > 4 * _CHUNK
    assert folded == list(load_scenario(scenario_path).segments)


@pytest.mark.parametrize(
    "frames, rotated",
    [("abc,locus123,clarke,dq0", True), ("clarke", True), ("abc", False)],
    ids=["all", "clarke", "abc"],
)
def test_streamed_simulate_rotates_once_per_chunk(
    capsys, monkeypatch, scenario_path, tmp_path, frames, rotated
):
    # 10 periods are several chunks, each of whose angles gets one cosine and one sine
    # for every frame together; evaluate_scenario's cosine acts on (3, n) blocks, not on
    # 1-D angles
    calls = []

    def spy(name):
        ufunc = getattr(np, name)

        def counted(x, *args, **kwargs):
            if np.ndim(x) == 1:
                calls.append((name, len(x)))
            return ufunc(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)

    spy("cos")
    spy("sin")
    argv = ["simulate", str(scenario_path), "--periods", "10", "--frames", frames]
    code, _, err = _run(capsys, [*argv, "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    sizes = _chunk_sizes(10001)
    assert len(sizes) > 2
    assert calls == ([(name, n) for n in sizes for name in ("cos", "sin")] if rotated else [])


def test_numpy_random_loads_only_with_noise(scenario_path, tmp_path):
    # a noiseless measure never makes a generator; the noisy run is the control that
    # shows the check can fail
    script = (
        "import sys\n"
        "from locusframe import cli\n"
        "cli.main(['measure', *sys.argv[1:]])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": _SRC}
    before = "import sys, numpy\nprint('numpy.random' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", before], capture_output=True, text=True, env=env, check=True
    )
    if done.stdout.split() == ["True"]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    loaded = []
    for noise in ("0", "0.01"):
        argv = [str(scenario_path), "--noise", noise, "--out", str(tmp_path / noise)]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True
        )
        loaded.append(done.stdout.split()[-1])
    assert loaded == ["False", "True"]


@pytest.mark.parametrize(
    "message, expected",
    [("", "error: out of memory\n"), ("Unable to allocate 8 GiB", "error: Unable to allocate 8 GiB\n")],
    ids=["bare", "numpy"],
)
@pytest.mark.parametrize("subcommand", ["simulate", "measure"])
def test_memory_error_is_one_error_line(
    capsys, monkeypatch, scenario_path, tmp_path, subcommand, message, expected
):
    # an allocation after sample_angles' grid, such as evaluate_scenario's gather
    # tables, can fail on a grid that fit
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(waveform, "evaluate_scenario", exhausted)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, [subcommand, str(scenario_path), "--out", str(out_dir)])
    _assert_rejected(code, out, err)
    assert err == expected
    assert not out_dir.exists()


def test_package_calls_no_stand_ins(capsys, monkeypatch, scenario_path, tmp_path):
    # basis_from_vectors wraps LocusBasis and abc_series is waveform.sample_series;
    # the library and the CLI call the functions behind them
    def stand_in(*args, **kwargs):
        raise AssertionError("stand-in called")

    monkeypatch.setattr(locus, "basis_from_vectors", stand_in)
    monkeypatch.setattr(transform, "abc_series", stand_in)
    assert build_basis(support.unbalanced_segment(), PHASE_A_PEAK).degeneracy > 0.0
    out = str(tmp_path)
    for argv in (
        ["validate", str(scenario_path)],
        ["matrix", str(scenario_path)],
        ["simulate", str(scenario_path), "--out", out],
        ["measure", str(scenario_path), "--out", out],
    ):
        code, _, err = _run(capsys, argv)
        assert (code, err) == (0, "")


_STOCK_DOC = _one_segment_doc((0.7, 1.0, 0.4), (-70.0, -10.0, -90.0))
_STOCK_SEGMENT = _STOCK_DOC["segments"][0]
_FUZZ_EXAMPLES = [
    (_one_segment_doc((1e154, 1e154, 1e154), (0.0, 10.0, 0.0)), 0.0, []),
    (_one_segment_doc((1e200, 1e200, 1e200), (0.0, 10.0, 0.0)), 0.0, []),
    (_one_segment_doc((1.0, 1.0, 1.0), (0.0, 120.0 + 1e-7, -120.0)), 0.0, []),
    (_STOCK_DOC, 1e300, []),
    # 2 pi times a finite frequency or start that overflows
    ({**_STOCK_DOC, "frequency_hz": 1e308}, 0.0, ["--orientation", MAX_NORM]),
    (
        {**_STOCK_DOC, "segments": [_STOCK_SEGMENT, {**_STOCK_SEGMENT, "start_periods": 1e308}]},
        0.0,
        ["--orientation", "angle:0.4", "--normalized"],
    ),
]


@settings(max_examples=120, deadline=None)
@given(case=_fuzz_cases())
@example(case=_FUZZ_EXAMPLES[0])
@example(case=_FUZZ_EXAMPLES[1])
@example(case=_FUZZ_EXAMPLES[2])
@example(case=_FUZZ_EXAMPLES[3])
@example(case=_FUZZ_EXAMPLES[4])
@example(case=_FUZZ_EXAMPLES[5])
def test_cli_fuzz_finite_or_one_error_line(case):
    doc, noise, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _check_run(["validate", str(path)])
        out = _check_run(["matrix", str(path), *flags])
        if out:
            # each forward and inverse row: three numbers, never run together
            lines = out.splitlines()
            assert all(len(line.split()) == 3 for line in lines[4:7] + lines[8:11])
        out_dir = Path(tmp) / "simulate"
        argv = ["simulate", str(path), "--periods", "0.05", "--rate", "64", *flags]
        _check_run(argv + ["--out", str(out_dir)], out_dir)
        out_dir = Path(tmp) / "measure"
        argv = ["measure", str(path), "--noise", repr(noise), "--out", str(out_dir)]
        _check_run(argv, out_dir)


_SRC = os.path.dirname(os.path.dirname(cli.__file__))


def test_csv_tables_built_on_first_write(scenario_path, tmp_path):
    # importing the CLI and running validate and matrix import no numpy and
    # build no CSV word tables; a simulate after them still writes exact CSVs
    script = (
        "import sys\n"
        "from locusframe import cli\n"
        "cli.main(['validate', sys.argv[1]])\n"
        "cli.main(['matrix', sys.argv[1]])\n"
        "built = cli._csv_tables.cache_info().currsize\n"
        "numpy = 'numpy' in sys.modules\n"
        "cli.main(['simulate', sys.argv[1], '--periods', '1', '--out', sys.argv[2]])\n"
        "print(built, numpy, cli._csv_tables.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(scenario_path), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 False 1"
    scenario = load_scenario(scenario_path)
    abc = abc_series(scenario, 1000, 1.0)
    frame = assemble(build_basis(scenario.segments[-1], PHASE_A_PEAK))
    series123, dq0 = pipeline_locus(abc, frame)
    for name, header, series in [
        ("V_abc.csv", "t,Va,Vb,Vc", abc),
        ("V_123_classical.csv", "t,V1,V2,V3", series123),
        ("V_dq0_classical.csv", "t,Vd,Vq,V0", dq0),
    ]:
        assert (tmp_path / name).read_bytes() == _percent_csv(header, series.angles, series.coords)


def _reference_words(texts):
    """One uint32 word per text of at most 4 ASCII bytes, NUL-padded on the left."""
    data = "".join(text.rjust(4, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, dtype=np.uint32)


def test_csv_tables_equal_per_entry_strings():
    # the tables read from one %-format each hold, word for word, the words of the
    # entries' own strings: a group with and without its zero padding and sign, and
    # the fraction's two halves with their point, comma and newline
    digits = [f"{g:03d}" for g in range(1000)]
    units = _reference_words(
        text for sign in ("", "-") for text in [sign + str(g) for g in range(1000)] + digits
    )
    high = units.copy()
    high[[0, 2000]] = 0
    reference = (
        units,
        high,
        _reference_words("." + text for text in digits),
        _reference_words(text + end for end in ",\n" for text in digits),
    )
    tables = cli._csv_tables.__wrapped__()
    assert [table.dtype for table in tables] == [np.uint32] * 4
    assert [table.tolist() for table in tables] == [table.tolist() for table in reference]


def test_csv_tables_build_transient_is_small():
    # the build reads each table from one string, not from a Python string per
    # entry: its traced peak stays near the 44 KiB the finished tables hold
    # (about 89 KiB; 320 KiB from 8000 per-entry strings)
    tracemalloc.start()
    try:
        cli._csv_tables.__wrapped__()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


def _env_with_blas_threads(threads):
    """This environment with src on the path and OPENBLAS_NUM_THREADS set to
    ``threads``, or removed when it is None; tests that call main in-process
    leave the variable set in this process."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_blas_threads_default_to_one(scenario_path, tmp_path, threads, expected):
    # main caps OpenBLAS at one thread before numpy loads, unless the variable is set
    script = (
        "import os, sys\n"
        "from locusframe import cli\n"
        "cli.main(['simulate', sys.argv[1], '--periods', '1', '--out', sys.argv[2]])\n"
        "import numpy\n"
        "words = [os.environ['OPENBLAS_NUM_THREADS']]\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    words.append(str(len(os.listdir('/proc/self/task'))))\n"
        "print(*words)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(scenario_path), str(tmp_path)],
        capture_output=True,
        text=True,
        env=_env_with_blas_threads(threads),
        check=True,
    )
    words = done.stdout.splitlines()[-1].split()
    assert words[0] == expected
    if threads is None and len(words) > 1:
        # no BLAS worker threads next to the main one
        assert words[1] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--periods", "100"],
        ["measure", "--periods", "100", "--noise", "0.01", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_blas_threads_do_not_change_bytes(scenario_path, tmp_path, argv):
    # 100 periods make the 3x3 products large enough for OpenBLAS to split them;
    # each run writes into its own working directory, so stdout names the same paths
    outputs = []
    for threads in (None, "2"):
        out_dir = tmp_path / f"threads-{threads}"
        out_dir.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "locusframe.cli", argv[0], str(scenario_path), *argv[1:]],
            capture_output=True,
            cwd=out_dir,
            env=_env_with_blas_threads(threads),
            check=True,
        )
        csvs = {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))}
        outputs.append((done.stdout, done.stderr, csvs))
    assert outputs[0][2]
    assert outputs[0] == outputs[1]


def _importtime(args):
    """(completed run, set of module names) of ``python -X importtime <args>``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        check=True,
    )
    # "import time: <self> | <cumulative> | <indented module name>"
    return done, {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}


@pytest.fixture(scope="module")
def interpreter_modules():
    """Modules this interpreter imports for ``-c pass``, site hooks included."""
    return _importtime(["-c", "pass"])[1]


@pytest.mark.parametrize(
    "scenario, argv",
    [
        *(
            pytest.param("scenario_path", argv, id=" ".join(argv))
            for argv in [
                ["validate"],
                ["matrix"],
                *(
                    ["matrix", "--orientation", orientation, "--normalized", "--segment", "2"]
                    for orientation in ("phase-a-peak", "max-norm", "angle:0.4")
                ),
                # the parsers built from the shared option helpers
                ["simulate", "--help"],
                ["measure", "--help"],
            ]
        ),
        # the [degenerate] branch, where the basis gate rejects the segment
        pytest.param("degenerate_scenario_path", ["validate"], id="validate degenerate"),
        # five segments, three of them rejected, each by a different test of the gate
        pytest.param("degenerate_loci_path", ["validate"], id="validate degenerate_loci.json"),
        # what every locusframe process pays before its subcommand runs
        pytest.param(None, None, id="import locusframe.cli"),
    ],
)
def test_validate_and_matrix_import_no_numpy(request, interpreter_modules, scenario, argv):
    if scenario is None:
        done, imported = _importtime(["-c", "import locusframe.cli"])
    else:
        path = request.getfixturevalue(scenario)
        done, imported = _importtime(["-m", "locusframe.cli", argv[0], str(path), *argv[1:]])
    assert ("[degenerate]" in done.stdout) == (scenario or "").startswith("degenerate")
    assert "locusframe.transform" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    # dataclasses would bring inspect, ast, dis and tokenize into every process
    assert not {"dataclasses", "inspect"} & (imported - interpreter_modules)


def _golden_runs():
    """(argv, stdout) of each "$ <argv>" block of tests/golden_stdout.txt."""
    text = (Path(__file__).parent / "golden_stdout.txt").read_text(encoding="utf-8")
    runs = []
    for block in text.split("$ ")[1:]:
        command, stdout = block.split("\n", 1)
        runs.append((command.split(), stdout))
    return runs


_GOLDEN_RUNS = _golden_runs()


@pytest.mark.parametrize(
    "argv, stdout",
    _GOLDEN_RUNS,
    # the stock scenario's runs are named without its path
    ids=[
        " ".join(a for a in argv if a != "scenarios/unbalance_step.json")
        for argv, _ in _GOLDEN_RUNS
    ],
)
def test_golden_stdout(capsys, argv, stdout):
    # recorded text of validate on the stock and the degenerate-loci scenarios and
    # of every matrix run on the stock one; it pins the sign of printed zeros and,
    # for rejected segments, the degeneracy the gate reports
    path = Path(__file__).resolve().parent.parent / argv[1]
    code, out, err = _run(capsys, [argv[0], str(path), *argv[2:]])
    assert (code, out, err) == (0, stdout, "")


def test_write_series_csv_matches_per_row_format(tmp_path):
    # more than two chunks; signed zeros, values that round to -0.000000 or
    # 0.000001, and values above 100
    n = 2 * _CHUNK + 3
    rng = np.random.default_rng(5)
    coords = rng.uniform(-150.0, 150.0, size=(3, n))
    special = [-0.0, -4e-7, 5e-7, 0.0, 123.4567895, -100.0000005, 1e-7, -5e-7]
    coords[0, : len(special)] = special
    coords[1, -len(special) :] = special
    coords[2, _CHUNK - 4 : _CHUNK + 4] = special
    angles = np.arange(n) * (2.0 * math.pi / 1000.0) + 100.0
    series = TransformedSeries(angles, coords)
    path = tmp_path / "series.csv"
    write_series_csv(path, series, "t,Vd,Vq,V0")
    expected = "t,Vd,Vq,V0\n" + "".join(
        f"{angle:.6f},{coords[0, i]:.6f},{coords[1, i]:.6f},{coords[2, i]:.6f}\n"
        for i, angle in enumerate(angles)
    )
    assert "-0.000000" in expected
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_series_csv_empty_series(tmp_path):
    path = tmp_path / "empty.csv"
    write_series_csv(path, TransformedSeries(np.empty(0), np.empty((3, 0))), "t,Va,Vb,Vc")
    assert path.read_bytes() == b"t,Va,Vb,Vc\n"


def _percent_csv(header, angles, coords) -> bytes:
    """The CSV that per-value "%.6f" formatting gives."""
    lines = [header] + [",".join("%.6f" % x for x in row) for row in np.vstack([angles, coords]).T]
    return "".join(line + "\n" for line in lines).encode()


_TIES = (1000000.0000005, 0.0078125, 0.0234375)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value, rendered",
    [
        # |x|*1e6 lands on k + 0.5: %-formatted, since rint could round either way
        *((tie, False) for tie in _TIES),
        *((math.nextafter(tie, direction), True) for tie in _TIES for direction in (0.0, 2.0e6)),
        # signs, including values that round to -0.000000 and the float tie 5e-7
        (-0.0, True),
        (-4e-7, True),
        (5e-7, False),
        # whole parts with inner zero groups, a carry into the whole part
        (1000.0, True),
        (-1002.003, True),
        (1000000.5, True),
        (999.9999995, False),
        (-999999.9999996, True),
        (-4499999999.25, True),
        # at 2**52 millionths one ulp is 1 and the rounding proof fails
        (4503599627.370496, False),
        (1e300, False),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
    ],
)
def test_write_series_csv_exact_values(tmp_path, value, rendered):
    # the value sits in every column of the rows either side of a chunk edge
    # and of the last row; the middle of each chunk holds ordinary values
    n = 2 * _CHUNK + 3
    coords = np.random.default_rng(9).uniform(-1500.0, 1500.0, size=(3, n))
    angles = np.arange(n) * (2.0 * math.pi / 1000.0)
    edges = [_CHUNK - 1, _CHUNK, n - 1]
    coords[:, edges] = value
    path = tmp_path / "series.csv"
    write_series_csv(path, TransformedSeries(angles, coords), "t,Va,Vb,Vc")
    assert path.read_bytes() == _percent_csv("t,Va,Vb,Vc", angles, coords)
    # rendered from the word tables, or declined to %-formatting
    assert (cli._fixed_rows(np.full(1, value), np.full((3, 1), value)) is not None) == rendered


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# values at or next to a tie of |x|*1e6: decimal half-millionths and dyadic
# fractions, moved by up to two ulps
_NEAR_TIES = st.builds(
    _nudge,
    st.one_of(
        st.integers(-(2**52), 2**52).map(lambda k: (k + 0.5) / 1e6),
        st.builds(lambda m, e: m * 2.0**-e, st.integers(-(2**40), 2**40), st.integers(1, 30)),
    ),
    st.integers(-2, 2),
)


# numpy's overflow and invalid-value warnings; "error" would also turn
# warnings that hypothesis raises while reporting a failure into a crash
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.floats(-5e9, 5e9), _NEAR_TIES), min_size=1))
def test_write_series_csv_matches_percent_format_property(values, tmp_path_factory):
    n = -(-len(values) // 3)
    coords = np.resize(np.array(values), 3 * n).reshape(3, n)
    angles = np.arange(n) * 0.125
    path = tmp_path_factory.getbasetemp() / "property.csv"
    # slices of two rows: one declined value leaves its neighbours rendered
    with mock.patch.object(waveform, "_CHUNK_ROWS", 2):
        write_series_csv(path, TransformedSeries(angles, coords), "t,Vd,Vq,V0")
    assert path.read_bytes() == _percent_csv("t,Vd,Vq,V0", angles, coords)


def test_matrix_lines_format():
    assert matrix_lines(support.FORWARD_CLASSICAL) == GOLDEN_CLASSICAL_TEXT
    assert matrix_lines(np.zeros((3, 3)))[0] == "   0.000   0.000   0.000"
