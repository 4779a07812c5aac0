"""Checks of the program's outputs against the reference computations.

Each ``check_*`` function takes what one operation produced (its printed
text, the files it wrote, or the arrays a library call returned) and returns
a list of failure messages; an empty list means the operation is correct.
Nothing here imports ``locusframe``.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

import reference as ref

#: half a unit in the last place of the CLI's %.6f and %8.3f formats, plus
#: room for float differences between the program and the reference
CSV_TOL = 5e-7 + 1e-9
MATRIX_TOL = 5e-4 + 1e-9
#: library outputs compared in full precision
LIB_TOL = 1e-9

CSV_HEADERS = {
    "V_abc.csv": "t,Va,Vb,Vc",
    "V_123_classical.csv": "t,V1,V2,V3",
    "V_dq0_classical.csv": "t,Vd,Vq,V0",
    "V_ab0_clarke.csv": "t,Valpha,Vbeta,V0",
    "V_dq0_clarke.csv": "t,Vd,Vq,V0",
}

_FLOAT = r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)"


def load_scenario_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _miss(what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [] if err <= tol else [f"{what}: max error {err:.3e} > {tol:.1e}"]


def read_csv(path, header):
    """(angles, (3, n) values) of a CLI CSV, after checking its header."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{os.path.basename(path)}: header {first!r} != {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"{os.path.basename(path)}: {data.shape[1]} columns, expected 4")
    return data[:, 0], data[:, 1:].T


def check_validate(stdout, scenario):
    lines = stdout.splitlines()
    want_head = f"scenario: {scenario.frequency_hz:.6f} Hz, {len(scenario)} segment(s)"
    if not lines or lines[0] != want_head:
        return [f"validate header {lines[:1]!r} != {want_head!r}"]
    if len(lines) != len(scenario) + 1:
        return [f"validate printed {len(lines) - 1} segments, expected {len(scenario)}"]
    pattern = re.compile(
        rf"  segment (\d+): start {_FLOAT} periods, amplitudes {_FLOAT} {_FLOAT} {_FLOAT}, "
        rf"offsets_deg {_FLOAT} {_FLOAT} {_FLOAT}, degeneracy {_FLOAT}(  \[degenerate\])?$"
    )
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        match = pattern.match(line)
        if match is None or int(match.group(1)) != k:
            return [f"validate line {k} malformed: {line!r}"]
        if match.group(10):
            return [f"validate flags segment {k} degenerate"]
        rows.append([float(g) for g in match.groups()[1:9]])
    rows = np.array(rows)
    theta = ref.phase_a_peak(scenario.phases)
    e1 = ref.triple(scenario.amps, scenario.phases, theta)
    e2 = ref.triple(scenario.amps, scenario.phases, theta + 0.5 * np.pi)
    offsets_err = ref.wrap(np.radians(rows[:, 4:7] - scenario.offsets_deg))
    return (
        _miss("validate start", rows[:, 0], scenario.start_periods, CSV_TOL)
        + _miss("validate amplitudes", rows[:, 1:4], scenario.amps, CSV_TOL)
        + _miss("validate offsets", np.degrees(offsets_err), 0.0, CSV_TOL)
        + _miss("validate degeneracy", rows[:, 7], ref.cross_share(e1, e2), CSV_TOL)
    )


def parse_matrix(stdout):
    """Fields of ``locusframe matrix`` output."""
    lines = stdout.splitlines()
    head = re.match(r"segment (\d+), orientation (\S+)$", lines[0])
    theta = re.match(rf"theta_o = {_FLOAT} rad$", lines[1])
    norms = re.match(
        rf"\|e1\| = {_FLOAT}  \|e2\| = {_FLOAT}  degeneracy = {_FLOAT}$", lines[2]
    )
    if not (head and theta and norms) or lines[3] != "forward:" or lines[7] != "inverse:":
        raise ValueError(f"malformed matrix output: {stdout!r}")
    forward = np.array([[float(x) for x in line.split()] for line in lines[4:7]])
    inverse = np.array([[float(x) for x in line.split()] for line in lines[8:11]])
    return {
        "segment": int(head.group(1)),
        "label": head.group(2),
        "theta_o": float(theta.group(1)),
        "norms": (float(norms.group(1)), float(norms.group(2))),
        "degeneracy": float(norms.group(3)),
        "forward": forward,
        "inverse": inverse,
    }


def check_matrix(stdout, scenario, segment, orientation):
    try:
        out = parse_matrix(stdout)
    except (ValueError, IndexError) as exc:
        return [str(exc)]
    k = segment - 1
    amps, phases = scenario.amps[k], scenario.phases[k]
    label = {"phase-a-peak": "classical", "max-norm": "desired"}[orientation]
    if out["segment"] != segment or out["label"] != label:
        return [f"matrix header segment {out['segment']} {out['label']}, want {segment} {label}"]
    printed = out["theta_o"]
    failures = []
    if orientation == "phase-a-peak":
        theta = float(ref.phase_a_peak(phases))
        failures += _miss("matrix theta_o", ref.wrap(printed - theta), 0.0, CSV_TOL)
    else:
        failures += _miss("matrix max-norm theta_o", ref.max_norm_miss(amps, phases, printed), 0.0, 4e-6)
        # the maximizer on the branch the program picked (theta and theta + pi both maximize)
        base = float(-0.5 * np.angle(ref.norm_swing(amps, phases)[0]))
        theta = min((base, base + np.pi), key=lambda t: abs(ref.wrap(t - printed)))
        e1 = ref.triple(amps, phases, printed)
        e2 = ref.triple(amps, phases, printed + 0.5 * np.pi)
        cosine = abs(e1 @ e2) / (np.linalg.norm(e1) * np.linalg.norm(e2))
        failures += _miss("matrix max-norm e1.e2 cosine", cosine, 0.0, 1e-5)
    basis = ref.segment_basis(amps, phases, theta)
    e1, e2 = basis[:, 0], basis[:, 1]
    return failures + (
        _miss("matrix |e1| |e2|", out["norms"], [np.linalg.norm(e1), np.linalg.norm(e2)], CSV_TOL)
        + _miss("matrix degeneracy", out["degeneracy"], ref.cross_share(e1, e2), CSV_TOL)
        + _miss("matrix forward", out["forward"], np.linalg.inv(basis), MATRIX_TOL)
        + _miss("matrix inverse", out["inverse"], basis, MATRIX_TOL)
    )


def check_simulate(stdout, scenario, out_dir, rate, periods):
    paths = {name: os.path.join(out_dir, name) for name in CSV_HEADERS}
    wrote = sorted(line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote "))
    if wrote != sorted(paths.values()):
        return [f"simulate wrote {wrote}, expected {sorted(paths.values())}"]
    angles = ref.grid(rate, periods)
    abc = scenario.signal(angles)
    last = len(scenario) - 1
    theta_o = float(ref.phase_a_peak(scenario.phases[last]))
    forward = np.linalg.inv(ref.segment_basis(scenario.amps[last], scenario.phases[last], theta_o))
    v123 = forward @ abc
    ab0 = ref.CLARKE @ abc
    want = {
        "V_abc.csv": abc,
        "V_123_classical.csv": v123,
        "V_dq0_classical.csv": np.vstack([*ref.park(angles, v123[0], v123[1]), v123[2]]),
        "V_ab0_clarke.csv": ab0,
        "V_dq0_clarke.csv": np.vstack([*ref.park(angles, ab0[0], ab0[1]), ab0[2]]),
    }
    failures = []
    got = {}
    for name, path in paths.items():
        try:
            t, values = read_csv(path, CSV_HEADERS[name])
        except (OSError, ValueError) as exc:
            failures.append(str(exc))
            continue
        if t.size != angles.size:
            failures.append(f"{name}: {t.size} rows, expected {angles.size}")
            continue
        got[name] = values
        failures += _miss(f"{name} angles", t, angles, CSV_TOL)
        failures += _miss(f"{name} values", values, want[name], CSV_TOL)
    basis_rows = angles >= scenario.starts[last]
    if "V_123_classical.csv" in got:
        v1, v2, v3 = got["V_123_classical.csv"][:, basis_rows]
        failures += _miss("basis segment V1^2+V2^2", v1**2 + v2**2, 1.0, 6 * CSV_TOL)
        failures += _miss("basis segment V3", v3, 0.0, CSV_TOL)
    if "V_dq0_classical.csv" in got:
        dq0 = got["V_dq0_classical.csv"][:, basis_rows]
        failures += _miss("basis segment d", dq0[0], np.cos(theta_o), 2 * CSV_TOL)
        failures += _miss("basis segment q", dq0[1], -np.sin(theta_o), 2 * CSV_TOL)
    return failures


def parse_measure(stdout):
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            fields["wrote"] = line[len("wrote "):]
        else:
            key, _, value = line.partition(": ")
            fields[key] = value
    return {
        "rate": int(fields["samples per period"]),
        "t1": float(fields["t1 angle"].removesuffix(" rad")),
        "sigma": float(fields["noise sigma"].partition(" (seed ")[0]),
        "path": fields["wrote"],
        "deviation": float(fields["max forward deviation"]),
    }


def check_measure(stdout, scenario, out_dir, rate, periods, sigma, t1):
    """Printed fields, the measured CSV's residual, and the deviation recomputed.

    Noiseless: the CSV is the reference signal to rounding, and the printed
    deviation equals the one the reference interpolation gives on exact
    samples, below an interpolation-error bound.  Noisy: the residual has mean
    ~ 0 and standard deviation ~ sigma (five standard errors each), and the
    printed deviation agrees with one recomputed from the CSV.
    """
    try:
        out = parse_measure(stdout)
    except (KeyError, ValueError) as exc:
        return [f"malformed measure output ({exc}): {stdout!r}"]
    path = os.path.join(out_dir, "V_abc_measured.csv")
    if out["rate"] != rate or out["path"] != path:
        return [f"measure printed rate {out['rate']} path {out['path']}"]
    failures = _miss("measure t1", out["t1"], t1, CSV_TOL) + _miss("measure sigma", out["sigma"], sigma, CSV_TOL)
    angles = ref.grid(rate, periods)
    try:
        t, values = read_csv(path, "t,Va,Vb,Vc")
    except (OSError, ValueError) as exc:
        return failures + [str(exc)]
    if t.size != angles.size:
        return failures + [f"measure CSV holds {t.size} rows, expected {angles.size}"]
    failures += _miss("measure CSV angles", t, angles, CSV_TOL)
    exact = scenario.signal(angles)
    t2 = t1 + 0.5 * np.pi
    probes = scenario.signal(np.array([t1, t2]))
    from_csv, forward = ref.forward_deviation(
        ref.interp(angles, values, t1), ref.interp(angles, values, t2), probes[:, 0], probes[:, 1]
    )
    # the forward matrix moves by about |F|^2 times a change of its basis entries
    spectral = np.linalg.norm(forward, 2)
    rounding = 10.0 * spectral**2 * CSV_TOL
    printed = out["deviation"]
    if sigma == 0.0:
        failures += _miss("noiseless CSV", values, exact, CSV_TOL)
        recomputed, _ = ref.forward_deviation(
            ref.interp(angles, exact, t1), ref.interp(angles, exact, t2), probes[:, 0], probes[:, 1]
        )
        failures += _miss("noiseless deviation", printed, recomputed, 1e-5 * recomputed + 1e-12)
        step = ref.TWO_PI / rate
        bound = 10.0 * spectral**2 * (step**2 / 8.0) * float(np.max(scenario.amps))
        if not printed <= bound:
            failures.append(f"noiseless deviation {printed:.3e} above interpolation bound {bound:.3e}")
    else:
        residual = values - exact
        n = residual.size
        mean, std = float(residual.mean()), float(residual.std())
        if abs(mean) > 5.0 * sigma / np.sqrt(n) + CSV_TOL:
            failures.append(f"noise mean {mean:.3e} for sigma {sigma}")
        if abs(std / sigma - 1.0) > 5.0 / np.sqrt(2.0 * n):
            failures.append(f"noise std {std:.6e} for sigma {sigma}")
    failures += _miss("deviation from CSV", printed, from_csv, 1e-3 * from_csv + rounding)
    return failures


def check_op(op, returncode, stdout, stderr, scenario):
    """Failure messages of one CLI invocation of a session."""
    if returncode != 0:
        return [f"{op['kind']} exited {returncode}: {stderr.strip()[-300:]}"]
    kind = op["kind"]
    if kind == "validate":
        return check_validate(stdout, scenario)
    if kind == "matrix":
        return check_matrix(stdout, scenario, op["segment"], op["orientation"])
    if kind == "simulate":
        return check_simulate(stdout, scenario, op["out"], op["rate"], op["periods"])
    return check_measure(stdout, scenario, op["out"], op["rate"], op["periods"], op["sigma"], op["t1"])


def check_frames(batch, grid, out):
    """Per-segment failure lists of one chunk of the frames-batch workload.

    ``batch`` holds the chunk's ``amps``, ``offsets`` (radians) and explicit
    ``angles``; ``out`` the stacked library results: ``theta`` (n, 3 orientations),
    ``forward`` and ``inverse`` (n, 3, 3, 3), ``coords`` (n, 3, 3, g) from
    ``apply`` on ``grid``, ``dq`` (n, 3, 2, g) from ``park_rotate``,
    ``components`` (n, 3) zero/positive/negative and ``ratios`` (n, 2).
    """
    amps = np.asarray(batch["amps"])
    phases = np.asarray(batch["offsets"]) + ref.SHIFTS
    theta = out["theta"]
    bad = {}

    def flag(what, err, tol):
        for i in np.nonzero(~(err <= tol))[0]:
            bad.setdefault(int(i), []).append(f"{what}: error {err[i]:.3e} > {tol:.1e}")

    peak = ref.phase_a_peak(phases)
    flag("phase-a-peak theta_o", np.abs(ref.wrap(theta[:, 0] - peak)), LIB_TOL)
    circular = ref.is_circular(amps, phases)
    max_norm_err = np.where(
        circular,
        np.abs(ref.wrap(theta[:, 1] - peak)),
        ref.max_norm_miss(amps, phases, theta[:, 1]),
    )
    flag("max-norm theta_o", max_norm_err, 1e-8)
    flag("explicit theta_o", np.abs(ref.wrap(theta[:, 2] - np.asarray(batch["angles"]))), LIB_TOL)

    basis = ref.segment_basis(amps[:, None, :], phases[:, None, :], theta)
    forward = np.linalg.inv(basis)
    scale = np.max(np.abs(forward), axis=(2, 3))
    flag("inverse = [e1 e2 e3]", np.max(np.abs(out["inverse"] - basis), axis=(1, 2, 3)), LIB_TOL)
    flag("forward = inv", np.max(np.abs(out["forward"] - forward) / scale[..., None, None], axis=(1, 2, 3)), LIB_TOL)
    identity = out["forward"] @ out["inverse"] - np.eye(3)
    flag("forward . inverse = I", np.max(np.abs(identity), axis=(1, 2, 3)), LIB_TOL)
    third = out["forward"][:, :, 2, :]
    flag("shared third row", np.max(np.abs(third - third[:, :1, :]), axis=(1, 2)), LIB_TOL)

    rel = grid[None, None, :] - theta[:, :, None]
    coords = out["coords"]
    flag("unit quadrature V1", np.max(np.abs(coords[:, :, 0] - np.cos(rel)), axis=(1, 2)), LIB_TOL)
    flag("unit quadrature V2", np.max(np.abs(coords[:, :, 1] - np.sin(rel)), axis=(1, 2)), LIB_TOL)
    flag("null third channel", np.max(np.abs(coords[:, :, 2]), axis=(1, 2)), LIB_TOL)
    d, q = out["dq"][:, :, 0], out["dq"][:, :, 1]
    flag("constant d", np.max(np.abs(d - np.cos(theta)[..., None]), axis=(1, 2)), LIB_TOL)
    flag("constant q", np.max(np.abs(q + np.sin(theta)[..., None]), axis=(1, 2)), LIB_TOL)

    p = ref.phasors(amps, phases)
    seq = ref.fortescue(p)
    comps = out["components"]
    flag("fortescue", np.max(np.abs(comps - seq), axis=1), 1e-12)
    flag("fortescue round trip", np.max(np.abs(ref.from_sequence(comps) - p), axis=1), 1e-12)
    want = np.stack([np.abs(seq[:, 2]), np.abs(seq[:, 0])], axis=1) / np.abs(seq[:, 1:2])
    flag("unbalance ratios", np.max(np.abs(out["ratios"] - want), axis=1), 1e-12)
    return [bad.get(i, []) for i in range(amps.shape[0])]
