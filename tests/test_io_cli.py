import errno
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import references
from conftest import loaded_modules, two_mode_system
from convrate import (
    AbstractionParams,
    GuaranteeReport,
    MkConstraint,
    ParameterError,
    SystemModel,
    check_guarantee,
    co_simulate,
    lyapunov_abstraction,
)
from convrate import cli, scheduler, simulate
from convrate.cli import _make_disturbances, run
from convrate.io import (
    CSV_BLOCK_ROWS,
    DocumentError,
    load_system,
    system_from_document,
    write_table,
)

SCALAR_DOC = {
    "name": "scalar-demo",
    "modes": [
        {"id": 0, "label": "execute", "A": [[0.5]]},
        {"id": 1, "label": "skip", "A": [[1.2]]},
    ],
}


@pytest.fixture
def scalar_path(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(SCALAR_DOC))
    return str(path)


#: The modes of ``counterexample.system()``.
DEMO_DOC = {
    "modes": [
        {"id": 0, "label": "execute", "A": [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        {"id": 1, "label": "skip", "A": [[0.5, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
    ],
}


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO_DOC))
    return str(path)


class TestDocuments:
    def test_unknown_keys_are_ignored(self):
        doc = dict(SCALAR_DOC, lipschitz=1.2, notes="not part of the format")
        system, reference = system_from_document(doc), system_from_document(SCALAR_DOC)
        assert system.modes.keys() == reference.modes.keys()
        assert all(np.array_equal(system.modes[m], reference.modes[m]) for m in system.modes)
        assert (system.disturbance_bound, system.cost_weight, system.labels) == (
            reference.disturbance_bound, reference.cost_weight, reference.labels)

    def test_missing_modes(self):
        with pytest.raises(DocumentError, match="modes"):
            system_from_document({"name": "x"})

    def test_non_square_matrix(self):
        doc = {"modes": [{"id": 0, "A": [[1.0, 2.0]]}]}
        with pytest.raises(DocumentError, match=r"modes\[0\].A"):
            system_from_document(doc)

    def test_duplicate_ids(self):
        doc = {"modes": [{"id": 0, "A": [[1.0]]}, {"id": 0, "A": [[2.0]]}]}
        with pytest.raises(DocumentError, match="duplicate"):
            system_from_document(doc)

    def test_mismatched_mode_sizes(self):
        doc = {"modes": [{"id": 0, "A": [[1.0]]},
                         {"id": 1, "A": [[1.0, 0.0], [0.0, 1.0]]}]}
        with pytest.raises(DocumentError, match="expected 1x1"):
            system_from_document(doc)

    @pytest.mark.parametrize("doc, fragments", [
        ({"modes": [{"id": -1, "A": [[0.5]]}]}, ("id", "non-negative", "got -1")),
        ({"modes": [{"id": 1, "A": [[0.5]]}]}, ("0 (nominal execution) must be declared",)),
        ({"modes": [{"id": 0, "A": [[1.0]]}, {"id": 1, "A": [[1.0, 0.0], [0.0, 1.0]]}]},
         ("mode 1 matrix is 2x2, expected 1x1",)),
        (dict(SCALAR_DOC, disturbance_bound=-0.5), ("disturbance_bound", "got -0.5")),
        (dict(SCALAR_DOC, disturbance_bound=math.nan), ("disturbance_bound", "got nan")),
        (dict(SCALAR_DOC, disturbance_bound=True), ("disturbance_bound", "got True")),
        (dict(SCALAR_DOC, cost_weight_Q=[[1.0, 0.0], [0.0, 1.0]]), ("cost_weight", "1x1")),
    ])
    def test_invalid_system_is_a_document_error(self, doc, fragments, tmp_path, capsys):
        with pytest.raises(DocumentError) as info:
            system_from_document(doc)
        assert all(fragment in str(info.value) for fragment in fragments)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {info.value}\n"

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError, match="line 1"):
            load_system(path)

    def test_default_labels(self):
        system = system_from_document({"modes": [{"id": 0, "A": [[0.5]]}]})
        assert system.labels[0] == "mode-0"


class TestAnalyzeCommand:
    def test_robust_scalar(self, scalar_path, capsys):
        # rho must strictly exceed the nominal spectral radius (0.5 here)
        code = run(["analyze", scalar_path, "--method", "robust", "--rho", "0.6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho[0]: 0.6" in out
        assert f"rho[1]: {0.6 + 0.7!r}" in out

    def test_rho_at_spectral_radius_rejected(self, scalar_path, capsys):
        code = run(["analyze", scalar_path, "--method", "robust", "--rho", "0.5"])
        assert code == 2
        assert "spectral radius" in capsys.readouterr().err

    def test_lyapunov_writes_params(self, scalar_path, tmp_path, capsys):
        out_path = tmp_path / "params.json"
        code = run(["analyze", scalar_path, "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["method"] == "lyapunov"
        assert doc["rho"]["1"] == pytest.approx(1.2, abs=1e-12)

    def test_invalid_rho_is_usage_error(self, scalar_path, capsys):
        code = run(["analyze", scalar_path, "--method", "robust", "--rho", "1.5"])
        assert code == 2
        assert "rho must be < 1" in capsys.readouterr().err

    def test_lyapunov_at_n96(self, tmp_path, capsys):
        # the Kronecker system of n = 96 would hold 96^4 floats (680 MB)
        rng = np.random.default_rng(96)
        q, _ = np.linalg.qr(rng.standard_normal((96, 96)))
        A0 = q @ np.diag(rng.uniform(-0.5, 0.5, 96)) @ q.T
        modes = [A0, A0 + 0.5 * np.outer(q[:, 0], q[:, 1]), 0.5 * A0]
        path = tmp_path / "n96.json"
        path.write_text(json.dumps({"modes": [{"id": i, "A": A.tolist()}
                                              for i, A in enumerate(modes)]}))
        assert run(["analyze", str(path), "--method", "lyapunov"]) == 0
        out = capsys.readouterr().out
        rates = [line for line in out.splitlines() if line.startswith("rho[")]
        assert [line.split(":")[0] for line in rates] == ["rho[0]", "rho[1]", "rho[2]"]
        assert float(rates[0].split()[1]) < 1.0

    def test_unstable_nominal_lyapunov(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"modes": [{"id": 0, "A": [[1.1]]}]}))
        code = run(["analyze", str(path), "--method", "lyapunov"])
        assert code == 1
        assert "no Lyapunov certificate" in capsys.readouterr().err


class TestMkCheckCommand:
    def test_proven(self, scalar_path, capsys):
        code = run(["mk-check", scalar_path, "--m", "1", "--K", "2",
                    "--method", "robust", "--rho", "0.6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proven stable" in out
        rho_line = next(line for line in out.splitlines() if line.startswith("rho_tilde:"))
        assert float(rho_line.split(":")[1]) == pytest.approx(math.sqrt(0.6 * 1.3), rel=1e-12)

    def test_not_proven_with_hint(self, scalar_path, capsys):
        code = run(["mk-check", scalar_path, "--m", "1", "--K", "10",
                    "--method", "robust", "--rho", "0.6"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not proven" in out
        assert "jsr" in out

    def test_json_record(self, scalar_path, capsys):
        code = run(["mk-check", scalar_path, "--m", "1", "--K", "2", "--json",
                    "--method", "robust", "--rho", "0.6", "--r0", "1.0"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["proven_stable"] is True
        assert record["safe_initial_radius"] > 0

    def test_demo_not_proven(self, demo_path, capsys):
        code = run(["mk-check", demo_path, "--m", "2", "--K", "4",
                    "--method", "robust", "--rho", "0.9"])
        assert code == 1
        assert "not proven" in capsys.readouterr().out

    def test_overshoot_past_the_float_range(self, tmp_path, capsys):
        # alpha_tilde = (rho1/rho0)^1000 overflows a float: it is inf, not a traceback
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps({"modes": [{"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]},
                                              {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}]}))
        common = ["mk-check", str(path), "--m", "1000", "--K", "2000",
                  "--method", "robust", "--rho", "0.6"]
        assert run([*common, "--r0", "1.0"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "alpha_tilde: inf\n" in out and "safe initial radius: 0.0\n" in out
        assert out.endswith("verdict: proven stable\n")
        assert run([*common, "--json"]) == 0
        out = capsys.readouterr().out
        assert '"alpha_tilde": Infinity' in out
        assert json.loads(out)["combined_overshoot"] == math.inf


class TestSimulateCommand:
    def test_nominal_run_holds(self, scalar_path, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = run(["simulate", scalar_path, "--sigma", "0,0,0,0",
                    "--x0", "1.0", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,sigma,w_norm,x_norm,vbar,kappa,cost_bound"
        assert len(lines) == 6
        assert "guarantee holds" in capsys.readouterr().err

    def test_demo_periodic_growth(self, demo_path, tmp_path):
        out_path = tmp_path / "growth.csv"
        sigma = ",".join(str(s) for s in (0, 0, 1, 1) * 6)
        code = run(["simulate", demo_path, "--sigma", sigma,
                    "--x0", "dominant:0,0,1,1", "--out", str(out_path)])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        norms = [float(row[3]) for row in rows]
        for i in range(1, 7):
            assert norms[4 * i] > 250.0**i * norms[0]

    def test_malformed_sigma_file(self, scalar_path, tmp_path, capsys):
        bad = tmp_path / "sigma.txt"
        bad.write_text("0,definitely-not-a-mode,1")
        code = run(["simulate", scalar_path, "--sigma", str(bad)])
        assert code == 2
        assert "could not parse" in capsys.readouterr().err

    def test_long_inline_sigma_equals_the_file(self, scalar_path, tmp_path, capsys):
        # 200 modes are too long a text for a file name; it is read inline
        sigma = ",".join(str(k % 3 // 2) for k in range(200))
        sigma_path = tmp_path / "sigma.txt"
        sigma_path.write_text(sigma)
        outputs = []
        for text in (sigma, str(sigma_path)):
            assert run(["simulate", scalar_path, "--sigma", text, "--x0", "1.0"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].out.splitlines()) == 202

    def test_long_malformed_Q_is_a_usage_error(self, scalar_path, capsys):
        text = "[[" + "1," * 149
        code = run(["analyze", scalar_path, "--Q", text])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --Q: expected inline JSON or an existing file, got {text!r}\n")

    def test_worst_pattern_requires_steps(self, scalar_path, capsys):
        code = run(["simulate", scalar_path, "--sigma", "mk-worst:1,2"])
        assert code == 2

    def test_nan_tolerance_is_refused(self, scalar_path, tmp_path, capsys):
        code = run(["simulate", scalar_path, "--sigma", "0,1,0", "--x0", "1.0",
                    "--rel-tol", "nan", "--out", str(tmp_path / "trace.csv")])
        assert code == 2
        assert "rel_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_writes_no_row(self, scalar_path, rel_tol, capsys):
        # the tolerance is refused before the co-simulation, so no CSV is streamed
        code = run(["simulate", scalar_path, "--sigma", "0,1,0", "--x0", "1.0",
                    "--rel-tol", rel_tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: rel_tol must be finite and >= 0, got {float(rel_tol)}\n"

    def test_seeded_disturbance_is_reproducible(self, tmp_path):
        doc = dict(SCALAR_DOC, disturbance_bound=0.2)
        path = tmp_path / "disturbed.json"
        path.write_text(json.dumps(doc))
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code = run(["simulate", str(path), "--sigma", "mk-worst:1,2",
                        "--steps", "12", "--w", "seed:7", "--out", str(out_path)])
            assert code == 0
            outputs.append(out_path.read_text())
        assert outputs[0] == outputs[1]

    def test_file_and_stdout_are_identical(self, tmp_path, capsys):
        # long enough to stream several row blocks, for both CSV commands
        doc = dict(SCALAR_DOC, disturbance_bound=0.2)
        path = tmp_path / "disturbed.json"
        path.write_text(json.dumps(doc))
        schedule = ["schedule", str(path), "--method", "robust", "--rho", "0.6",
                    "--steps", "9000"]
        commands = [
            (["simulate", str(path), "--sigma", "mk-worst:1,2", "--steps", "9000",
              "--w", "seed:3"], 9002),
            ([*schedule, "--rho-hat", "0.9", "--alpha-hat", "4"], 9001),
            ([*schedule, "--C", "2.0", "--v0", "1.0", "--policy", "random", "--seed", "5"],
             9001),
        ]
        for common, lines in commands:
            assert run(common) == 0
            printed = capsys.readouterr()
            out_path = tmp_path / f"{common[0]}.csv"
            assert run([*common, "--out", str(out_path)]) == 0
            written = capsys.readouterr()
            assert out_path.read_text() == printed.out
            assert len(printed.out.splitlines()) == lines
            assert written.out == "" and written.err == printed.err

    def test_undeclared_mode_prints_the_key_error_message(self, scalar_path, capsys):
        code = run(["simulate", scalar_path, "--sigma", "0,2,0"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: mode 2 is not declared by this system\n")

    @pytest.mark.parametrize("x0", ["dominant:a", "dominant:", "dominant:0,,1"])
    def test_malformed_dominant_window_names_the_flag(self, scalar_path, x0, capsys):
        code = run(["simulate", scalar_path, "--sigma", "0,1,0", "--x0", x0])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --x0: could not parse mode list {x0!r}\n")


class TestPathErrors:
    """A path that cannot be read or written is an error line naming it, exit 2."""

    @pytest.mark.parametrize("argv, named, errno_code", [
        (["jsr", "{missing}", "--m", "1", "--K", "3"], "{missing}", errno.ENOENT),
        (["mk-check", "{dir}", "--m", "1", "--K", "3"], "{dir}", errno.EISDIR),
        (["simulate", "{system}", "--sigma", "{dir}"], "{dir}", errno.EISDIR),
        (["analyze", "{system}", "--Q", "{dir}"], "{dir}", errno.EISDIR),
        (["simulate", "{system}", "--sigma", "0,1", "--out", "{missing}/trace.csv"],
         "{missing}/trace.csv", errno.ENOENT),
        (["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--out",
          "{missing}/decisions.csv"], "{missing}/decisions.csv", errno.ENOENT),
        (["analyze", "{system}", "--out", "{missing}/params.json"], "{missing}/params.json",
         errno.ENOENT),
    ], ids=["missing system", "directory system", "directory --sigma", "directory --Q",
            "simulate --out", "schedule --out", "analyze --out"])
    def test_unusable_path_is_exit_2(self, argv, named, errno_code, scalar_path, tmp_path,
                                     capsys):
        paths = {"system": scalar_path, "dir": str(tmp_path), "missing": str(tmp_path / "no")}
        code = run([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # a failed command prints no partial result
        assert captured.err == f"error: {named.format(**paths)}: {os.strerror(errno_code)}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, forked", [
        (["analyze", "{system}"], False),
        (["simulate", "{system}", "--sigma", "0,1"], True),
        (["simulate", "{system}", "--sigma", "mk-worst:1,2", "--steps", str(CSV_BLOCK_ROWS + 1)],
         True),
        (["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "3"], True),
        (["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "9000"],
         True),
    ], ids=["analyze", "simulate", "simulate past a buffer", "schedule",
            "schedule past a buffer"])
    def test_failed_write_to_out_is_exit_2(self, argv, forked, scalar_path, capsys, forks):
        # the write, or the close that flushes a short output, fails with no path of its
        # own; the command names --out, and its child, if any, has been waited for
        code = run([arg.format(system=scalar_path) for arg in argv] + ["--out", "/dev/full"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: /dev/full: {os.strerror(errno.ENOSPC)}\n")
        assert len(forks) == forked and all(map(_reaped, forks))

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "{system}", "--sigma", "mk-worst:1,2", "--steps", "100000", "--w",
         "seed:7"],
        ["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "100000"],
    ], ids=["simulate", "schedule"])
    def test_failed_write_to_out_in_a_process(self, argv, unbuffered, tmp_path):
        # through main() and its exit, which run() in process never reaches
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps({"modes": [{"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]},
                                              {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}],
                                    "disturbance_bound": 0.1}))
        command = [sys.executable, "-m", "convrate",
                   *(arg.format(system=path) for arg in argv), "--out", "/dev/full"]
        result = subprocess.run(command, capture_output=True, env=_convrate_env(unbuffered),
                                timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, b"", f"error: /dev/full: {os.strerror(errno.ENOSPC)}\n".encode())
        if Path("/proc/self/cmdline").exists():  # the stream's child left with the command
            assert _running(str(path)) == []

    def test_error_without_a_path_propagates(self, scalar_path):
        with mock.patch.object(cli, "cmd_jsr", side_effect=BrokenPipeError(errno.EPIPE, "pipe")):
            with pytest.raises(BrokenPipeError):
                run(["jsr", scalar_path, "--m", "1", "--K", "3"])


def _in_both_modes(cases: dict[str, object]) -> list:
    """The parameters ``(value, unbuffered)`` of each case: buffered under the case's id,
    and with ``PYTHONUNBUFFERED`` under the id with ``-unbuffered`` appended."""
    return [pytest.param(value, unbuffered, id=name + "-unbuffered" * unbuffered)
            for name, value in cases.items() for unbuffered in (False, True)]


class TestClosedPipe:
    @pytest.mark.parametrize("argv, unbuffered", _in_both_modes({
        "schedule": ["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2",
                     "--steps", "100000"],
        "simulate": ["simulate", "{system}", "--sigma", "mk-worst:1,2", "--steps", "100000"],
    }))
    def test_reader_closing_the_pipe_is_exit_1_without_a_traceback(self, argv, unbuffered,
                                                                   scalar_path):
        # e.g. ``convrate schedule ... | head -n 1``: the CSV is far longer than a pipe buffer
        command = [sys.executable, "-m", "convrate", *(a.format(system=scalar_path) for a in argv)]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_convrate_env(unbuffered)) as process:
            assert process.stdout.readline().startswith(b"k,")
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait(timeout=60) == 1
        assert err == b""  # neither a traceback nor an "Exception ignored" line


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["jsr", "{system}", "--m", "1", "--K", "2", "--length", "4"],
], ids=["help", "jsr"])
def test_closed_stdout_is_exit_2_without_a_traceback(argv, scalar_path):
    # e.g. ``convrate --help >&-``: Python starts such a process with sys.stdout None
    command = [sys.executable, "-m", "convrate", *(a.format(system=scalar_path) for a in argv)]
    result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command],
                            stderr=subprocess.PIPE, env=_convrate_env(False), timeout=60)
    assert result.returncode == 2
    assert result.stderr == f"error: <stdout>: {os.strerror(errno.EBADF)}\n".encode()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["--help"],
    ["jsr", "{system}", "--m", "1", "--K", "2", "--length", "8"],
    ["jsr", "{system}", "--m", "1"],
    ["jsr", "{system}", "--m", "6", "--K", "12", "--length", "200"],
    ["simulate", "{system}", "--sigma", "0,1,0,1", "--out", "-"],
], ids=["help", "jsr", "usage-error", "refusal", "simulate"])
def test_closed_stderr_keeps_the_exit_code_and_stdout(argv, unbuffered, scalar_path, capsys):
    # e.g. ``convrate --help 2>&-``: Python starts such a process with sys.stderr None, and
    # print(file=None) and argparse's usage would write to stdout
    argv = [a.format(system=scalar_path) for a in argv]
    code = run(argv)
    out, err = capsys.readouterr()
    result = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m",
                             "convrate", *argv], stdout=subprocess.PIPE,
                            env=_convrate_env(unbuffered), timeout=60)
    assert result.returncode == code
    assert result.stdout.decode() == out
    if code:  # a refusal or a usage error: its message is dropped, not moved to stdout
        assert out == "" and err


def _convrate_env(unbuffered: bool) -> dict:
    """The environment of a ``python -m convrate`` run, with or without ``PYTHONUNBUFFERED``."""
    import convrate

    env = dict(os.environ, PYTHONPATH=str(Path(convrate.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _running(marker: str) -> list[int]:
    """The processes whose command line holds ``marker``, read from /proc."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if marker.encode() in cmdline.read_bytes():
                found.append(int(cmdline.parent.name))
        except OSError:  # the process ended while the directory was read
            continue
    return found


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestFailedStdout:
    """A failed write to stdout other than a closed pipe is an error line, exit 2, in
    either buffering mode, with nothing after it: no traceback, no failed flush at exit."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "{system}", "--method", "robust", "--rho", "0.6"],
        ["jsr", "{system}", "--m", "1", "--K", "3"],
        ["simulate", "{system}", "--sigma", "0,1,0"],
        ["simulate", "{system}", "--sigma", "mk-worst:1,2", "--steps", "20000"],
        ["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "3"],
        ["schedule", "{system}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "20000"],
        ["--help"],
        ["analyze", "--help"],
    ], ids=["analyze", "jsr", "simulate", "simulate past a buffer", "schedule",
            "schedule past a buffer", "help", "analyze help"])
    def test_full_stdout_is_exit_2(self, argv, unbuffered, scalar_path):
        command = [sys.executable, "-m", "convrate", *(a.format(system=scalar_path) for a in argv)]
        with open("/dev/full", "wb") as full:
            result = subprocess.run(command, stdout=full, stderr=subprocess.PIPE,
                                    env=_convrate_env(unbuffered), timeout=120)
        assert result.returncode == 2
        assert result.stderr == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n".encode()
        if Path("/proc/self/cmdline").exists():  # the stream's child left with the command
            assert _running(scalar_path) == []

    def test_failed_fork_is_not_a_stdout_error(self, unbuffered, scalar_path):
        # an OSError of os.fork propagates as before, though stdout is full too
        code = ("import errno, os, sys\n"
                "def fork():\n"
                "    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))\n"
                "os.fork = fork\n"
                "from convrate.cli import main\n"
                f"sys.argv = ['convrate', 'schedule', {scalar_path!r}, '--rho-hat', '0.9',"
                " '--alpha-hat', '2']\n"
                "main()\n")
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, "-c", code], stdout=full,
                                    stderr=subprocess.PIPE, env=_convrate_env(unbuffered),
                                    timeout=120)
        assert result.returncode == 1
        assert result.stderr.startswith(b"Traceback")
        assert result.stderr.endswith(f"[Errno {errno.EAGAIN}] "
                                      f"{os.strerror(errno.EAGAIN)}\n".encode())
        assert b"<stdout>" not in result.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["help", "analyze help"])
def test_help_to_a_closed_pipe_is_exit_1_without_a_message(argv, unbuffered):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)  # the reader has gone before the help is written
    try:
        result = subprocess.run([sys.executable, "-m", "convrate", *argv], stdout=write_fd,
                                stderr=subprocess.PIPE, env=_convrate_env(unbuffered),
                                timeout=60)
    finally:
        os.close(write_fd)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_usage_error_on_a_full_stderr_is_still_exit_2():
    # only help, on stdout, raises: a failed write to stderr is dropped
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "convrate", "bogus"],
                                stdout=subprocess.PIPE, stderr=full, env=_convrate_env(True),
                                timeout=60)
    assert (result.returncode, result.stdout) == (2, b"")


#: ``argparse.ArgumentParser._print_message`` as Python 3.10 has it: a failed write raises.
_RAISING_PRINT_MESSAGE = (
    "import argparse, sys\n"
    "def _print_message(self, message, file=None):\n"
    "    if message:\n"
    "        (file or sys.stderr).write(message)\n"
    "argparse.ArgumentParser._print_message = _print_message\n"
)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("raising", [False, True], ids=["argparse drops", "argparse raises"])
@pytest.mark.parametrize("argv, code", [
    (["bogus"], 2),
    (["jsr", "{absent}", "--m", "1", "--K", "3"], 2),
    (["jsr", "{system}", "--m", "1", "--K", "3", "--length", "40"], 1),
    (["analyze", "{system}", "--method", "robust", "--rho", "0.6"], 0),
], ids=["usage error", "missing document", "refusal", "success"])
def test_full_stderr_leaves_the_exit_code(argv, code, raising, unbuffered, scalar_path, tmp_path):
    # a failed write to stderr is dropped in either buffering mode, whether argparse
    # drops its own failed writes (Python 3.11 on) or raises (Python 3.10), so the exit
    # code is the command's own: not 120 from a failed flush at exit, nor 1 from a traceback
    argv = [a.format(system=scalar_path, absent=tmp_path / "absent.json") for a in argv]
    program = (_RAISING_PRINT_MESSAGE if raising else "import sys\n") + (
        f"sys.argv = ['convrate', *{argv!r}]\n"
        "from convrate.cli import main\n"
        "main()\n")
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-c", program], stdout=subprocess.PIPE,
                                stderr=full, env=_convrate_env(unbuffered), timeout=60)
    assert result.returncode == code
    assert (result.stdout == b"") == (code != 0)


@pytest.mark.parametrize("argv, lines, last_err", [
    (["jsr", "{system}", "--m", "1", "--K", "2", "--length", "8"], 3, None),
    (["simulate", "{system}", "--sigma", "mk-worst:1,2", "--steps", "5000"], 5002,
     "guarantee holds"),
    (["analyze", "{system}", "--method", "robust", "--rho", "0.6"], 8, None),
    (["--help"], None, None),
], ids=["jsr", "simulate", "analyze", "help"])
def test_block_buffered_output_is_complete_at_exit(argv, lines, last_err, scalar_path,
                                                   capsys):
    # without PYTHONUNBUFFERED, stdout and stderr to pipes are block-buffered, and the
    # CLI leaves through os._exit: what it printed is all there, as run() prints it
    argv = [a.format(system=scalar_path) for a in argv]
    result = subprocess.run([sys.executable, "-m", "convrate", *argv], capture_output=True,
                            env=_convrate_env(False), timeout=120)
    code = run(argv)
    out, err = capsys.readouterr()
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == (code, out, err)
    assert code == 0
    if lines is not None:
        assert len(out.splitlines()) == lines
    else:
        assert out.startswith("usage: convrate") and out.endswith("\n")
    assert (err.splitlines()[-1].startswith(last_err) if last_err else err == "")


def _streaming_documents() -> dict[str, dict]:
    """n = 1, 3 (with a cost weight) and 32, each with a disturbance bound."""
    rng = np.random.default_rng(32)
    Q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    A0 = Q @ np.diag(rng.uniform(-0.5, 0.5, 32)) @ Q.T
    A1 = A0 + 0.8 * np.outer(Q[:, 0], Q[:, 1])
    return {
        "n1": dict(SCALAR_DOC, disturbance_bound=0.2),
        "n3": {"modes": [{"id": 0, "A": [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]]},
                         {"id": 1, "A": [[1.1, 0.0, 0.2], [0.1, 0.9, 0.0], [0.0, 0.3, 1.0]]}],
               "disturbance_bound": 0.1,
               "cost_weight_Q": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]},
        "n32": {"modes": [{"id": 0, "A": A0.tolist()}, {"id": 1, "A": A1.tolist()}],
                "disturbance_bound": 0.1},
    }


STREAMING_DOCUMENTS = _streaming_documents()


def _expected_simulate(path, seq, steps: int, w_text: str, x0=None, rel_tol: float = 1e-9,
                       params=None):
    """CSV, stderr and exit code of ``simulate`` from the one-shot library run:
    ``co_simulate`` with the plant states and ``|x_k|`` of the step-by-step
    references, the cell-by-cell CSV reference and ``check_guarantee``."""
    system = load_system(path)
    if x0 is None:
        x0 = np.ones(system.n) / math.sqrt(system.n)
    if params is None:
        params = lyapunov_abstraction(system)
    w, w_bar = references.cli_disturbances(w_text, steps, system.n, system.disturbance_bound)
    trace = co_simulate(system, params, seq, x0, w, w_bar, steps)
    w_rows = np.zeros((steps, system.n)) if w is None else w
    trace.x = references.plant_states(system, seq, x0, w_rows)[:len(trace)]
    trace.x_norm = references.row_norms(trace.x)
    csv = "\n".join(references.trace_csv_lines(trace)) + "\n"
    err = ""
    if trace.diverged:
        err += f"trace diverged: vbar exceeded the overflow guard at step {len(trace)}\n"
    report = check_guarantee(trace, rel_tol)
    if report.holds:
        return csv, err + f"guarantee holds; max |x_k|/vbar_k = {report.max_ratio:.6g}\n", 0
    return csv, err + (f"guarantee violated at k={report.first_violation}: |x_k| > vbar_k "
                       f"(max ratio 1 + {report.max_ratio - 1.0:.6g})\n"), 1


class TestSimulateStreaming:
    """``simulate`` runs in row blocks and prints what the one-shot library run gives."""

    EDGES = [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]
    DISTURBANCES = ["zero", "const:0.1", "seed:1", "seed:7"]

    def _check(self, tmp_path, capsys, doc: dict, seq, steps: int, w_text: str,
               sigma: str | None = None, extra=(), params=None):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        if sigma is None:
            sigma = tmp_path / "sigma.txt"
            sigma.write_text(",".join(map(str, seq)))
        code = run(["simulate", str(path), "--sigma", str(sigma), "--steps", str(steps),
                    "--w", w_text, *extra])
        printed = capsys.readouterr()
        x0 = None if "--x0" not in extra else [float(extra[extra.index("--x0") + 1])]
        expected = _expected_simulate(path, seq, steps, w_text, x0, params=params)
        assert (printed.out, printed.err, code) == expected
        return expected

    @pytest.mark.parametrize("w_text", DISTURBANCES)
    @pytest.mark.parametrize("steps", EDGES)
    def test_block_edges_with_cost_weight(self, steps, w_text, tmp_path, capsys):
        seq = references.worst_case_sequence(MkConstraint(1, 2), steps)
        _, err, code = self._check(tmp_path, capsys, STREAMING_DOCUMENTS["n3"], seq, steps,
                                   w_text, sigma="mk-worst:1,2")
        assert code == 0 and err.startswith("guarantee holds")

    @pytest.mark.parametrize("w_text", DISTURBANCES)
    @pytest.mark.parametrize("name", ["n1", "n32"])
    def test_block_edge_by_dimension(self, name, w_text, tmp_path, capsys):
        steps = CSV_BLOCK_ROWS + 1
        seq = references.worst_case_sequence(MkConstraint(1, 2), steps)
        self._check(tmp_path, capsys, STREAMING_DOCUMENTS[name], seq, steps, w_text,
                    sigma="mk-worst:1,2")

    def test_divergence_past_the_first_block(self, tmp_path, capsys):
        # ||A1|| = 1.16 in the Lyapunov norm of 0.5 I, so vbar passes the
        # overflow guard near k = 4,623 while |x_k| grows only linearly
        doc = {"modes": [{"id": 0, "A": [[0.5, 0.0], [0.0, 0.5]]},
                         {"id": 1, "A": [[1.0, 0.3], [0.0, 1.0]]}]}
        _, err, code = self._check(tmp_path, capsys, doc, (1,) * 6000, 6000, "zero")
        diverged_at = int(err.split("at step ")[1].split("\n")[0])
        assert CSV_BLOCK_ROWS < diverged_at < 6000
        assert code == 0

    def test_divergence_prints_no_warning(self, tmp_path, capsys):
        # vbar passes the overflow guard at step 4,997; the plant states of the rest of
        # that block would overflow, so the plant runs only as far as the kept rows
        doc = {"modes": [{"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]},
                         {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}], "disturbance_bound": 0.1}
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", str(path), "--sigma", "mk-worst:0,2", "--steps", "20000",
                        "--w", "const:0.05"])
        printed = capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):  # the reference runs every step
            expected = _expected_simulate(path, (1,) * 20000, 20000, "const:0.05")
        assert (printed.out, printed.err, code) == expected
        assert printed.err.startswith("trace diverged: vbar exceeded the overflow guard at "
                                      "step 4997\n")

    @pytest.mark.parametrize("steps", [6000, 9000])
    def test_violation_in_a_later_block(self, steps, tmp_path, capsys, monkeypatch):
        # x_k ~ 1.08^k, while vbar ~ 1.6 (1.08 (1 - 1e-4))^k with the too-low
        # skip rate patched in: the ratio passes 1 near k = 4,650; at 9,000
        # steps vbar then passes the overflow guard. |x_k|^2 overflows from
        # k ~ 4,600 on, so the norms there come from scaled rows.
        params = AbstractionParams(alpha=1.6, beta=1.0, rho={0: 0.5, 1: 1.08 * (1 - 1e-4)})
        monkeypatch.setattr(cli, "_build_params", lambda system, args: params)
        doc = {"modes": [{"id": 0, "A": [[0.5]]}, {"id": 1, "A": [[1.08]]}]}
        _, err, code = self._check(tmp_path, capsys, doc, (1,) * steps, steps,
                                   "const:0.001", extra=("--x0", "1.0"), params=params)
        assert code == 1
        first = int(err.split("violated at k=")[1].split(":")[0])
        assert CSV_BLOCK_ROWS < first < 6000
        assert ("trace diverged" in err) == (steps == 9000)

    def test_violation_below_the_print_precision(self, tmp_path, capsys, monkeypatch):
        # |x_k| = 1 while vbar_k = (1 - 2e-9)^k: the ratio 1 + 1e-8 would print as "1"
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.0 - 2e-9})
        monkeypatch.setattr(cli, "_build_params", lambda system, args: params)
        doc = {"modes": [{"id": 0, "A": [[0.5]]}, {"id": 1, "A": [[1.0]]}]}
        _, err, code = self._check(tmp_path, capsys, doc, (1,) * 5, 5, "zero",
                                   extra=("--x0", "1.0"), params=params)
        assert (code, err) == (1, "guarantee violated at k=1: |x_k| > vbar_k "
                                  "(max ratio 1 + 1e-08)\n")

    @pytest.mark.parametrize("modes, bound, sigma, steps", [
        # x_k shrinks by 0.6 every two steps: |x_k|^2 underflows from k ~ 1,400
        ([[[0.5]], [[1.2]]], 0.2, "mk-worst:1,2", 4097),
        # x_k = 1.08^k: |x_k|^2 overflows from k ~ 4,600
        ([[[0.5]], [[1.08]]], None, None, 6000),
    ])
    def test_out_of_range_norms_hold(self, modes, bound, sigma, steps, tmp_path, capsys):
        # vbar_k equals |x_k| here, so the guarantee holds with ratio 1 throughout
        doc = {"modes": [{"id": mode, "A": A} for mode, A in enumerate(modes)]}
        if bound is not None:
            doc["disturbance_bound"] = bound
        seq = (references.worst_case_sequence(MkConstraint(1, 2), steps) if sigma
               else (1,) * steps)
        _, err, code = self._check(tmp_path, capsys, doc, seq, steps, "zero", sigma=sigma)
        assert (code, err) == (0, "guarantee holds; max |x_k|/vbar_k = 1\n")

    @pytest.mark.parametrize("w_text, message", [
        ("const:0.3", "|w_0| = 0.3 exceeds the declared disturbance bound 0.2"),
        ("const:nan", "disturbances contain non-finite entries"),
        ("const:inf", "disturbances contain non-finite entries"),
    ])
    def test_refused_constant_writes_no_row(self, w_text, message, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(STREAMING_DOCUMENTS["n1"]))
        out_path = tmp_path / "trace.csv"
        for out in ([], ["--out", str(out_path)]):
            code = run(["simulate", str(path), "--sigma", "mk-worst:1,2",
                        "--steps", str(2 * CSV_BLOCK_ROWS + 1), "--w", w_text, *out])
            assert code == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("w_text, message", [
        ("seed:-4", "--w: the seed of seed:<s> must be an integer >= 0, got 'seed:-4'"),
        ("seed:abc", "--w: the seed of seed:<s> must be an integer >= 0, got 'seed:abc'"),
        ("const:abc", "--w: the magnitude of const:<v> must be a number, got 'const:abc'"),
        ("const:-1", "--w const: magnitude must be >= 0"),
    ])
    def test_malformed_disturbance_names_the_flag(self, w_text, message, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(STREAMING_DOCUMENTS["n1"]))
        code = run(["simulate", str(path), "--sigma", "0,1,0", "--w", w_text])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_seed_without_bound_writes_no_row(self, scalar_path, capsys):
        code = run(["simulate", scalar_path, "--sigma", "0,1,0", "--w", "seed:1"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: --w seed: the system document declares no disturbance_bound\n")

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("steps", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                       CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1])
    def test_seeded_blocks_equal_the_one_shot_draw(self, steps, n):
        system = SystemModel(modes={0: np.eye(n) * 0.5}, disturbance_bound=0.3)
        source, w_bar = _make_disturbances("seed:7", steps, system)
        blocks = [source[start:min(start + CSV_BLOCK_ROWS, steps)]
                  for start in range(0, steps, CSV_BLOCK_ROWS)]
        w, w_bar_once = references.cli_disturbances("seed:7", steps, n, 0.3)
        assert all(len(block) == CSV_BLOCK_ROWS for block in blocks[:-1])
        joined = np.concatenate(blocks) if blocks else np.empty((0, n))
        assert joined.tobytes() == w.tobytes()
        assert np.broadcast_to(w_bar, steps).tobytes() == w_bar_once.tobytes()

    @pytest.mark.parametrize("w_text", ["zero", "const:0.01", "seed:1"])
    def test_peak_memory_does_not_grow_with_the_states(self, w_text, tmp_path, monkeypatch):
        # a (steps, n) state or disturbance array would add steps * n * 8 bytes, and
        # a whole-horizon float series (vbar, kappa, w_bar, the uniforms) 8 bytes or
        # more a step; the --sigma tuple alone holds about 8 bytes a step. At rho 0.55
        # vbar stays bounded, so every run streams its whole horizon.
        import tracemalloc

        doc = STREAMING_DOCUMENTS["n32"]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        monkeypatch.delattr(os, "fork", raising=False)  # in process: tracemalloc sees it
        peaks = []
        for steps in (20_000, 80_000):
            tracemalloc.start()
            try:
                code = run(["simulate", str(path), "--method", "robust", "--rho", "0.55",
                            "--sigma", "mk-worst:1,2", "--steps", str(steps), "--w", w_text,
                            "--out", str(tmp_path / "trace.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            assert (tmp_path / "trace.csv").read_text().count("\n") == steps + 2
        assert peaks[1] - peaks[0] < 16 * (80_000 - 20_000)


class TestScheduleStreaming:
    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        # a whole-horizon column (choices, admissible sets, stored values, alarms or
        # the w_bar gains) would add 8 bytes or more a step; the stream holds one block
        import tracemalloc

        monkeypatch.delattr(os, "fork", raising=False)  # in process: tracemalloc sees it

        path = tmp_path / "gate4.json"
        system = two_mode_system(np.random.default_rng(4), n=4)
        path.write_text(json.dumps({"modes": [{"id": m, "A": A.tolist()}
                                              for m, A in system.modes.items()]}))
        out = tmp_path / "decisions.csv"
        common = ["schedule", str(path), "--method", "robust", "--rho", "0.9", "--out", str(out)]
        greedy = [*common, "--rho-hat", "0.95", "--alpha-hat", "10"]
        practical = [*common, "--C", "20.0", "--v0", "1.0", "--w-bar", "0.1",
                     "--policy", "random", "--seed", "7"]
        assert run([*greedy, "--steps", "100"]) == 0  # warm-up: imports and first-call caches
        for command in (greedy, practical):
            peaks = []
            for steps in (20_000, 200_000):
                tracemalloc.start()
                try:
                    code = run([*command, "--steps", str(steps)])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0
                assert out.read_text().count("\n") == steps + 1
            assert peaks[1] - peaks[0] < 200_000 - 20_000


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts during the test."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _reaped(pid: int) -> bool:
    """Whether the child ``pid`` has been waited for (a zombie is reaped here, and is not)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state_and_parent = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # the process ended while the directory was read
            continue
        if int(state_and_parent[1]) == pid:
            found.append(int(stat.parent.name))
    return found


#: ``simulate`` and ``schedule`` runs: every ``--w`` mode, block edges, a diverged
#: trace, every policy and an alarm. ``{n3}``, ``{bounded}`` and ``{scalar}`` are
#: system documents.
PIPELINE_CASES = {
    **{f"simulate {w} {steps}": ["simulate", "{n3}", "--sigma", "mk-worst:1,2",
                                 "--steps", str(steps), "--w", w]
       for w, steps in [("zero", CSV_BLOCK_ROWS + 1), ("const:0.1", CSV_BLOCK_ROWS + 1),
                        ("seed:1", CSV_BLOCK_ROWS + 1), ("seed:7", 2 * CSV_BLOCK_ROWS),
                        ("seed:1", 0), ("const:0.1", CSV_BLOCK_ROWS)]},
    "simulate diverged": ["simulate", "{bounded}", "--sigma", "mk-worst:0,2", "--steps",
                          "20000", "--w", "const:0.05"],
    **{f"schedule {policy}": ["schedule", "{scalar}", "--method", "robust", "--rho", "0.6",
                              "--steps", "9000", "--policy", policy, *target]
       for policy, target in [("greedy", ["--rho-hat", "0.9", "--alpha-hat", "4"]),
                              ("round-robin", ["--rho-hat", "0.9", "--alpha-hat", "4"]),
                              ("random", ["--C", "2.0", "--v0", "1.0", "--seed", "5"])]},
    "schedule alarm": ["schedule", "{scalar}", "--C", "1.0", "--v0", "5.0", "--steps", "9000"],
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the streams run in process")
class TestForkedStreams:
    """``simulate`` and ``schedule`` compute their blocks in a forked child while the
    command renders them: the CSV, stdout, stderr and exit code are those of the same
    stream run in process, and no child outlives the command."""

    @pytest.fixture
    def paths(self, tmp_path, scalar_path):
        paths = {"scalar": scalar_path}
        for name, doc in [("n3", STREAMING_DOCUMENTS["n3"]),
                          ("bounded", {"modes": [{"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]},
                                                 {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}],
                                       "disturbance_bound": 0.1})]:
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        return paths

    def _forked_and_in_process(self, argv, capsys, monkeypatch, forks):
        """``(stdout, stderr, exit code)`` of ``argv``, checked equal in both modes."""
        code = run(argv)
        forked = (*capsys.readouterr(), code)
        assert len(forks) == 1 and _reaped(forks[0])
        monkeypatch.delattr(os, "fork")
        code = run(argv)
        assert (*capsys.readouterr(), code) == forked
        return forked

    @pytest.mark.parametrize("case", PIPELINE_CASES)
    def test_output_equals_the_in_process_stream(self, case, paths, capsys, monkeypatch,
                                                 forks):
        argv = [arg.format(**paths) for arg in PIPELINE_CASES[case]]
        out, err, code = self._forked_and_in_process(argv, capsys, monkeypatch, forks)
        assert out.startswith("k,") and code == (1 if "alarm" in case else 0)
        assert ("trace diverged" in err) == (case == "simulate diverged")

    def test_violation_equals_the_in_process_stream(self, tmp_path, capsys, monkeypatch,
                                                    forks):
        # the later-block violation of TestSimulateStreaming
        params = AbstractionParams(alpha=1.6, beta=1.0, rho={0: 0.5, 1: 1.08 * (1 - 1e-4)})
        monkeypatch.setattr(cli, "_build_params", lambda system, args: params)
        path = tmp_path / "growing.json"
        path.write_text(json.dumps({"modes": [{"id": 0, "A": [[0.5]]},
                                              {"id": 1, "A": [[1.08]]}]}))
        _, err, code = self._forked_and_in_process(
            ["simulate", str(path), "--sigma", "1," * 5999 + "1", "--w", "const:0.001",
             "--x0", "1.0"], capsys, monkeypatch, forks)
        assert code == 1 and "guarantee violated at k=" in err

    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_exception_in_a_later_block(self, command, paths, capsys, monkeypatch, forks):
        # raised in the child after one block was sent: the rows of that block, then
        # the error line, as in process
        if command == "simulate":
            run_plant, message = simulate._run_plant, f"plant failed at k={CSV_BLOCK_ROWS}"

            def failing_plant(seq, start, w, matrices, states):
                if start:
                    raise ParameterError(message)
                return run_plant(seq, start, w, matrices, states)

            monkeypatch.setattr(simulate, "_run_plant", failing_plant)
            case = "simulate seed:7 8192"
        else:
            message = f"policy failed at k={CSV_BLOCK_ROWS}"

            def failing_policy(k, admissible, rng):
                if k == CSV_BLOCK_ROWS:
                    raise ParameterError(message)
                return min(admissible)

            monkeypatch.setitem(scheduler.POLICIES, "greedy", lambda: failing_policy)
            case = "schedule greedy"
        argv = [arg.format(**paths) for arg in PIPELINE_CASES[case]]
        out, err, code = self._forked_and_in_process(argv, capsys, monkeypatch, forks)
        assert (err, code) == (f"error: {message}\n", 2)
        assert len(out.splitlines()) == CSV_BLOCK_ROWS + 1

    @pytest.mark.parametrize("case", ["simulate seed:7 8192", "schedule greedy"])
    def test_block_cut_short_is_an_early_end(self, case, paths, capsys, monkeypatch, forks):
        # the child dies halfway through sending its first block
        def half_a_block(blocks, fd):
            try:
                data = pickle.dumps(next(blocks), pickle.HIGHEST_PROTOCOL)
                with open(fd, "wb") as pipe:
                    pipe.write(data[:len(data) // 2])
            finally:
                os._exit(0)

        monkeypatch.setattr("convrate.io._produce", half_a_block)
        code = run([arg.format(**paths) for arg in PIPELINE_CASES[case]])
        out, err = capsys.readouterr()
        assert (err, code) == ("error: the stream's child process ended early\n", 1)
        assert out.startswith("k,") and out.count("\n") == 1  # the header alone
        assert len(forks) == 1 and _reaped(forks[0])

    def test_interrupt_in_the_child_is_raised(self, paths, monkeypatch, forks):
        def interrupted(k, admissible, rng):
            raise KeyboardInterrupt

        monkeypatch.setitem(scheduler.POLICIES, "greedy", lambda: interrupted)
        with pytest.raises(KeyboardInterrupt):
            run([arg.format(**paths) for arg in PIPELINE_CASES["schedule greedy"]])
        assert len(forks) == 1 and _reaped(forks[0])

    def test_unpicklable_exception_is_a_runtime_error(self, paths, capsys, monkeypatch,
                                                      forks):
        class Local(Exception):  # a local class does not pickle
            pass

        def failing(k, admissible, rng):
            raise Local("no pickle")

        monkeypatch.setitem(scheduler.POLICIES, "greedy", lambda: failing)
        code = run([arg.format(**paths) for arg in PIPELINE_CASES["schedule greedy"]])
        assert code == 1
        assert capsys.readouterr().err == "error: Local: no pickle\n"
        assert len(forks) == 1 and _reaped(forks[0])

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    @pytest.mark.parametrize("stop, unbuffered", _in_both_modes({
        "closed pipe": "closed pipe", "interrupt": "interrupt"}))
    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_no_child_outlives_an_early_stop(self, command, stop, unbuffered, paths):
        # ``| head -n 1``, or Ctrl-C on the command alone, while the stream is running
        argv = {"simulate": ["simulate", paths["bounded"], "--sigma", "mk-worst:1,2",
                             "--steps", "1000000", "--w", "seed:7"],
                "schedule": ["schedule", paths["scalar"], "--rho-hat", "0.9", "--alpha-hat",
                             "2", "--steps", "1000000"]}[command]
        with subprocess.Popen([sys.executable, "-m", "convrate", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_convrate_env(unbuffered)) as process:
            assert process.stdout.readline().startswith(b"k,")
            children = _children(process.pid)
            assert len(children) == 1
            if stop == "closed pipe":
                process.stdout.close()
                err = process.stderr.read()
                assert process.wait(timeout=60) == 1
                assert err == b""
            else:
                process.send_signal(signal.SIGINT)
                _, err = process.communicate(timeout=60)
                assert process.returncode != 0
                assert err.endswith(b"KeyboardInterrupt\n")
        assert not Path(f"/proc/{children[0]}").exists()


def _two_blocks(end):
    """Two blocks of ``(start, values)``, then return ``end``, or raise it if it is an
    exception."""
    yield 0, [1.5, 2.5]
    yield 2, [3.5]
    if isinstance(end, BaseException):
        raise end
    return end


def _cells(start, values):
    return map(str, range(start, start + len(values))), map(repr, values)


#: What ``write_table`` writes of :func:`_two_blocks`.
TWO_BLOCKS_TABLE = "k,x\n0,1.5\n1,2.5\n2,3.5\n"


class TestWriteTable:
    """``io.write_table`` returns what its generator returns, forked or in process."""

    @pytest.fixture(params=["forked", "in process"])
    def forked(self, request, monkeypatch, forks):
        if request.param == "forked" and not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        if request.param == "in process":
            monkeypatch.delattr(os, "fork")
        return request.param == "forked"

    @pytest.mark.parametrize("end", [None, (5, "kappa budget exceeded"),
                                     GuaranteeReport(False, 3, 1.5)],
                             ids=["None", "tuple", "frozen dataclass"])
    def test_returns_what_the_generator_returns(self, end, forked, forks):
        text = StringIO()
        assert write_table(text, ("k", "x"), _cells, _two_blocks(end)) == end
        assert text.getvalue() == TWO_BLOCKS_TABLE
        assert len(forks) == forked and all(map(_reaped, forks))

    def test_exception_after_the_last_block_is_raised(self, forked, forks):
        text = StringIO()
        with pytest.raises(ParameterError, match="after the last block"):
            write_table(text, ("k", "x"), _cells,
                        _two_blocks(ParameterError("after the last block")))
        assert text.getvalue() == TWO_BLOCKS_TABLE
        assert len(forks) == forked and all(map(_reaped, forks))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_leaving_before_its_return_value_is_an_early_end(self, forks):
        parent = os.getpid()

        def blocks():
            yield 0, [1.5]
            if os.getpid() != parent:
                os._exit(0)  # the child leaves without sending its StopIteration
            return 1

        text = StringIO()
        with pytest.raises(RuntimeError, match="^the stream's child process ended early$"):
            write_table(text, ("k", "x"), _cells, blocks())
        assert text.getvalue() == "k,x\n0,1.5\n"
        assert len(forks) == 1 and _reaped(forks[0])


class TestJsrCommand:
    def test_small_run(self, demo_path, capsys):
        code = run(["jsr", demo_path, "--m", "1", "--K", "2", "--length", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho_hat_8(1,2) = 1.4100713000842269" in out
        assert "sequences evaluated: 55" in out

    def test_parallel_matches_serial(self, demo_path, capsys):
        # the search runs in one process; (2,4) L=12 ties the skip-first and
        # execute-first patterns, resolved to the first in descending order
        code = run(["jsr", demo_path, "--m", "2", "--K", "4", "--length", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attained by sigma = 1,1,0,0,1,1,0,0,1,1,0,0" in out
        assert "sequences evaluated: 838" in out

    @pytest.mark.parametrize("m, K", [(1, 3), (2, 3), (3, 4)])
    def test_parallel_matches_serial_on_scalar_ties(self, m, K, tmp_path, capsys):
        # halving and doubling cancel, so many sequences tie; with m_bar < K-1
        # some short prefixes admit no completion. The search prints the
        # bytes of the unpruned walk.
        system = SystemModel(modes={0: [[0.5]], 1: [[2.0]]})
        path = tmp_path / "halve-double.json"
        path.write_text(json.dumps({"modes": [{"id": 0, "A": [[0.5]]}, {"id": 1, "A": [[2.0]]}]}))
        code = run(["jsr", str(path), "--m", str(m), "--K", str(K), "--length", "9"])
        assert code == 0
        reference = references.averaged_spectral_radius(system, MkConstraint(m, K), 9)
        assert capsys.readouterr().out == (
            f"rho_hat_9({m},{K}) = {reference.rho_hat!r}\n"
            f"attained by sigma = {','.join(map(str, reference.sequence))}\n"
            f"sequences evaluated: {reference.count}\n")

    def test_cap_exceeded(self, demo_path, capsys):
        code = run(["jsr", demo_path, "--m", "1", "--K", "13", "--length", "4"])
        assert code == 1
        assert "window" in capsys.readouterr().err

    def test_overlong_refusal_is_a_cap(self, scalar_path, capsys):
        code = run(["jsr", scalar_path, "--m", "1", "--K", "2", "--length", "30000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: length 30000 exceeds the enumeration cap 24 (reduce the length, "
            "or raise the cap to proceed)\n")


    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_a_usage_error(self, scalar_path, cap, capsys):
        code = run(["jsr", scalar_path, "--m", "1", "--K", "2", "--length", "3",
                    "--max-length", cap])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --max-length must be >= 1, got {cap}\n")

    def test_refusal_under_a_raised_cap(self, scalar_path, capsys):
        code = run(["jsr", scalar_path, "--m", "1", "--K", "2", "--length", "3",
                    "--max-length", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: length 3 exceeds the enumeration cap 1; this would visit 5 sequences "
            "(reduce the length, or raise the cap to proceed)\n")


class TestScheduleCommand:
    def test_generous_budget_skips_without_alarm(self, scalar_path, tmp_path):
        out_path = tmp_path / "sched.csv"
        code = run(["schedule", scalar_path, "--method", "robust", "--rho", "0.6",
                    "--rho-hat", "0.9", "--alpha-hat", "100", "--steps", "50",
                    "--out", str(out_path)])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert any(row[1] == "1" for row in rows)
        assert all(row[5] == "" for row in rows)

    def test_unit_budget_never_skips(self, scalar_path, tmp_path):
        out_path = tmp_path / "strict.csv"
        code = run(["schedule", scalar_path, "--method", "robust", "--rho", "0.6",
                    "--rho-hat", "0.6", "--alpha-hat", "1", "--steps", "20",
                    "--out", str(out_path)])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert all(row[1] == "0" for row in rows)

    def test_practical_alarm_exits_nonzero(self, scalar_path, tmp_path, capsys):
        out_path = tmp_path / "alarm.csv"
        code = run(["schedule", scalar_path, "--C", "1.0", "--v0", "5.0",
                    "--steps", "5", "--out", str(out_path)])
        assert code == 1
        assert "alarm at k=0" in capsys.readouterr().err

    def test_target_flags_are_exclusive(self, scalar_path, capsys):
        code = run(["schedule", scalar_path, "--C", "1.0", "--rho-hat", "0.9",
                    "--alpha-hat", "2"])
        assert code == 2

    def test_practical_mode_names_v0_flag(self, scalar_path, capsys):
        code = run(["schedule", scalar_path, "--C", "5.0", "--steps", "5"])
        assert code == 2
        assert "--v0" in capsys.readouterr().err

    def test_negative_seed_names_the_flag(self, scalar_path, capsys):
        code = run(["schedule", scalar_path, "--C", "5.0", "--v0", "1.0", "--steps", "5",
                    "--policy", "random", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "{path}", "--sigma", "0,1", "--steps", "-1"],
        ["simulate", "{path}", "--sigma", "mk-worst:1,2", "--steps", "-1"],
        ["schedule", "{path}", "--rho-hat", "0.9", "--alpha-hat", "2", "--steps", "-1"],
        ["simulate", "{missing}", "--sigma", "0,1", "--steps", "-1"],
    ])
    def test_negative_steps_names_the_flag(self, argv, scalar_path, tmp_path, capsys):
        # one check for both commands, before the system document is read
        paths = {"path": scalar_path, "missing": str(tmp_path / "missing.json")}
        code = run([arg.format(**paths) for arg in argv])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --steps must be >= 0, got -1\n")

    def test_import_leaves_process_pool_unloaded(self):
        # nothing in convrate starts worker processes
        assert "concurrent.futures" not in loaded_modules("import convrate.cli")

    def test_import_leaves_numpy_random_unloaded(self):
        # only the commands that draw random numbers load numpy.random
        assert "numpy.random" not in loaded_modules("import convrate.cli")

    def test_jsr_jobs_runs_in_one_process(self, demo_path):
        loaded = loaded_modules(
            "from convrate.cli import run\n"
            f"assert run(['jsr', {demo_path!r}, '--m', '1', '--K', '2', '--length', '8']) == 0")
        assert not loaded & {"concurrent.futures", "multiprocessing"}


class TestReproCommand:
    def test_reduced_length_passes(self, capsys):
        code = run(["repro-counterexample", "--length", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form (1,2) verdict: not proven" in out
        assert "rho_hat_16(1,2)" in out
        assert "overall: PASS" in out

    def test_length_above_the_cap_is_refused(self, capsys):
        start = time.perf_counter()
        code = run(["repro-counterexample", "--length", "40"])
        elapsed = time.perf_counter() - start
        assert code == 1
        # the command has no flag that raises the cap, so the refusal offers none
        assert capsys.readouterr().err == (
            "error: length 40 exceeds the enumeration cap 24; this would visit 267914296 "
            "sequences (reduce the length to proceed)\n")
        assert elapsed < 5.0  # refused before any enumeration, not after a 30 s walk


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
