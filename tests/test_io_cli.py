import json
import math

import numpy as np
import pytest

from convrate import SystemModel
from convrate.cli import run
from convrate.io import (
    DocumentError,
    load_system,
    save_system,
    system_from_document,
    system_to_document,
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


@pytest.fixture
def demo_path(tmp_path):
    from convrate import counterexample

    path = tmp_path / "demo.json"
    save_system(counterexample.system(), path)
    return str(path)


class TestDocuments:
    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        system = SystemModel(
            modes={0: rng.standard_normal((3, 3)) * 0.3, 1: rng.standard_normal((3, 3))},
            disturbance_bound=0.125,
            cost_weight=np.eye(3),
            lipschitz=2.5,
            name="round-trip",
            labels={0: "run", 1: "skip"},
        )
        path = tmp_path / "sys.json"
        save_system(system, path)
        assert load_system(path) == system

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

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError, match="line 1"):
            load_system(path)

    def test_default_labels(self):
        system = system_from_document({"modes": [{"id": 0, "A": [[0.5]]}]})
        assert system.labels[0] == "mode-0"
        assert system_to_document(system)["modes"][0]["label"] == "mode-0"


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

    def test_worst_pattern_requires_steps(self, scalar_path, capsys):
        code = run(["simulate", scalar_path, "--sigma", "mk-worst:1,2"])
        assert code == 2

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
        # long enough to stream several row blocks
        doc = dict(SCALAR_DOC, disturbance_bound=0.2)
        path = tmp_path / "disturbed.json"
        path.write_text(json.dumps(doc))
        common = ["simulate", str(path), "--sigma", "mk-worst:1,2", "--steps", "9000",
                  "--w", "seed:3"]
        assert run(common) == 0
        printed = capsys.readouterr()
        out_path = tmp_path / "trace.csv"
        assert run([*common, "--out", str(out_path)]) == 0
        written = capsys.readouterr()
        assert out_path.read_text() == printed.out
        assert len(printed.out.splitlines()) == 9002
        assert written.out == "" and written.err == printed.err


class TestJsrCommand:
    def test_small_run(self, demo_path, capsys):
        code = run(["jsr", demo_path, "--m", "1", "--K", "2", "--length", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho_hat_8(1,2) = 1.4100713000842269" in out
        assert "sequences evaluated: 55" in out

    def test_parallel_matches_serial(self, demo_path, capsys):
        # (2,4) L=12 ties between the skip-first and execute-first patterns
        outputs = []
        for jobs in ("1", "2"):
            code = run(["jsr", demo_path, "--m", "2", "--K", "4", "--length", "12",
                        "--jobs", jobs])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "attained by sigma = 1,1,0,0,1,1,0,0,1,1,0,0" in outputs[0]
        assert "sequences evaluated: 838" in outputs[0]

    @pytest.mark.parametrize("m, K", [(1, 3), (2, 3), (3, 4)])
    def test_parallel_matches_serial_on_scalar_ties(self, m, K, tmp_path, capsys):
        # halving and doubling cancel, so many sequences tie; with m_bar < K-1
        # some short prefixes admit no completion
        path = tmp_path / "halve-double.json"
        save_system(SystemModel(modes={0: [[0.5]], 1: [[2.0]]}), path)
        outputs = []
        for jobs in ("1", "2", "3"):
            code = run(["jsr", str(path), "--m", str(m), "--K", str(K), "--length", "9",
                        "--jobs", jobs])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cap_exceeded(self, demo_path, capsys):
        code = run(["jsr", demo_path, "--m", "1", "--K", "13", "--length", "4"])
        assert code == 1
        assert "window" in capsys.readouterr().err


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


class TestReproCommand:
    def test_reduced_length_passes(self, capsys):
        code = run(["repro-counterexample", "--length", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form (1,2) verdict: not proven" in out
        assert "rho_hat_16(1,2)" in out
        assert "overall: PASS" in out


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
