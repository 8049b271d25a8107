"""Load on demand: the package and the CLI import a module only when it is used.

``import convrate`` loads no numpy; help texts, argparse usage errors and
the refusals of an over-cap search exit before numpy, ``pickle`` or ``fcntl``
loads; each command imports only the modules it runs.
Module sets are read from ``sys.modules`` in a fresh interpreter.
"""

import importlib
import json

import pytest

import convrate
from conftest import loaded_modules, probe
from convrate import cli, counterexample, scheduler

#: The public names of the package, by the module that defines them.
EXPORTS = {
    "builders": ("build_robustness_abstraction", "gamma_bounds", "lyapunov_abstraction",
                 "robustness_abstraction"),
    "errors": ("DimensionError", "NoStableSolutionError", "NotPositiveDefiniteError",
               "NumericError", "ParameterError", "ResourceCapError",
               "UnsupportedConfigurationError"),
    "linalg": ("cholesky", "eigenvalues", "solve_discrete_lyapunov", "spectral_norm",
               "spectral_radius"),
    "mk": ("MkConstraint", "StabilityVerdict", "best_mk_for_ratio", "count_mk_sequences",
           "mk_alpha_tilde", "mk_rho_tilde", "mk_verdict", "permissible_skip_ratio",
           "safe_initial_radius", "skip_count_bound"),
    "model": ("AbstractionParams", "SystemModel"),
    "nominal": ("NominalCertificate", "build_nominal_abstraction", "nominal_certificate"),
    "scheduler": ("ExponentialTarget", "PracticalTarget", "SchedulerState", "admissible_modes",
                  "exponential_state", "greedy_policy", "kappa_hat_step", "random_policy",
                  "round_robin_policy", "run_schedule", "supervisor_check"),
    "sequences": ("JsrResult", "averaged_spectral_radius", "enumerate_mk_sequences",
                  "random_mk_sequence", "transition_product", "validate_mk",
                  "worst_case_sequence"),
    "simulate": ("GuaranteeReport", "Trace", "check_guarantee", "co_simulate", "cost_bound",
                 "cost_transform", "kappa", "simulate_abstraction", "simulate_plant",
                 "trace_csv_lines"),
}

SUBCOMMANDS = ("analyze", "mk-check", "simulate", "jsr", "schedule", "repro-counterexample")


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``python -m convrate argv``, and the modules it loaded.

    The CLI leaves through ``os._exit``, which would end the probe before it
    reads ``sys.modules``; in this process it raises ``SystemExit`` instead (a
    forked child of a streamed command still leaves through the real one)."""
    *_, code, modules = probe(
        "import os, runpy, sys\n"
        "_exit, probe = os._exit, os.getpid()\n"
        "def exit_to_the_probe(code):\n"
        "    if os.getpid() != probe:\n"
        "        _exit(code)\n"
        "    raise SystemExit(code)\n"
        "os._exit = exit_to_the_probe\n"
        f"sys.argv = ['convrate', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('convrate', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    print(stop.code)")
    return int(code), set(modules.split())


class TestCommandLine:
    @pytest.mark.parametrize("argv", [("--help",), *((sub, "--help") for sub in SUBCOMMANDS),
                                      ("jsr", "system.json", "--m", "one", "--K", "2")])
    def test_help_and_usage_errors_load_no_numpy(self, argv):
        assert cli_modules(*argv) == (0 if "--help" in argv else 2,
                                      {"convrate", "convrate.cli", "convrate.errors"})

    @pytest.mark.parametrize("argv", [
        ("jsr", "missing.json", "--m", "6", "--K", "12", "--length", "200"),
        ("jsr", "missing.json", "--m", "1", "--K", "13", "--length", "4"),
        ("repro-counterexample", "--length", "40"),
    ], ids=["jsr length", "jsr window", "repro length"])
    def test_cap_refusals_load_no_numpy(self, argv):
        # refused from (m, K) and the length alone, before the document is read
        assert cli_modules(*argv) == (1, {"convrate", "convrate.cli", "convrate.errors",
                                          "convrate.mk"})

    def test_jsr_search_loads_no_masked_arrays(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"name": "d", "modes": [
            {"id": 0, "A": [[0.5, 0.1], [0.0, 0.4]]}, {"id": 1, "A": [[1.1, 0.0], [0.2, 0.9]]}]}))
        # np.unique loads numpy.ma unless it is asked for an index output
        code, loaded = cli_modules("jsr", str(path), "--m", "2", "--K", "4", "--length", "12")
        assert code == 0
        assert "convrate.sequences" in loaded
        assert "numpy.ma" not in loaded

    def test_merging_search_loads_no_masked_arrays_or_random(self, tmp_path):
        # the demo's modes repeat products, so the walk merges nodes at every level
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"modes": [{"id": mode, "A": matrix.tolist()} for mode, matrix
                                              in counterexample.system().modes.items()]}))
        code, loaded = cli_modules("jsr", str(path), "--m", "1", "--K", "2", "--length", "24")
        assert code == 0
        assert "convrate.sequences" in loaded
        assert not loaded & {"numpy.ma", "numpy.random"}

    def test_jsr_loads_no_scheduler_or_simulation(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"name": "d", "modes": [{"id": 0, "A": [[0.5]]},
                                                           {"id": 1, "A": [[1.2]]}]}))
        code, loaded = cli_modules("jsr", str(path), "--m", "1", "--K", "2", "--length", "6")
        assert code == 0
        assert {"numpy", "convrate.sequences"} <= loaded
        assert not loaded & {"convrate.scheduler", "convrate.simulate"}

    def test_analyze_loads_no_sequences_scheduler_or_simulation(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"name": "d", "modes": [{"id": 0, "A": [[0.5]]},
                                                           {"id": 1, "A": [[1.2]]}]}))
        code, loaded = cli_modules("analyze", str(path), "--method", "robust", "--rho", "0.6")
        assert code == 0
        assert {"numpy", "convrate.builders"} <= loaded
        assert not loaded & {"convrate.sequences", "convrate.scheduler", "convrate.simulate"}

    def test_schedule_loads_no_sequences_or_simulation(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"name": "d", "modes": [{"id": 0, "A": [[0.5]]},
                                                           {"id": 1, "A": [[1.2]]}]}))
        code, loaded = cli_modules("schedule", str(path), "--rho-hat", "0.9", "--alpha-hat",
                                   "2", "--steps", "5", "--out", str(tmp_path / "out.csv"))
        assert code == 0
        assert {"numpy", "convrate.scheduler"} <= loaded
        assert not loaded & {"convrate.sequences", "convrate.simulate"}

    def test_policy_choices_are_the_schedulers_policies(self):
        schedule = cli.build_parser()._subparsers._group_actions[0].choices["schedule"]
        policy = next(action for action in schedule._actions if action.dest == "policy")
        assert list(policy.choices) == sorted(scheduler.POLICIES)


class TestPackageNamespace:
    def test_import_loads_no_numpy(self):
        assert loaded_modules("import convrate") == {"convrate"}

    def test_all_lists_the_public_names(self):
        names = sorted(name for names in EXPORTS.values() for name in names)
        assert convrate.__all__ == names
        assert set(names) <= set(dir(convrate))
        assert convrate.__version__ == "0.1.0"

    @pytest.mark.parametrize("module, name",
                             [(module, name) for module, names in EXPORTS.items()
                              for name in names])
    def test_name_is_its_modules_attribute(self, module, name):
        defining = importlib.import_module(f"convrate.{module}")
        assert getattr(convrate, name) is getattr(defining, name)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from convrate import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == convrate.__all__

    def test_a_name_loads_only_its_module_chain(self):
        loaded = loaded_modules("from convrate import MkConstraint")
        assert "convrate.mk" in loaded
        assert not loaded & {"convrate.sequences", "convrate.scheduler", "convrate.simulate"}

    def test_count_loads_no_numpy(self):
        # the count a refusal names is plain Python, and so is its module
        assert loaded_modules("from convrate import count_mk_sequences, MkConstraint\n"
                              "count_mk_sequences(MkConstraint(6, 12), 200)") == {
            "convrate", "convrate.errors", "convrate.mk"}

    def test_search_module_still_names_the_count(self):
        from convrate import sequences

        assert sequences.count_mk_sequences is convrate.count_mk_sequences

    def test_submodule_attribute_imports_it(self):
        assert loaded_modules("import convrate\nconvrate.io.load_system") >= {"convrate.io"}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            convrate.no_such_name  # noqa: B018
        assert not hasattr(convrate, "no_such_name")
        with pytest.raises(ImportError):
            exec("from convrate import no_such_name", {})
