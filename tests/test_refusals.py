"""Every refusal of an input runs: each case gives the input and its exact error.

CLI cases go through ``cli.run`` (exit 2 and one ``error:`` line); library
cases raise the named error with a matching message. Branches that only a
LAPACK failure reaches are left out. A search over the cap is refused before
the system document is read, so that refusal wins over a document error.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references

from convrate import (
    AbstractionParams,
    DimensionError,
    ExponentialTarget,
    MkConstraint,
    ParameterError,
    PracticalTarget,
    SystemModel,
    Trace,
    co_simulate,
    count_mk_sequences,
)
from convrate.builders import robustness_abstraction
from convrate.cli import run
from convrate.linalg import as_square_matrix, check_psd, solve_discrete_lyapunov
from convrate.mk import (
    best_mk_for_ratio,
    mk_rho_tilde,
    permissible_skip_ratio,
    safe_initial_radius,
    skip_count_bound,
)
from convrate.nominal import nominal_certificate
from convrate.scheduler import ScheduleStream, admissible_modes, exponential_state

DOCUMENTS = {
    "scalar": {"modes": [{"id": 0, "A": [[0.5]]}, {"id": 1, "A": [[1.2]]}]},
    # eigenvalues +-0.5i: the dominant eigenvector is complex
    "rotation": {"modes": [{"id": 0, "A": [[0.0, -0.5], [0.5, 0.0]]}]},
}

CLI_REFUSALS = {
    "--Q file not JSON": (["analyze", "{scalar}", "--Q", "{not_json}"],
                          "--Q: {not_json}: Expecting value"),
    "robust without --rho": (["analyze", "{scalar}", "--method", "robust"],
                             "--rho is required for --method robust"),
    "--sigma mk-worst:1": (["simulate", "{scalar}", "--sigma", "mk-worst:1"],
                           "--sigma: malformed pattern 'mk-worst:1', expected mk-worst:m,K"),
    "--sigma ,": (["simulate", "{scalar}", "--sigma", ","], "--sigma: empty mode sequence"),
    "--x0 1,x": (["simulate", "{scalar}", "--sigma", "0,1", "--x0", "1,x"],
                 "--x0: could not parse vector '1,x'"),
    "--x0 dominant complex": (
        ["simulate", "{rotation}", "--sigma", "0,0", "--x0", "dominant:0"],
        "--x0 dominant: the dominant eigenvector is complex; pass coordinates explicitly"),
    "--w gauss:3": (["simulate", "{scalar}", "--sigma", "0,1", "--w", "gauss:3"],
                    "--w: expected zero, const:<v> or seed:<s>, got 'gauss:3'"),
    "--steps past --sigma": (["simulate", "{scalar}", "--sigma", "0,1,0", "--steps", "5"],
                             "--steps 5 exceeds the sigma sequence length 3"),
    "schedule --rho-hat alone": (["schedule", "{scalar}", "--rho-hat", "0.9"],
                                 "provide either --C or both --rho-hat and --alpha-hat"),
}


@pytest.fixture
def paths(tmp_path):
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    paths["not_json"] = str(tmp_path / "q.txt")
    (tmp_path / "q.txt").write_text("not JSON\n")
    return paths


@pytest.mark.parametrize("case", CLI_REFUSALS)
def test_cli_refusal(case, paths, capsys):
    argv, message = CLI_REFUSALS[case]
    code = run([arg.format(**paths) for arg in argv])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message.format(**paths)}\n"))


_SCALAR = SystemModel(modes={0: [[0.5]], 1: [[1.2]]})
_PARAMS = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})


def _nominal(**fields):
    return AbstractionParams(**{"alpha": 1.0, "beta": 1.0, "rho": {0: 0.5},
                                "method": "nominal", **fields})


def _trace(**series):
    columns = {"sigma": (0, None), "w_norm": np.zeros(2), "x": np.zeros((2, 1)),
               "x_norm": np.zeros(2), "vbar": np.ones(2), "kappa": np.ones(2)}
    return Trace(**{**columns, **series})


#: ``(call, error, message)``: ``call()`` raises ``error`` with exactly ``message``.
LIBRARY_REFUSALS = {
    # mk
    "MkConstraint K < 1": (lambda: MkConstraint(1, 0), ParameterError, "K must be >= 1, got 0"),
    "MkConstraint m > K": (lambda: MkConstraint(3, 2), ParameterError,
                           "m must satisfy 0 <= m <= K, got m=3, K=2"),
    "mk_rho_tilde rho0 = 0": (lambda: mk_rho_tilde(0.0, 1.2, MkConstraint(1, 2)),
                              ParameterError, "rates must be finite with rho0 > 0, got 0.0, 1.2"),
    "permissible_skip_ratio rho0 > rho1": (
        lambda: permissible_skip_ratio(0.9, 0.5, 0.7), ParameterError,
        "need 0 < rho0 < rho1, got rho0=0.9, rho1=0.5"),
    "permissible_skip_ratio rho0 = rho1": (
        lambda: permissible_skip_ratio(0.9, 0.9, 0.9), ParameterError,
        "need 0 < rho0 < rho1, got rho0=0.9, rho1=0.9"),
    "best_mk_for_ratio ratio > 1": (lambda: best_mk_for_ratio(1.5, 4), ParameterError,
                                    "ratio must be in [0, 1], got 1.5"),
    "best_mk_for_ratio max_K < 1": (lambda: best_mk_for_ratio(0.5, 0), ParameterError,
                                    "max_K must be >= 1, got 0"),
    "safe_initial_radius overshoot < 1": (
        lambda: safe_initial_radius(1.0, 0.5, 2.0), ParameterError,
        "overshoot factors must be >= 1, got alpha=0.5, alpha_tilde=2.0"),
    "skip_count_bound k < 0": (lambda: skip_count_bound(MkConstraint(1, 2), -1),
                               ParameterError, "k must be >= 0, got -1"),
    # scheduler
    "ExponentialTarget rho_hat > 1": (lambda: ExponentialTarget(1.5, 2), ParameterError,
                                      "rho_hat must be in (0, 1), got 1.5"),
    "ExponentialTarget alpha_hat < 1": (lambda: ExponentialTarget(0.9, 0.5), ParameterError,
                                        "alpha_hat must be >= 1, got 0.5"),
    "PracticalTarget bound 0": (lambda: PracticalTarget(0), ParameterError,
                                "bound must be > 0, got 0"),
    "admissible_modes practical target": (
        lambda: admissible_modes(exponential_state(), _PARAMS, PracticalTarget(1.0)),
        ParameterError, "the step functions gate an exponential target; "
                        "run a practical target with run_schedule()"),
    "ScheduleStream steps < 0": (
        lambda: ScheduleStream(_PARAMS, ExponentialTarget(0.9, 2.0), steps=-1),
        ParameterError, "steps must be >= 0, got -1"),
    # model
    "SystemModel without modes": (lambda: SystemModel(modes={}), ParameterError,
                                  "a system needs at least one mode"),
    "AbstractionParams alpha < 1": (lambda: _nominal(alpha=0.5), ParameterError,
                                    "alpha must be finite and >= 1, got 0.5"),
    "AbstractionParams beta <= 0": (lambda: _nominal(beta=0.0), ParameterError,
                                    "beta must be finite and > 0, got 0.0"),
    "AbstractionParams unknown method": (
        lambda: _nominal(method="guess"), ParameterError,
        "method must be one of ('nominal', 'robustness', 'lyapunov'), got 'guess'"),
    "AbstractionParams without mode 0": (lambda: _nominal(rho={1: 0.5}), ParameterError,
                                         "rho must cover mode 0 (nominal execution)"),
    "AbstractionParams lyapunov_P on another method": (
        lambda: _nominal(lyapunov_P=[[1.0]]), ParameterError,
        "lyapunov_P must be present exactly for method='lyapunov'"),
    "AbstractionParams lyapunov_P not positive definite": (
        lambda: _nominal(method="lyapunov", lyapunov_P=[[-1.0]]), ParameterError,
        "lyapunov_P must be positive definite: "),
    # builders
    "robustness_abstraction nominal covers mode 1": (
        lambda: robustness_abstraction(_nominal(rho={0: 0.5, 1: 0.9}), {0: 0.0}),
        ParameterError, "nominal parameters must cover exactly mode 0, got modes [0, 1]"),
    "robustness_abstraction rho >= 1": (
        lambda: robustness_abstraction(_nominal(rho={0: 1.0}), {0: 0.0}), ParameterError,
        "nominal rho must be < 1, got 1.0"),
    "robustness_abstraction beta < alpha": (
        lambda: robustness_abstraction(_nominal(alpha=2.0), {0: 0.0}), ParameterError,
        "this construction needs beta >= alpha, got beta=1.0 < alpha=2.0"),
    "robustness_abstraction gamma[0] != 0": (
        lambda: robustness_abstraction(_nominal(), {0: 0.1, 1: 0.2}), ParameterError,
        "gamma for mode 0 must be present and exactly 0"),
    # linalg
    "as_square_matrix 0x0": (lambda: as_square_matrix(np.zeros((0, 0)), "A"), DimensionError,
                             "A must be at least 1x1"),
    "check_psd asymmetric": (lambda: check_psd(np.array([[1.0, 2.0], [0.0, 1.0]]), "Q"),
                             ParameterError, "Q must be symmetric"),
    "check_psd indefinite": (lambda: check_psd(np.array([[1.0, 0.0], [0.0, -1.0]]), "Q"),
                             ParameterError, "Q must be positive semidefinite"),
    "solve_discrete_lyapunov shapes": (
        lambda: solve_discrete_lyapunov(0.5 * np.eye(2), np.eye(3)), DimensionError,
        "A and Q must have equal shapes, got (2, 2) and (3, 3)"),
    # nominal
    "nominal_certificate rho >= 1": (lambda: nominal_certificate([[0.5]], 1.0), ParameterError,
                                     "rho must be < 1, got 1.0 (spectral radius is 0.5)"),
    "nominal_certificate rho <= spectral radius": (
        lambda: nominal_certificate([[0.5]], 0.4), ParameterError,
        "rho must exceed the spectral radius 0.5, got 0.4"),
    # simulate
    "Trace unequal lengths": (lambda: _trace(sigma=(0,)), DimensionError,
                              "trace series lengths differ: [1, 2]"),
    "Trace negative vbar": (lambda: _trace(vbar=np.array([1.0, -1.0])), ParameterError,
                            "vbar must be non-negative"),
    "Trace negative kappa": (lambda: _trace(kappa=np.array([1.0, -1.0])), ParameterError,
                             "kappa must be non-negative"),
    "co_simulate horizon past seq": (
        lambda: co_simulate(_SCALAR, _PARAMS, (0, 1, 0), [1.0], horizon=5), ParameterError,
        "horizon must be in [0, 3], got 5"),
    "co_simulate x0 NaN": (lambda: co_simulate(_SCALAR, _PARAMS, (0, 1), [math.nan]),
                           DimensionError, "x0 contains non-finite entries"),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSALS)
def test_library_refusal(case):
    call, error, message = LIBRARY_REFUSALS[case]
    pattern = re.escape(message) + ("" if message.endswith(": ") else "$")
    with pytest.raises(error, match=f"^{pattern}"):
        call()


#: ``(argv, exit code, message)``, where ``{doc}`` is a missing or a non-JSON document:
#: the cap refusal, or the (m,K) error, comes before the document is read.
PRECEDENCE = {
    "--length 200": (["jsr", "{doc}", "--m", "6", "--K", "12", "--length", "200"], 1,
                     "length 200 exceeds the enumeration cap 24; this would visit "
                     "485572847851254639676419031054289827353272136186976325 sequences "
                     "(reduce the length, or raise the cap to proceed)"),
    "--K 13": (["jsr", "{doc}", "--m", "1", "--K", "13", "--length", "4"], 1,
               "window K=13 exceeds the supported maximum 12 for enumeration"),
    "--m 3 --K 2": (["jsr", "{doc}", "--m", "3", "--K", "2", "--length", "4"], 2,
                    "m must satisfy 0 <= m <= K, got m=3, K=2"),
}


@pytest.mark.parametrize("doc", ["missing", "not_json"])
@pytest.mark.parametrize("case", PRECEDENCE)
def test_cap_refusal_comes_before_the_document(case, doc, paths, tmp_path, capsys):
    argv, code, message = PRECEDENCE[case]
    paths = dict(paths, missing=str(tmp_path / "missing.json"))
    assert run([arg.format(doc=paths[doc]) for arg in argv]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda K: st.tuples(st.integers(0, K), st.just(K))),
       st.integers(0, 60))
def test_count_matches_the_window_reference(m_and_K, length):
    # the count a refusal names, against complete-window checks over the last K-1 symbols
    mk = MkConstraint(*m_and_K)
    assert count_mk_sequences(mk, length) == references.window_count(mk, length)
