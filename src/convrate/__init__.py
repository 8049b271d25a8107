"""Convergence rate abstractions for weakly-hard real-time control.

The package reduces a switched linear closed loop ``x_{k+1} = A_{sigma_k}
x_k + w_k`` to a provable one-dimensional bound ``|x_k| <= vbar_k`` with
``vbar_{k+1} = rho_{sigma_k} vbar_k + beta wbar_k``, and builds (m,K)
stability verdicts, brute-force instability evidence, trace verification,
and online scheduling gates on top of that bound.

``import convrate`` loads no numpy: each public name imports its module
on first use (PEP 562), and so does each submodule named as an attribute.
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each public name.
_EXPORTS = {
    **dict.fromkeys(("build_robustness_abstraction", "gamma_bounds", "lyapunov_abstraction",
                     "robustness_abstraction"), "builders"),
    **dict.fromkeys(("DimensionError", "NoStableSolutionError", "NotPositiveDefiniteError",
                     "NumericError", "ParameterError", "ResourceCapError",
                     "UnsupportedConfigurationError"), "errors"),
    **dict.fromkeys(("cholesky", "eigenvalues", "solve_discrete_lyapunov", "spectral_norm",
                     "spectral_radius"), "linalg"),
    **dict.fromkeys(("MkConstraint", "StabilityVerdict", "best_mk_for_ratio", "count_mk_sequences",
                     "mk_alpha_tilde", "mk_rho_tilde", "mk_verdict", "permissible_skip_ratio",
                     "safe_initial_radius", "skip_count_bound"), "mk"),
    **dict.fromkeys(("AbstractionParams", "SystemModel"), "model"),
    **dict.fromkeys(("NominalCertificate", "build_nominal_abstraction", "nominal_certificate"),
                    "nominal"),
    **dict.fromkeys(("ExponentialTarget", "PracticalTarget", "SchedulerState",
                     "admissible_modes", "exponential_state", "greedy_policy",
                     "kappa_hat_step", "random_policy", "round_robin_policy", "run_schedule",
                     "supervisor_check"), "scheduler"),
    **dict.fromkeys(("JsrResult", "averaged_spectral_radius", "enumerate_mk_sequences",
                     "random_mk_sequence", "transition_product", "validate_mk",
                     "worst_case_sequence"), "sequences"),
    **dict.fromkeys(("GuaranteeReport", "Trace", "check_guarantee", "co_simulate",
                     "cost_bound", "cost_transform", "kappa", "simulate_abstraction",
                     "simulate_plant", "trace_csv_lines"), "simulate"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
