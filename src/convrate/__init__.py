"""Convergence rate abstractions for weakly-hard real-time control.

The package reduces a switched linear closed loop ``x_{k+1} = A_{sigma_k}
x_k + w_k`` to a provable one-dimensional bound ``|x_k| <= vbar_k`` with
``vbar_{k+1} = rho_{sigma_k} vbar_k + beta wbar_k``, and builds (m,K)
stability verdicts, brute-force instability evidence, trace verification,
and online scheduling gates on top of that bound.
"""

from .builders import (
    build_robustness_abstraction,
    contractive_transform,
    gamma_bounds,
    lyapunov_abstraction,
    robustness_abstraction,
)
from .errors import (
    DimensionError,
    NoStableSolutionError,
    NotPositiveDefiniteError,
    NumericError,
    ParameterError,
    ResourceCapError,
    UnsupportedConfigurationError,
)
from .linalg import (
    cholesky,
    eigenvalues,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
)
from .mk import (
    MkConstraint,
    StabilityVerdict,
    best_mk_for_ratio,
    mk_alpha_tilde,
    mk_rho_tilde,
    mk_verdict,
    permissible_skip_ratio,
    safe_initial_radius,
    skip_count_bound,
)
from .model import AbstractionParams, SystemModel
from .nominal import (
    NominalCertificate,
    RhoValidation,
    build_nominal_abstraction,
    nominal_certificate,
    sweep_rho,
    validate_rho,
)
from .scheduler import (
    ExponentialTarget,
    PracticalTarget,
    SchedulerState,
    admissible_modes,
    exponential_state,
    greedy_policy,
    kappa_hat_step,
    practical_state,
    practical_step,
    random_policy,
    round_robin_policy,
    run_schedule,
    supervisor_check,
)
from .sequences import (
    JsrResult,
    averaged_spectral_radius,
    count_mk_sequences,
    enumerate_mk_sequences,
    random_mk_sequence,
    transition_product,
    validate_mk,
    worst_case_sequence,
)
from .simulate import (
    GuaranteeReport,
    Trace,
    check_guarantee,
    co_simulate,
    cost_bound,
    cost_transform,
    kappa,
    simulate_abstraction,
    simulate_plant,
    trace_csv_lines,
)

__version__ = "0.1.0"
