"""Construct per-mode abstraction parameters for weak execution.

Two routes are provided. The robustness route treats every deviation from
nominal execution as disturbance, via the mode gains
``gamma_sigma = ||A_sigma - A0||``, and charges them on top of a nominal
certificate: ``rho_sigma = rho + beta * gamma_sigma``. The Lyapunov route
solves a discrete Lyapunov equation for the nominal mode and measures each
mode in the induced ellipsoidal norm ``||R A_sigma R^-1||``, which models
state-reducing modes (e.g. resets) far more accurately.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import NoStableSolutionError, NumericError, ParameterError, check_nonnegative
from .linalg import as_square_matrix, cholesky, solve_discrete_lyapunov, spectral_norm
from .model import AbstractionParams, SystemModel
from .nominal import build_nominal_abstraction

#: Condition numbers of P beyond this attach a warning to the result.
CONDITION_CAP = 1e12


def gamma_bounds(system: SystemModel) -> dict[int, float]:
    """Per-mode deviation gains ``||A_sigma - A0||``; exactly 0.0 for mode 0."""
    A0 = system.modes[0]
    gammas = {0: 0.0}
    for mode, A in system.modes.items():
        if mode != 0:
            gammas[mode] = spectral_norm(A - A0)
    return gammas


def robustness_abstraction(nominal: AbstractionParams,
                           gammas: Mapping[int, float]) -> AbstractionParams:
    """Extend a single-mode nominal abstraction to all modes via gamma gains.

    ``nominal`` must describe mode 0 only, with ``alpha >= 1``,
    ``beta >= alpha`` and ``rho < 1``; alpha and beta carry over unchanged.
    The result rates exactly the modes ``gammas`` covers.
    """
    if set(nominal.rho) != {0}:
        raise ParameterError(
            f"nominal parameters must cover exactly mode 0, got modes {sorted(nominal.rho)}"
        )
    rho0 = nominal.rho[0]
    if not rho0 < 1.0:
        raise ParameterError(f"nominal rho must be < 1, got {rho0}")
    if nominal.beta < nominal.alpha:
        raise ParameterError(
            f"this construction needs beta >= alpha, got beta={nominal.beta} < alpha={nominal.alpha}"
        )
    if 0 not in gammas or gammas[0] != 0.0:
        raise ParameterError("gamma for mode 0 must be present and exactly 0")
    rho = {}
    for mode, gamma in gammas.items():
        rho[int(mode)] = rho0 + nominal.beta * check_nonnegative(gamma, f"gamma[{mode}]")
    diagnostics = dict(nominal.diagnostics)
    diagnostics["gamma"] = {int(m): float(g) for m, g in gammas.items()}
    return AbstractionParams(alpha=nominal.alpha, beta=nominal.beta, rho=rho,
                             method="robustness", diagnostics=diagnostics)


def build_robustness_abstraction(system: SystemModel, rho: float,
                                 beta: float | None = None) -> AbstractionParams:
    """Nominal certificate + gamma gains in one step, covering all system modes."""
    nominal = build_nominal_abstraction(system.modes[0], rho, beta)
    return robustness_abstraction(nominal, gamma_bounds(system))


def lyapunov_abstraction(system: SystemModel, Q=None) -> AbstractionParams:
    """Abstraction from a quadratic Lyapunov function of the nominal mode.

    Solves ``A0.T P A0 - P = -Q`` (Q defaults to identity), factors
    ``P = R.T R`` and rates every mode by the induced ellipsoidal norm
    ``rho_sigma = ||R A_sigma R^-1||``. The nominal rate is guaranteed < 1.
    ``alpha = beta = sqrt(lambda_max(P) / lambda_min(P))``, the eccentricity
    of the level-set ellipsoid.
    """
    A0 = system.modes[0]
    n = system.n
    Q = np.eye(n) if Q is None else as_square_matrix(Q, "Q")
    try:
        P = solve_discrete_lyapunov(A0, Q)
    except NoStableSolutionError as exc:
        raise NoStableSolutionError(f"no Lyapunov certificate: {exc}") from None
    R = cholesky(P)
    R_inv = np.linalg.inv(R)
    rho = {mode: spectral_norm(R @ A @ R_inv) for mode, A in system.modes.items()}
    eigs = np.linalg.eigvalsh(P)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    condition = lam_max / lam_min
    alpha = math.sqrt(condition)
    diagnostics: dict = {
        "P_condition": condition,
        "lambda_min": lam_min,
        "lambda_max": lam_max,
    }
    if condition > CONDITION_CAP:
        diagnostics["warnings"] = [
            f"P condition number {condition:.3e} exceeds {CONDITION_CAP:.1e}; "
            "rates may be inaccurate"
        ]
    if not rho[0] < 1.0:
        raise NumericError(
            f"nominal ellipsoidal rate came out as {rho[0]!r} >= 1; "
            f"P is too ill-conditioned (condition number {condition:.3e})"
        )
    return AbstractionParams(alpha=alpha, beta=alpha, rho=rho, method="lyapunov",
                             lyapunov_P=P, diagnostics=diagnostics)


def contractive_transform(params: AbstractionParams) -> np.ndarray:
    """Coordinate change ``x -> R x`` in which the nominal loop is contractive.

    Only defined for Lyapunov-built parameters; returns the Cholesky factor
    of the stored ``P``.
    """
    if params.method != "lyapunov" or params.lyapunov_P is None:
        raise ParameterError(
            "contractive coordinates need Lyapunov-built parameters "
            f"(got method={params.method!r})"
        )
    return cholesky(params.lyapunov_P)
