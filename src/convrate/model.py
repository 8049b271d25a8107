"""Core data model: switched linear systems and their scalar abstractions.

A :class:`SystemModel` is the mode-indexed family of transition matrices
``x_{k+1} = A_{sigma_k} x_k + w_k``; mode 0 is always the nominal closed
loop. An :class:`AbstractionParams` is the scalar triple (alpha, beta,
per-mode rho) driving the one-dimensional comparison dynamics
``vbar_{k+1} = rho_{sigma_k} * vbar_k + beta * wbar_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, ParameterError, check_nonnegative
from .linalg import as_square_matrix, check_psd, cholesky

#: Construction methods an AbstractionParams can carry.
METHODS = ("nominal", "robustness", "lyapunov")


@dataclass
class SystemModel:
    """Mode-indexed family of square transition matrices plus metadata.

    Attributes
    ----------
    modes : dict[int, ndarray]
        Transition matrix per execution mode. Mode 0 (the nominal closed
        loop) must be present; all matrices share one size n x n.
    disturbance_bound : float or None
        Uniform bound ``wbar >= |w_k|`` on the disturbance, when known.
    cost_weight : ndarray or None
        Symmetric positive semidefinite weight of the quadratic cost
        ``x.T Q x``, when a cost is tracked.
    labels : dict[int, str]
        Human-readable mode names, used by the document format.
    """

    modes: dict[int, np.ndarray]
    disturbance_bound: float | None = None
    cost_weight: np.ndarray | None = None
    name: str = "system"
    labels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.modes:
            raise ParameterError("a system needs at least one mode")
        clean: dict[int, np.ndarray] = {}
        for mode, A in self.modes.items():
            mode = int(mode)
            if mode < 0:
                raise ParameterError(f"mode ids must be non-negative, got {mode}")
            clean[mode] = as_square_matrix(A, f"mode {mode} matrix")
        if 0 not in clean:
            raise ParameterError("mode 0 (nominal execution) must be declared")
        n = clean[0].shape[0]
        for mode, A in clean.items():
            if A.shape[0] != n:
                raise DimensionError(
                    f"mode {mode} matrix is {A.shape[0]}x{A.shape[0]}, expected {n}x{n}"
                )
        self.modes = clean
        if self.disturbance_bound is not None:
            self.disturbance_bound = check_nonnegative(self.disturbance_bound, "disturbance_bound")
        if self.cost_weight is not None:
            self.cost_weight = as_square_matrix(self.cost_weight, "cost_weight")
            if self.cost_weight.shape[0] != n:
                raise DimensionError(
                    f"cost_weight is {self.cost_weight.shape[0]}x"
                    f"{self.cost_weight.shape[0]}, expected {n}x{n}"
                )
            check_psd(self.cost_weight, "cost_weight")
        self.labels = {int(k): str(v) for k, v in self.labels.items()}

    @property
    def n(self) -> int:
        """State dimension."""
        return self.modes[0].shape[0]

    def mode_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.modes))

    def matrix(self, mode: int) -> np.ndarray:
        try:
            return self.modes[mode]
        except KeyError:
            raise KeyError(f"mode {mode} is not declared by this system") from None

    def __eq__(self, other):
        if not isinstance(other, SystemModel):
            return NotImplemented
        if self.mode_ids() != other.mode_ids():
            return False
        if any(not np.array_equal(self.modes[m], other.modes[m]) for m in self.modes):
            return False
        if (self.cost_weight is None) != (other.cost_weight is None):
            return False
        if self.cost_weight is not None and not np.array_equal(self.cost_weight, other.cost_weight):
            return False
        return (self.disturbance_bound == other.disturbance_bound
                and self.name == other.name
                and self.labels == other.labels)


@dataclass
class AbstractionParams:
    """Scalar parameters of the one-dimensional comparison dynamics.

    ``vbar_{k+1} = rho[sigma_k] * vbar_k + beta * wbar_k`` with
    ``vbar_0 = alpha * |x_0|`` upper-bounds ``|x_k|`` at every step, for
    any disturbance with ``wbar_k >= |w_k|``.

    ``method`` records how the parameters were obtained ("nominal",
    "robustness", or "lyapunov"); ``lyapunov_P`` holds the quadratic-form
    matrix exactly when the Lyapunov route was used. ``diagnostics`` is a
    free-form dict for construction by-products (k_tilde, alpha_min,
    condition numbers, warnings) and is excluded from equality.
    """

    alpha: float
    beta: float
    rho: dict[int, float]
    method: str = "robustness"
    lyapunov_P: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if not (self.alpha >= 1.0 and math.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParameterError(f"beta must be finite and > 0, got {self.beta}")
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        clean: dict[int, float] = {}
        for mode, rate in self.rho.items():
            clean[int(mode)] = check_nonnegative(rate, f"rho[{mode}]")
        if 0 not in clean:
            raise ParameterError("rho must cover mode 0 (nominal execution)")
        self.rho = clean
        if (self.lyapunov_P is not None) != (self.method == "lyapunov"):
            raise ParameterError("lyapunov_P must be present exactly for method='lyapunov'")
        if self.lyapunov_P is not None:
            self.lyapunov_P = as_square_matrix(self.lyapunov_P, "lyapunov_P")
            try:
                cholesky(self.lyapunov_P)
            except NotPositiveDefiniteError as exc:
                raise ParameterError(f"lyapunov_P must be positive definite: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, AbstractionParams):
            return NotImplemented
        return ((self.alpha, self.beta, self.rho, self.method)
                == (other.alpha, other.beta, other.rho, other.method)
                and np.array_equal(self.lyapunov_P, other.lyapunov_P))

    def mode_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.rho))

    def rate(self, mode: int) -> float:
        try:
            return self.rho[mode]
        except KeyError:
            raise KeyError(f"mode {mode} has no convergence rate in these parameters") from None
