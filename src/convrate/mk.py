"""Closed-form (m,K) stability analysis on two-mode abstractions.

Under an (m,K) window constraint (at least m of any K consecutive periods
execute nominally, at most ``m_bar = K - m`` are skipped), the per-step
rates combine into the effective decay ``rho_tilde = rho0^(m/K) *
rho1^((K-m)/K)`` with overshoot ``alpha_tilde = (rho1/rho0)^(K-m)``. A
verdict is only ever "proven stable" or "not proven": the criterion is
sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, UnsupportedConfigurationError
from .model import AbstractionParams


@dataclass(frozen=True)
class MkConstraint:
    """(m,K) window constraint; ``m_bar = K - m`` skips are allowed per window."""

    m: int
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if not 0 <= self.m <= self.K:
            raise ParameterError(f"m must satisfy 0 <= m <= K, got m={self.m}, K={self.K}")

    @property
    def m_bar(self) -> int:
        return self.K - self.m

    def scaled(self, c: int) -> "MkConstraint":
        return MkConstraint(self.m * c, self.K * c)


@dataclass(frozen=True)
class StabilityVerdict:
    """Result of the closed-form criterion.

    ``proven_stable`` is True exactly when ``rho_tilde < 1``; a False value
    means "not proven", never "unstable" (instability evidence must come
    from brute-force sequence search instead).
    """

    rho_tilde: float
    alpha_tilde: float
    combined_overshoot: float
    proven_stable: bool
    safe_initial_radius: float | None = None


def _check_rates(rho0: float, rho1: float) -> tuple[float, float]:
    rho0, rho1 = float(rho0), float(rho1)
    if not (rho0 > 0.0 and math.isfinite(rho0) and math.isfinite(rho1)):
        raise ParameterError(f"rates must be finite with rho0 > 0, got {rho0}, {rho1}")
    if rho1 < rho0:
        raise ParameterError(
            f"the derivation assumes rho1 >= rho0, violated by rho0={rho0}, rho1={rho1}"
        )
    return rho0, rho1


def mk_rho_tilde(rho0: float, rho1: float, mk: MkConstraint) -> float:
    """Effective decay rate ``rho0^(m/K) * rho1^((K-m)/K)``.

    Reduces exactly to ``rho0`` when never skipping (m=K) and to ``rho1``
    when always skipping (m=0).
    """
    rho0, rho1 = _check_rates(rho0, rho1)
    return rho0 ** (mk.m / mk.K) * rho1 ** ((mk.K - mk.m) / mk.K)


def mk_alpha_tilde(rho0: float, rho1: float, mk: MkConstraint) -> float:
    """Overshoot factor ``(rho1/rho0)^(K-m)``; equals ``(rho_tilde/rho0)^K``.
    Past the float range it is ``inf``: an overshoot rounded up stays sound."""
    rho0, rho1 = _check_rates(rho0, rho1)
    try:
        return (rho1 / rho0) ** (mk.K - mk.m)
    except OverflowError:
        return math.inf


def mk_verdict(params: AbstractionParams, mk: MkConstraint,
               r0: float | None = None) -> StabilityVerdict:
    """Apply the closed-form criterion to a two-mode abstraction.

    The combined bound is ``|x_k| <= alpha * alpha_tilde * rho_tilde^k *
    |x_0|`` with the ``alpha`` of ``params``; with ``r0`` the safe initial
    radius for non-global certificates is attached.

    A skip mode that contracts faster than the nominal one (``rho1 <
    rho0``, e.g. a reset) is charged the nominal rate instead: every step
    contracts by at most ``max(rho0, rho1)``, so the closed form stays sound.
    """
    modes = set(params.rho)
    if modes != {0, 1}:
        raise UnsupportedConfigurationError(
            f"the closed-form (m,K) criterion needs exactly modes {{0, 1}}, got "
            f"{sorted(modes)}; for richer mode sets evaluate the kappa products "
            "from convrate.simulate instead"
        )
    rho0 = params.rho[0]
    rho1 = max(rho0, params.rho[1])
    rho_t = mk_rho_tilde(rho0, rho1, mk)
    alpha_t = mk_alpha_tilde(rho0, rho1, mk)
    radius = None if r0 is None else safe_initial_radius(r0, params.alpha, alpha_t)
    return StabilityVerdict(
        rho_tilde=rho_t,
        alpha_tilde=alpha_t,
        combined_overshoot=params.alpha * alpha_t,
        proven_stable=rho_t < 1.0,
        safe_initial_radius=radius,
    )


def permissible_skip_ratio(rho0: float, rho1: float, rho_target: float) -> float:
    """Skip ratio ``m_bar/K`` that achieves exactly ``rho_target``.

    Requires ``0 < rho0 < rho_target < rho1`` strictly; outside that range
    the ratio would leave [0, 1].
    """
    rho0, rho1 = float(rho0), float(rho1)
    rho_target = float(rho_target)
    if not (0.0 < rho0 < rho1):
        raise ParameterError(f"need 0 < rho0 < rho1, got rho0={rho0}, rho1={rho1}")
    if not (rho0 < rho_target < rho1):
        raise ParameterError(
            f"target rate must lie strictly inside ({rho0}, {rho1}), got {rho_target}; "
            "the skip ratio would leave [0, 1]"
        )
    return math.log(rho_target / rho0) / math.log(rho1 / rho0)


def best_mk_for_ratio(ratio: float, max_K: int) -> MkConstraint:
    """Largest integer skip ratio ``m_bar/K <= ratio`` with ``K <= max_K``.

    Ties prefer the smallest K (smaller window means smaller overshoot).
    """
    ratio = float(ratio)
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError(f"ratio must be in [0, 1], got {ratio}")
    if max_K < 1:
        raise ParameterError(f"max_K must be >= 1, got {max_K}")
    best: tuple[Fraction, int] | None = None
    for K in range(1, max_K + 1):
        # nudge: log-derived ratios for exactly-rational targets round down
        m_bar = min(K, int(math.floor(ratio * K + 1e-12)))
        frac = Fraction(m_bar, K)
        if best is None or frac > best[0]:
            best = (frac, K)
    frac, K = best
    m_bar = int(frac * K)
    return MkConstraint(m=K - m_bar, K=K)


def safe_initial_radius(r0: float, alpha: float, alpha_tilde: float) -> float:
    """Shrunk initial radius ``r0 / (alpha * alpha_tilde)``.

    When exponential stability only holds inside a ball of radius ``r0``,
    starting inside the shrunk ball keeps the overshooting trajectory
    within the certified region.
    """
    r0 = float(r0)
    if not (r0 > 0.0 and math.isfinite(r0)):
        raise ParameterError(f"r0 must be finite and > 0, got {r0}")
    if alpha < 1.0 or alpha_tilde < 1.0:
        raise ParameterError(
            f"overshoot factors must be >= 1, got alpha={alpha}, alpha_tilde={alpha_tilde}"
        )
    return r0 / (alpha * alpha_tilde)


def skip_count_bound(mk: MkConstraint, k: int) -> int:
    """Maximal number of skips among the first ``k`` periods.

    ``m_bar * floor(k/K) + min(m_bar, k mod K)``; tight, i.e. attained by
    the front-loaded worst-case pattern.
    """
    k = int(k)
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return mk.m_bar * (k // mk.K) + min(mk.m_bar, k % mk.K)
