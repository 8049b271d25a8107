"""Closed-form (m,K) stability analysis on two-mode abstractions.

Under an (m,K) window constraint (at least m of any K consecutive periods
execute nominally, at most ``m_bar = K - m`` are skipped), the per-step
rates combine into the effective decay ``rho_tilde = rho0^(m/K) *
rho1^((K-m)/K)`` with overshoot ``alpha_tilde = (rho1/rho0)^(K-m)``. A
verdict is only ever "proven stable" or "not proven": the criterion is
sufficient, not necessary.

The module also holds the (m,K) window automaton that counting, enumeration
and the spectral-radius search share (:func:`_window_automaton`), the exact
count of admissible sequences over it, and the caps that refuse an
enumeration too large to run. They are plain Python over integer lists, and
the module imports no numpy, so a command can refuse an over-cap search
before numpy or the system document loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError, ResourceCapError, UnsupportedConfigurationError

if TYPE_CHECKING:
    from .model import AbstractionParams

#: Cap on enumerated sequence length, and the search's default cap.
ENUMERATION_CAP = 24
#: Largest supported window for enumeration (automaton state is 2^(K-1)).
MAX_WINDOW = 12
#: Longest refused length whose exact count the refusal names: at K=12 the
#: count takes under 0.2 s and has at most 302 digits, while at 16,500 it
#: takes 13 s and has too many digits for ``str``.
_REFUSAL_COUNT_LENGTH = 1000
#: Largest window automaton that counting builds (2^18 states took ~35 MB).
COUNT_STATE_CAP = 1 << 20


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
    best_m_bar, best_K = 0, 1
    for K in range(1, max_K + 1):
        # nudge: log-derived ratios for exactly-rational targets round down
        m_bar = min(K, int(math.floor(ratio * K + 1e-12)))
        if m_bar * best_K > best_m_bar * K:  # m_bar/K > best_m_bar/best_K, exactly
            best_m_bar, best_K = m_bar, K
    return MkConstraint(m=best_K - best_m_bar, K=best_K)


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


def _check_length(length: int) -> None:
    if length < 0:
        raise ParameterError(f"length must be >= 0, got {length}")


def _window_automaton(mk: MkConstraint, length: int) -> tuple[list[int], list[int]]:
    """Successor table of the (m,K) window automaton for sequences of ``length``.

    The state is the bitmask of the last K-1 symbols; appending a symbol
    forms a K-symbol window, and the step is admissible iff that window
    holds at most ``m_bar`` skips. A sequence of at least K symbols puts
    every symbol inside a complete window, so the test applies from the
    first symbol on (missing history counts as executes) and no walk enters
    a branch that cannot be completed; shorter sequences hold no complete
    window and are unconstrained.

    Only the states reachable from the empty history (state 0) are numbered,
    breadth-first, so a window that admits few skips stays small at any K.
    Entry ``[sym][state]`` is the state after appending ``sym``, or -1 when
    that step is inadmissible.
    """
    K = mk.K
    limit = mk.m_bar if length >= K else K
    keep = (1 << (K - 1)) - 1
    number = {0: 0}
    masks = [0]
    table: tuple[list[int], list[int]] = ([], [])
    for mask in masks:  # grows while it is walked: breadth-first discovery
        for sym in (0, 1):
            window = (mask << 1) | sym
            if window.bit_count() > limit:
                table[sym].append(-1)
                continue
            successor = window & keep
            if successor not in number:
                number[successor] = len(masks)
                masks.append(successor)
            table[sym].append(number[successor])
    return table


def count_mk_sequences(mk: MkConstraint, length: int) -> int:
    """Exact number of admissible binary sequences of the given length.

    Propagates the per-state completion counts through the window
    automaton, without enumerating. Raises :class:`ResourceCapError`,
    before building anything, when the automaton would have more than
    ``COUNT_STATE_CAP`` states.
    """
    _check_length(length)
    if length < mk.K:
        return 2**length  # no complete window
    states = sum(math.comb(mk.K - 1, ones) for ones in range(min(mk.m_bar, mk.K - 1) + 1))
    if states > COUNT_STATE_CAP:
        raise ResourceCapError(
            f"counting ({mk.m},{mk.K}) sequences needs {states} automaton states, "
            f"above the cap {COUNT_STATE_CAP}"
        )
    execute, skip = _window_automaton(mk, length)
    # an execute adds no skip, so every state may execute; a state whose last
    # K-1 symbols already hold m_bar skips may not skip, and takes its execute
    # successor's count as is. Numbered last, those states need no addition.
    order = sorted(range(len(execute)), key=lambda state: skip[state] < 0)
    place = {state: at for at, state in enumerate(order)}
    adds = [(place[execute[state]], place[skip[state]]) for state in order if skip[state] >= 0]
    copies = [place[execute[state]] for state in order if skip[state] < 0]
    # counts[place[s]]: the admissible r-symbol words from state s
    counts = [1] * len(order)
    for _ in range(length):
        counts = [counts[e] + counts[s] for e, s in adds] + [counts[e] for e in copies]
    return counts[place[0]]


def check_enumeration_caps(mk: MkConstraint, length: int, max_length: int,
                           remedy: str = "reduce the length, or raise the cap") -> None:
    """Refuse, with :class:`ResourceCapError`, a window above ``MAX_WINDOW`` or a
    length above ``max_length``; the refusal names the exact count of
    sequences up to ``_REFUSAL_COUNT_LENGTH`` and ends with ``remedy``."""
    if mk.K > MAX_WINDOW:
        raise ResourceCapError(
            f"window K={mk.K} exceeds the supported maximum {MAX_WINDOW} for enumeration"
        )
    if length > max_length:
        count = None if length > _REFUSAL_COUNT_LENGTH else count_mk_sequences(mk, length)
        visits = "" if count is None else f"; this would visit {count} sequences"
        raise ResourceCapError(
            f"length {length} exceeds the enumeration cap {max_length}{visits} "
            f"({remedy} to proceed)",
            estimated_count=count,
        )
