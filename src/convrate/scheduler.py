"""Online scheduling on top of an abstraction: damage counter and gates.

The damage counter ``kappa_hat_k = rho_hat^-k * kappa_{0,k}`` tracks how
much of the allowed overshoot budget ``alpha_hat`` has been consumed; it
is maintained in log domain so that long runs can neither overflow nor
underflow. One rule gates both targets: a mode is admissible iff the value
its step stores stays within budget, ``log kappa_hat <= log alpha_hat``
(exponential mode) or ``vbar <= C`` (practical mode). The supervisor
reports an alarm whenever no admissible mode remains or the invariant is
already violated; it never executes the fallback itself - the surrounding
harness switches to strictly nominal execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, check_nonnegative
from .io import csv_blocks
from .model import AbstractionParams

#: exp() overflows above this; treat larger log values as infinity.
_LOG_MAX = math.log(float("1e308"))


@dataclass(frozen=True)
class ExponentialTarget:
    """Required worst-case decay ``rho_hat`` and overshoot budget ``alpha_hat``."""

    rho_hat: float
    alpha_hat: float

    def __post_init__(self):
        if not (0.0 < self.rho_hat < 1.0):
            raise ParameterError(f"rho_hat must be in (0, 1), got {self.rho_hat}")
        if not self.alpha_hat >= 1.0:
            raise ParameterError(f"alpha_hat must be >= 1, got {self.alpha_hat}")


@dataclass(frozen=True)
class PracticalTarget:
    """State bound C that the abstraction must never exceed."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0.0:
            raise ParameterError(f"bound must be > 0, got {self.bound}")


@dataclass(frozen=True)
class SchedulerState:
    """The log-domain damage counter and/or vbar."""

    log_kappa_hat: float = 0.0
    v_bar: float | None = None

    @property
    def kappa_hat(self) -> float:
        if self.log_kappa_hat > _LOG_MAX:
            return math.inf
        return math.exp(self.log_kappa_hat)


def exponential_state() -> SchedulerState:
    """Fresh state with ``kappa_hat = 1``."""
    return SchedulerState()


def practical_state(v0: float) -> SchedulerState:
    """Fresh state carrying the abstraction value ``v0`` (e.g. alpha * |x0|)."""
    return SchedulerState(v_bar=check_nonnegative(v0, "v0"))


def _gate(state: SchedulerState, params: AbstractionParams,
          target: ExponentialTarget | PracticalTarget,
          w_bar_k: float = 0.0) -> tuple[float, float, dict[int, float]]:
    """The one admissibility rule of both targets.

    Returns the gated quantity now (``log kappa_hat`` or ``vbar``), its limit
    (``log alpha_hat`` or C) and its value after each mode, computed exactly
    as the step stores it. A mode is admissible iff that value is within the
    limit, so the gate never admits a step that then counts as over budget.
    """
    if isinstance(target, ExponentialTarget):
        now = state.log_kappa_hat
        log_rho_hat = math.log(target.rho_hat)
        after = {mode: now + ((math.log(rate) if rate else -math.inf) - log_rho_hat)
                 for mode, rate in params.rho.items()}
        return now, math.log(target.alpha_hat), after
    if state.v_bar is None:
        raise ParameterError("practical mode needs a state initialized via practical_state()")
    now, gain = state.v_bar, params.beta * check_nonnegative(w_bar_k, "w_bar")
    return now, target.bound, {mode: rate * now + gain for mode, rate in params.rho.items()}


def _within(after: dict[int, float], limit: float) -> frozenset[int]:
    return frozenset(mode for mode, value in after.items() if value <= limit)


def _stored(state: SchedulerState, target: ExponentialTarget | PracticalTarget,
            after: dict[int, float], sigma: int) -> SchedulerState:
    """The state after applying ``sigma``: it stores the gate's value for it."""
    try:
        value = after[sigma]
    except KeyError:
        raise KeyError(f"mode {sigma} has no convergence rate in these parameters") from None
    if isinstance(target, ExponentialTarget):
        return SchedulerState(value, state.v_bar)
    return SchedulerState(state.log_kappa_hat, value)


def kappa_hat_step(state: SchedulerState, sigma: int, params: AbstractionParams,
                   target: ExponentialTarget) -> SchedulerState:
    """Advance the damage counter by one applied mode.

    ``log kappa_hat += log rho_sigma - log rho_hat``, the value the gate
    tests for ``sigma``; a zero rate maps to -inf, a perfect reset that
    absorbs all previous damage.
    """
    _, _, after = _gate(state, params, target)
    return _stored(state, target, after, sigma)


def admissible_modes(state: SchedulerState, params: AbstractionParams,
                     target: ExponentialTarget | PracticalTarget,
                     w_bar_k: float = 0.0) -> frozenset[int]:
    """Modes whose step keeps ``kappa_hat <= alpha_hat`` (or ``vbar <= C``)."""
    _, limit, after = _gate(state, params, target, w_bar_k)
    return _within(after, limit)


def practical_step(state: SchedulerState, sigma: int, w_bar_k: float,
                   params: AbstractionParams,
                   target: PracticalTarget) -> tuple[SchedulerState, bool]:
    """Apply one mode to the abstraction state; flag whether it kept the bound."""
    _, limit, after = _gate(state, params, target, w_bar_k)
    new_state = _stored(state, target, after, sigma)
    return new_state, new_state.v_bar <= limit


@dataclass(frozen=True)
class SupervisorReport:
    """ok, or an alarm naming the violated quantity and its threshold."""

    ok: bool
    reason: str | None = None
    value: float | None = None
    threshold: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _alarm(target: ExponentialTarget | PracticalTarget, now: float, limit: float,
           admissible: frozenset[int]) -> str | None:
    exponential = isinstance(target, ExponentialTarget)
    if now > limit:
        return "kappa budget exceeded" if exponential else "state bound exceeded"
    if not admissible:
        return "no admissible mode" if exponential else "no admissible mode keeps the bound"
    return None


def supervisor_check(state: SchedulerState, params: AbstractionParams,
                     target: ExponentialTarget | PracticalTarget,
                     w_bar_k: float = 0.0) -> SupervisorReport:
    """Alarm when the budget is already blown or no admissible mode remains.

    The documented contract on alarm is that the caller switches to a
    deterministic safety mode guaranteeing nominal execution.
    """
    now, limit, after = _gate(state, params, target, w_bar_k)
    reason = _alarm(target, now, limit, _within(after, limit))
    if reason is None:
        return SupervisorReport(True)
    if isinstance(target, ExponentialTarget):
        return SupervisorReport(False, reason, state.kappa_hat, target.alpha_hat)
    return SupervisorReport(False, reason, now, limit)


# ---------------------------------------------------------------------------
# selection policies and the run harness

Policy = Callable[[int, frozenset, "np.random.Generator | None"], int]


def greedy_policy() -> Policy:
    """Highest admissible mode id (cheapest execution first).

    The gate enforces soundness, so the policy choice is free; another
    ranking is just another policy callable.
    """

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        return max(admissible)

    return choose


def round_robin_policy() -> Policy:
    """Cycle through the admissible modes by step index."""

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        order = sorted(admissible)
        return order[k % len(order)]

    return choose


def random_policy() -> Policy:
    """Uniform choice among admissible modes (seeded by the run harness)."""

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        order = sorted(admissible)
        if rng is None:
            raise ParameterError("random policy needs a seeded generator")
        return order[int(rng.integers(len(order)))]

    return choose


POLICIES: dict[str, Callable[[], Policy]] = {
    "greedy": greedy_policy,
    "round-robin": round_robin_policy,
    "random": random_policy,
}


@dataclass(frozen=True)
class StepRecord:
    """One scheduling decision with the gate context it was taken in."""

    k: int
    chosen: int
    admissible: frozenset[int]
    kappa_hat: float | None
    v_bar: float | None
    alarm: str | None


@dataclass
class ScheduleRun:
    """Decision stream of one run and whether its supervisor alarmed."""

    records: list[StepRecord]
    alarm_fired: bool

    @property
    def chosen(self) -> tuple[int, ...]:
        return tuple(record.chosen for record in self.records)


def run_schedule(params: AbstractionParams,
                 target: ExponentialTarget | PracticalTarget,
                 steps: int,
                 policy: Policy | None = None,
                 w_bar: Sequence[float] | float | None = None,
                 v0: float | None = None,
                 seed: int | None = None) -> ScheduleRun:
    """Drive the gate for ``steps`` periods and record every decision.

    On alarm the harness models the documented fallback: it pins execution
    to mode 0 from that step on. A scripted scenario passes a policy that
    returns its own modes. The gate never reads the plant: to compare plant
    states with the certified envelope, run
    ``simulate_plant(system, run.chosen, x0)``.
    """
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    practical = isinstance(target, PracticalTarget)
    if practical and v0 is None:
        raise ParameterError("practical mode needs v0 (--v0) to initialize vbar")
    state = practical_state(v0) if practical else exponential_state()
    if np.ndim(w_bar) == 0:  # None or one constant bound
        w_series = np.full(steps, 0.0 if w_bar is None else float(w_bar))
    else:
        w_series = np.asarray(w_bar, dtype=float).reshape(-1)
        if len(w_series) < steps:
            raise ParameterError(f"w_bar must provide {steps} entries, got {len(w_series)}")
    policy = policy or greedy_policy()
    rng = np.random.default_rng(seed)
    records: list[StepRecord] = []
    alarm_fired = False
    for k in range(steps):
        now, limit, after = _gate(state, params, target, w_series[k])
        admissible = _within(after, limit)
        alarm = _alarm(target, now, limit, admissible)
        alarm_fired = alarm_fired or alarm is not None
        chosen = 0 if alarm_fired else policy(k, admissible, rng)
        state = _stored(state, target, after, chosen)
        records.append(StepRecord(k, chosen, admissible,
                                  None if practical else state.kappa_hat, state.v_bar, alarm))
    return ScheduleRun(records=records, alarm_fired=alarm_fired)


#: Exact column contract of the decision CSV emission.
SCHEDULE_COLUMNS = ("k", "chosen_sigma", "admissible_set", "kappa_hat", "vbar", "alarm")


def schedule_csv_blocks(records: Sequence[StepRecord]):
    """Decision CSV lines, header first, one list per block of rows (see ``io.csv_blocks``)."""
    def columns(start: int, stop: int):
        block = records[start:stop]
        return (
            [str(rec.k) for rec in block],
            [str(rec.chosen) for rec in block],
            ["|".join(map(str, sorted(rec.admissible))) for rec in block],
            ["" if rec.kappa_hat is None else repr(float(rec.kappa_hat)) for rec in block],
            ["" if rec.v_bar is None else repr(float(rec.v_bar)) for rec in block],
            [rec.alarm or "" for rec in block],
        )

    return csv_blocks(SCHEDULE_COLUMNS, len(records), columns)


def schedule_csv_lines(records: Sequence[StepRecord]) -> list[str]:
    """Render a decision stream as CSV under the fixed column contract."""
    return [line for block in schedule_csv_blocks(records) for line in block]
