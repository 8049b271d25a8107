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

from .errors import ParameterError
from .model import AbstractionParams, SystemModel

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
    """Step counter plus the log-domain damage counter and/or vbar."""

    step: int = 0
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
    v0 = float(v0)
    if not (v0 >= 0.0 and math.isfinite(v0)):
        raise ParameterError(f"v0 must be finite and >= 0, got {v0}")
    return SchedulerState(v_bar=v0)


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
    w_bar_k = float(w_bar_k)
    if not (w_bar_k >= 0.0 and math.isfinite(w_bar_k)):
        raise ParameterError(f"w_bar must be finite and >= 0, got {w_bar_k}")
    now, gain = state.v_bar, params.beta * w_bar_k
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
        return SchedulerState(state.step + 1, value, state.v_bar)
    return SchedulerState(state.step + 1, state.log_kappa_hat, value)


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
    """ok, or an alarm naming the violated quantity, threshold, and step."""

    ok: bool
    reason: str | None = None
    value: float | None = None
    threshold: float | None = None
    step: int = 0

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
        return SupervisorReport(True, step=state.step)
    if isinstance(target, ExponentialTarget):
        return SupervisorReport(False, reason, state.kappa_hat, target.alpha_hat, state.step)
    return SupervisorReport(False, reason, now, limit, state.step)


# ---------------------------------------------------------------------------
# selection policies and the run harness

Policy = Callable[[int, frozenset, np.random.Generator | None], int]


def greedy_policy(preference: dict[int, float] | None = None) -> Policy:
    """Most-preferred admissible mode.

    Default preference is the highest mode id (cheapest execution first);
    with an explicit ranking, ties break toward the lowest mode id. The
    gate enforces soundness, so the policy choice is free.
    """

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        if preference is None:
            return max(admissible)
        return min(admissible, key=lambda mode: (-preference.get(mode, -math.inf), mode))

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
    """Decision stream of one run plus the optional co-simulated plant."""

    records: list[StepRecord]
    alarm_fired: bool
    final_state: SchedulerState
    states: np.ndarray | None = None

    @property
    def chosen(self) -> tuple[int, ...]:
        return tuple(record.chosen for record in self.records)


def run_schedule(params: AbstractionParams,
                 target: ExponentialTarget | PracticalTarget,
                 steps: int,
                 policy: Policy | None = None,
                 w_bar: Sequence[float] | float | None = None,
                 system: SystemModel | None = None,
                 x0=None,
                 v0: float | None = None,
                 seed: int | None = None,
                 forced: Sequence[int] | None = None) -> ScheduleRun:
    """Drive the gate for ``steps`` periods and record every decision.

    On alarm the harness models the documented fallback: it pins execution
    to mode 0 from that step on (unless ``forced`` overrides the gate
    entirely, for scripted scenarios). With ``system`` and ``x0`` the plant
    is co-simulated along the chosen modes (disturbance-free), so the
    resulting state norms can be compared against the certified envelope.
    """
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    practical = isinstance(target, PracticalTarget)
    if practical:
        if v0 is None:
            if x0 is None:
                raise ParameterError("practical mode needs v0 or x0 to initialize vbar")
            v0 = params.alpha * float(np.linalg.norm(np.atleast_1d(x0)))
        state = practical_state(v0)
    else:
        state = exponential_state()
    if isinstance(w_bar, (int, float)) or w_bar is None:
        w_series = np.full(steps, 0.0 if w_bar is None else float(w_bar))
    else:
        w_series = np.asarray(w_bar, dtype=float).reshape(-1)
        if len(w_series) < steps:
            raise ParameterError(f"w_bar must provide {steps} entries, got {len(w_series)}")
    policy = policy or greedy_policy()
    rng = np.random.default_rng(seed)

    x = None
    if system is not None:
        if x0 is None:
            raise ParameterError("co-simulation needs x0")
        x = np.empty((steps + 1, system.n))
        x[0] = np.atleast_1d(np.asarray(x0, dtype=float))

    records: list[StepRecord] = []
    alarm_fired = False
    for k in range(steps):
        now, limit, after = _gate(state, params, target, w_series[k])
        admissible = _within(after, limit)
        alarm = _alarm(target, now, limit, admissible)
        alarm_fired = alarm_fired or alarm is not None
        if forced is not None:
            chosen = int(forced[k])
        elif alarm_fired:
            chosen = 0
        else:
            chosen = policy(k, admissible, rng)
        state = _stored(state, target, after, chosen)
        records.append(StepRecord(k, chosen, admissible,
                                  None if practical else state.kappa_hat, state.v_bar, alarm))
        if x is not None:
            x[k + 1] = system.matrix(chosen) @ x[k]
    return ScheduleRun(records=records, alarm_fired=alarm_fired,
                       final_state=state, states=x)


#: Exact column contract of the decision CSV emission.
SCHEDULE_COLUMNS = ("k", "chosen_sigma", "admissible_set", "kappa_hat", "vbar", "alarm")


def schedule_csv_lines(records: Sequence[StepRecord]) -> list[str]:
    """Render a decision stream as CSV under the fixed column contract."""
    lines = [",".join(SCHEDULE_COLUMNS)]
    for record in records:
        cells = [
            str(record.k),
            str(record.chosen),
            "|".join(str(mode) for mode in sorted(record.admissible)),
            "" if record.kappa_hat is None else repr(float(record.kappa_hat)),
            "" if record.v_bar is None else repr(float(record.v_bar)),
            record.alarm or "",
        ]
        lines.append(",".join(cells))
    return lines
