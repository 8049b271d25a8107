"""Online scheduling on top of an abstraction: damage counter and gates.

The damage counter ``kappa_hat_k = rho_hat^-k * kappa_{0,k}`` tracks how
much of the allowed overshoot budget ``alpha_hat`` has been consumed; it
is maintained in log domain so that long runs can neither overflow nor
underflow. One rule gates both targets: a mode is admissible iff the value
its step stores stays within budget, ``log kappa_hat <= log alpha_hat``
(exponential mode) or ``vbar <= C`` (practical mode). The public step
functions and :class:`ScheduleStream` apply it through one kernel: the limit
and per-mode coefficients (``_rule``), the value after each mode with the
admissible bitmask (``_admit``), the alarm (``_alarm``) and the chosen
mode's stored value (``_pick``). The supervisor reports an alarm whenever no
admissible mode remains or the invariant is already violated; it never
executes the fallback itself - the surrounding harness switches to
strictly nominal execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParameterError, check_nonnegative
from .io import CSV_BLOCK_ROWS, csv_blocks
from .model import AbstractionParams
from .simulate import w_bar_series

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
        return _kappa_hat(self.log_kappa_hat)


def _kappa_hat(log_kappa_hat: float) -> float:
    """``exp(log kappa_hat)``; a log value past exp's overflow reads as infinity."""
    if log_kappa_hat > _LOG_MAX:
        return math.inf
    return math.exp(log_kappa_hat)


def exponential_state() -> SchedulerState:
    """Fresh state with ``kappa_hat = 1``."""
    return SchedulerState()


def practical_state(v0: float) -> SchedulerState:
    """Fresh state carrying the abstraction value ``v0`` (e.g. alpha * |x0|)."""
    return SchedulerState(v_bar=check_nonnegative(v0, "v0"))


def _rule(params: AbstractionParams,
          target: ExponentialTarget | PracticalTarget) -> tuple[float, list[float]]:
    """The gate's limit and, per mode in ``params.rho`` order, what a step adds or multiplies.

    Exponential: the limit ``log alpha_hat`` and the increments ``log rho_sigma
    - log rho_hat`` of ``log kappa_hat`` (-inf for a zero rate, a perfect
    reset). Practical: the limit C and the rates.
    """
    if isinstance(target, ExponentialTarget):
        log_rho_hat = math.log(target.rho_hat)
        return math.log(target.alpha_hat), [(math.log(rate) if rate else -math.inf) - log_rho_hat
                                            for rate in params.rho.values()]
    return target.bound, list(params.rho.values())


def _admit(now: float, coefficients: list[float], gain: float | None,
           limit: float) -> tuple[list[float], int]:
    """The value each mode's step stores, ``now + increment`` (exponential,
    ``gain`` None) or ``rate * now + gain`` (practical), and the admissible
    modes as a bitmask: bit ``i`` is set iff ``after[i]`` is within the limit."""
    after, mask, bit = [], 0, 1
    for coefficient in coefficients:
        value = now + coefficient if gain is None else coefficient * now + gain
        after.append(value)
        if value <= limit:
            mask |= bit
        bit <<= 1
    return after, mask


def _order(params: AbstractionParams) -> dict[int, int]:
    """Each mode's position in ``params.rho``: its entry of ``after``, its bit of a mask."""
    return {mode: i for i, mode in enumerate(params.rho)}


def _modes(order: dict[int, int], mask: int) -> frozenset[int]:
    """The modes an :func:`_admit` bitmask names."""
    return frozenset(mode for mode, i in order.items() if mask >> i & 1)


def _pick(after: list[float], order: dict[int, int], params: AbstractionParams,
          sigma: int) -> float:
    """The value the step of ``sigma`` stores; an undeclared mode raises ``params.rate``'s KeyError."""
    if sigma not in order:
        params.rate(sigma)  # raises
    return after[order[sigma]]


def _gate(state: SchedulerState, params: AbstractionParams,
          target: ExponentialTarget | PracticalTarget,
          w_bar_k: float = 0.0) -> tuple[float, float, list[float], int]:
    """The gate rule applied to a state.

    Returns the gated quantity now (``log kappa_hat`` or ``vbar``), its limit
    (``log alpha_hat`` or C), its value after each mode, in ``params.rho``
    order, computed exactly as the step stores it, and the :func:`_admit`
    bitmask. A mode is admissible iff that value is within the limit, so
    the gate never admits a step that then counts as over budget.
    """
    if isinstance(target, ExponentialTarget):
        now, gain = state.log_kappa_hat, None
    elif state.v_bar is None:
        raise ParameterError("practical mode needs a state initialized via practical_state()")
    else:
        now, gain = state.v_bar, params.beta * check_nonnegative(w_bar_k, "w_bar")
    limit, coefficients = _rule(params, target)
    return (now, limit, *_admit(now, coefficients, gain, limit))


def kappa_hat_step(state: SchedulerState, sigma: int, params: AbstractionParams,
                   target: ExponentialTarget) -> SchedulerState:
    """Advance the damage counter by one applied mode.

    ``log kappa_hat += log rho_sigma - log rho_hat``, the value the gate
    tests for ``sigma``; a zero rate maps to -inf, a perfect reset that
    absorbs all previous damage.
    """
    _, _, after, _ = _gate(state, params, target)
    return SchedulerState(_pick(after, _order(params), params, sigma), state.v_bar)


def admissible_modes(state: SchedulerState, params: AbstractionParams,
                     target: ExponentialTarget | PracticalTarget,
                     w_bar_k: float = 0.0) -> frozenset[int]:
    """Modes whose step keeps ``kappa_hat <= alpha_hat`` (or ``vbar <= C``)."""
    *_, mask = _gate(state, params, target, w_bar_k)
    return _modes(_order(params), mask)


def practical_step(state: SchedulerState, sigma: int, w_bar_k: float,
                   params: AbstractionParams,
                   target: PracticalTarget) -> tuple[SchedulerState, bool]:
    """Apply one mode to the abstraction state; flag whether it kept the bound."""
    _, limit, after, _ = _gate(state, params, target, w_bar_k)
    v_bar = _pick(after, _order(params), params, sigma)
    return SchedulerState(state.log_kappa_hat, v_bar), v_bar <= limit


@dataclass(frozen=True)
class SupervisorReport:
    """ok, or an alarm naming the violated quantity and its threshold."""

    ok: bool
    reason: str | None = None
    value: float | None = None
    threshold: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _alarms(target: ExponentialTarget | PracticalTarget) -> tuple[str, str]:
    """A target's alarm texts: the gated quantity already over its limit, and no admissible mode."""
    if isinstance(target, ExponentialTarget):
        return "kappa budget exceeded", "no admissible mode"
    return "state bound exceeded", "no admissible mode keeps the bound"


def _alarm(texts: tuple[str, str], now: float, limit: float, mask: int) -> str | None:
    """The step's alarm, from the gated quantity now and the :func:`_admit` mask of its modes."""
    if now > limit:
        return texts[0]
    if not mask:
        return texts[1]
    return None


def supervisor_check(state: SchedulerState, params: AbstractionParams,
                     target: ExponentialTarget | PracticalTarget,
                     w_bar_k: float = 0.0) -> SupervisorReport:
    """Alarm when the budget is already blown or no admissible mode remains.

    The documented contract on alarm is that the caller switches to a
    deterministic safety mode guaranteeing nominal execution.
    """
    now, limit, _, mask = _gate(state, params, target, w_bar_k)
    reason = _alarm(_alarms(target), now, limit, mask)
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


class _SortedOrders(dict):
    """``tuple(sorted(admissible))`` keyed by admissible set, sorted once per distinct set."""

    def __missing__(self, admissible: frozenset) -> tuple[int, ...]:
        modes = self[admissible] = tuple(sorted(admissible))
        return modes


def round_robin_policy() -> Policy:
    """Cycle through the admissible modes by step index."""
    orders = _SortedOrders()

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        modes = orders[admissible]
        return modes[k % len(modes)]

    return choose


#: 32-bit words a random policy draws from its generator at a time.
_WORD_BLOCK = 4096


def _words(rng: np.random.Generator) -> Iterator[int]:
    """The generator's 32-bit words, drawn ``_WORD_BLOCK`` at a time."""
    while True:
        yield from rng.integers(0, 1 << 32, size=_WORD_BLOCK, dtype=np.uint32).tolist()


def _below(r: int, words: Iterator[int]) -> int:
    """What ``Generator.integers(r)`` returns for ``2 <= r < 2**32``, read off ``words``.

    Lemire's bounded reduction, as numpy applies it: ``m = u * r`` for the
    next word ``u``, drawn again while ``m mod 2**32 < (2**32 - r) mod r``;
    the result is ``m >> 32``.
    """
    m = next(words) * r
    if m & 0xFFFFFFFF < r:  # r bounds the threshold: most words skip computing it
        threshold = ((1 << 32) - r) % r
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * r
    return m >> 32


def random_policy() -> Policy:
    """Uniform choice among admissible modes (seeded by the run harness).

    Draw for draw, the choice is ``sorted(admissible)[rng.integers(len(admissible))]``:
    a single admissible mode takes no word. The words are drawn ahead in
    blocks, so the generator must not serve other draws during a run; a
    different generator object restarts the block.
    """
    orders = _SortedOrders()
    source = words = None

    def choose(k: int, admissible: frozenset, rng=None) -> int:
        nonlocal source, words
        if rng is None:
            raise ParameterError("random policy needs a seeded generator")
        modes = orders[admissible]
        if len(modes) == 1:
            return modes[0]
        if rng is not source:
            source, words = rng, _words(rng)
        return modes[_below(len(modes), words)]

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
    """Decision stream of one run, one list per column, and whether its supervisor alarmed.

    Step ``k`` chose ``choices[k]`` from the admissible set ``admissible[k]``,
    stored ``stored[k]`` (``log kappa_hat``, or ``vbar`` when ``practical``)
    and raised ``alarms[k]``. Steps with the same admissible modes share one
    set. ``records`` is the same stream as :class:`StepRecord` objects,
    built on first access.
    """

    choices: list[int]
    admissible: list[frozenset[int]]
    stored: list[float]
    alarms: list[str | None]
    practical: bool
    alarm_fired: bool

    @property
    def chosen(self) -> tuple[int, ...]:
        return tuple(self.choices)

    @cached_property
    def records(self) -> list[StepRecord]:
        missing = [None] * len(self.stored)
        kappa_hat, v_bar = ((missing, self.stored) if self.practical
                            else (list(map(_kappa_hat, self.stored)), missing))
        return list(map(StepRecord, range(len(self.stored)), self.choices, self.admissible,
                        kappa_hat, v_bar, self.alarms))


class ScheduleStream:
    """A scheduling run that renders its decision CSV while the gate decides.

    The one gate loop, which :func:`run_schedule` collects into a
    :class:`ScheduleRun`. The gate decides one ``CSV_BLOCK_ROWS`` block of
    steps at a time and yields its blocks, carrying the gated quantity, the
    admissible sets seen so far, the policy and its generator; the practical
    gains of a block are built from the ``w_bar`` view as the block runs.
    Every argument is checked on construction, so a refusal comes before any
    row. ``alarm`` is the first alarm streamed so far, as ``(k, text)``, or
    None.
    """

    #: What a run of :meth:`_blocks` leaves behind.
    _END_STATE = ("alarm",)

    def __init__(self, params: AbstractionParams,
                 target: ExponentialTarget | PracticalTarget,
                 steps: int,
                 policy: Policy | None = None,
                 w_bar: Sequence[float] | float | None = None,
                 v0: float | None = None,
                 seed: int | None = None):
        if steps < 0:
            raise ParameterError(f"steps must be >= 0, got {steps}")
        self.practical = isinstance(target, PracticalTarget)
        if self.practical:
            if v0 is None:
                raise ParameterError("practical mode needs v0 (--v0) to initialize vbar")
            self._initial = check_nonnegative(v0, "v0")
            self._w_bar = w_bar_series(0.0 if w_bar is None else w_bar, steps)
        else:
            self._initial, self._w_bar = 0.0, None
        self._steps, self._params = steps, params
        self._limit, self._coefficients = _rule(params, target)
        self._order, self._texts = _order(params), _alarms(target)
        self._policy = policy or greedy_policy()
        self._rng = np.random.default_rng(seed)
        self.alarm: tuple[int, str] | None = None

    def _blocks(self):
        """``(start, choices, admissible, stored, alarms)`` of each block of steps in turn;
        each step applies the gate kernel to plain floats."""
        now, limit, coefficients = self._initial, self._limit, self._coefficients
        params, order, texts, sets = self._params, self._order, self._texts, {}
        policy, rng, fired, beta = self._policy, self._rng, False, self._params.beta
        for start in range(0, self._steps, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, self._steps)
            if self._w_bar is None:
                gains = [None] * (stop - start)
            else:
                gains = [beta * w for w in self._w_bar[start:stop].tolist()]
            choices, admissible_sets, stored, alarms = [], [], [], []
            for k, gain in enumerate(gains, start):
                after, mask = _admit(now, coefficients, gain, limit)
                admissible = sets.get(mask)
                if admissible is None:
                    admissible = sets[mask] = _modes(order, mask)
                alarm = _alarm(texts, now, limit, mask)
                if alarm is not None and not fired:
                    fired, self.alarm = True, (k, alarm)
                chosen = 0 if fired else policy(k, admissible, rng)
                now = _pick(after, order, params, chosen)
                choices.append(chosen)
                admissible_sets.append(admissible)
                stored.append(now)
                alarms.append(alarm)
            yield start, choices, admissible_sets, stored, alarms

    def csv_blocks(self):
        """The lines of ``schedule_csv_lines(run_schedule(...).records)``, header first, one
        list per block of rows (see ``io.csv_blocks``); run this once."""
        return csv_blocks(SCHEDULE_COLUMNS, (_decision_cells(self.practical, *block)
                                             for block in self._blocks()))


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
    ``simulate_plant(system, run.chosen, x0)``. ``w_bar`` (one bound, or
    one per step) is read by a practical target only. The columns are those
    of a :class:`ScheduleStream` over the same arguments, collected block
    by block.
    """
    stream = ScheduleStream(params, target, steps, policy, w_bar, v0, seed)
    run = ScheduleRun([], [], [], [], stream.practical, False)
    for _, *block in stream._blocks():
        for column, values in zip((run.choices, run.admissible, run.stored, run.alarms), block):
            column += values
    run.alarm_fired = stream.alarm is not None
    return run


#: Exact column contract of the decision CSV emission.
SCHEDULE_COLUMNS = ("k", "chosen_sigma", "admissible_set", "kappa_hat", "vbar", "alarm")


def _label(admissible: frozenset[int]) -> str:
    return "|".join(map(str, sorted(admissible)))


def _decision_cells(practical: bool, start: int, choices, admissible, stored, alarms):
    """Cells of the decision rows ``start ..``, column by column (see ``io.csv_blocks``)."""
    labels = {modes: _label(modes) for modes in set(admissible)}
    if practical:
        kappa_hat, v_bar = [""] * len(stored), list(map(repr, stored))
    else:  # a greedy run revisits a few counter values: format each once
        cells = {log: repr(_kappa_hat(log)) for log in set(stored)}
        kappa_hat, v_bar = list(map(cells.__getitem__, stored)), [""] * len(stored)
    return (map(str, range(start, start + len(stored))), map(str, choices),
            map(labels.__getitem__, admissible), kappa_hat, v_bar,
            [alarm or "" for alarm in alarms])


def schedule_csv_lines(records: Sequence[StepRecord]) -> list[str]:
    """Render a decision stream as CSV under the fixed column contract."""
    def cell(value) -> str:
        return "" if value is None else repr(float(value))

    return [",".join(SCHEDULE_COLUMNS)] + [
        ",".join((str(rec.k), str(rec.chosen), _label(rec.admissible), cell(rec.kappa_hat),
                  cell(rec.v_bar), rec.alarm or ""))
        for rec in records]
