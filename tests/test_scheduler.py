import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references

from convrate import (
    AbstractionParams,
    ExponentialTarget,
    MkConstraint,
    ParameterError,
    PracticalTarget,
    admissible_modes,
    exponential_state,
    greedy_policy,
    kappa_hat_step,
    lyapunov_abstraction,
    mk_verdict,
    random_policy,
    round_robin_policy,
    run_schedule,
    simulate_plant,
    supervisor_check,
    worst_case_sequence,
)
from convrate import scheduler
from convrate.cli import run as cli_run
from convrate.io import CSV_BLOCK_ROWS, save_system
from convrate.scheduler import POLICIES, ScheduleStream, StepRecord, schedule_csv_lines
from conftest import two_mode_system

PARAMS = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})
TARGET = ExponentialTarget(rho_hat=0.9, alpha_hat=2.0)


class TestKappaHat:
    def test_nominal_step(self):
        state = kappa_hat_step(exponential_state(), 0, PARAMS, TARGET)
        assert state.kappa_hat == pytest.approx(0.5 / 0.9, rel=1e-12)

    def test_matching_rate_is_neutral(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.9})
        state = kappa_hat_step(exponential_state(), 0, params, TARGET)
        assert state.kappa_hat == pytest.approx(1.0, rel=1e-12)

    def test_two_skips(self):
        state = exponential_state()
        for _ in range(2):
            state = kappa_hat_step(state, 1, PARAMS, TARGET)
        assert state.kappa_hat == pytest.approx((4.0 / 3.0) ** 2, rel=1e-12)

    def test_zero_rate_absorbs(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.0, 1: 1.2})
        state = kappa_hat_step(exponential_state(), 1, params, TARGET)
        state = kappa_hat_step(state, 0, params, TARGET)
        assert state.log_kappa_hat == -math.inf
        assert state.kappa_hat == 0.0
        # and it never recovers above zero damage
        state = kappa_hat_step(state, 1, params, TARGET)
        assert state.kappa_hat == 0.0


class TestAdmissibleModes:
    def test_fresh_budget_allows_skip(self):
        assert admissible_modes(exponential_state(), PARAMS, TARGET) == {0, 1}

    def test_consumed_budget_blocks_skip(self):
        state = exponential_state()
        for _ in range(2):
            state = kappa_hat_step(state, 1, PARAMS, TARGET)
        # kappa_hat = 16/9; another skip would reach 64/27 > 2
        assert admissible_modes(state, PARAMS, TARGET) == {0}

    def test_huge_budget_allows_everything(self):
        target = ExponentialTarget(rho_hat=0.9, alpha_hat=1e9)
        assert admissible_modes(exponential_state(), PARAMS, target) == {0, 1}


class TestPolicies:
    def test_greedy_prefers_cheapest(self):
        assert greedy_policy()(0, frozenset({0, 1}), None) == 1

    def test_greedy_single_option(self):
        assert greedy_policy()(0, frozenset({0}), None) == 0

    def test_round_robin_cycles(self):
        policy = round_robin_policy()
        chosen = [policy(k, frozenset({0, 1}), None) for k in range(4)]
        assert chosen == [0, 1, 0, 1]

    def test_random_needs_rng(self):
        with pytest.raises(ParameterError):
            random_policy()(0, frozenset({0, 1}), None)


class TestPractical:
    """The practical gate, run through ``run_schedule`` and ``ScheduleStream``."""

    def test_nominal_keeps_bound(self):
        run = run_schedule(PARAMS, PracticalTarget(2.0), 1, reckless_policy(0), 0.4, 1.0)
        assert run.stored[0] == pytest.approx(0.9, abs=1e-12)
        assert not run.alarm_fired

    def test_skip_violates_bound(self):
        # 1.2 * 1.8 = 2.16 > C: the gate admits only mode 0, and the step taken anyway alarms
        run = run_schedule(PARAMS, PracticalTarget(2.0), 2, reckless_policy(1), 0.0, 1.8)
        assert run.admissible[0] == {0}
        assert run.stored[0] == pytest.approx(2.16, abs=1e-12)
        assert run.alarms == [None, "state bound exceeded"]

    def test_contractive_modes_always_admissible(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 0.9})
        run = run_schedule(params, PracticalTarget(2.0), 20, round_robin_policy(), 0.0, 1.5)
        assert set(run.admissible) == {frozenset({0, 1})}

    def test_disturbance_narrows_the_set(self):
        # 0.5 + 0.9 = 1.4 keeps C = 2; 1.2 + 0.9 = 2.1 does not
        target, policy = PracticalTarget(2.0), reckless_policy(0)
        assert run_schedule(PARAMS, target, 1, policy, 0.0, 1.0).admissible == [{0, 1}]
        assert run_schedule(PARAMS, target, 1, policy, 0.9, 1.0).admissible == [{0}]

    @pytest.mark.parametrize("w_bar_k", [math.nan, math.inf, -0.1])
    def test_bad_disturbance_rejected_before_the_alarm(self, w_bar_k):
        # vbar = 5 > C would alarm at once; the disturbance is refused before any row
        with pytest.raises(ParameterError, match="w_bar must be finite and >= 0"):
            ScheduleStream(PARAMS, PracticalTarget(2.0), 3, w_bar=[0.0, w_bar_k, 0.0], v0=5.0)


class TestSupervisor:
    def test_ok_within_budget(self):
        assert supervisor_check(exponential_state(), PARAMS, TARGET)

    def test_practical_run_needs_v0(self):
        with pytest.raises(ParameterError, match="v0"):
            run_schedule(PARAMS, PracticalTarget(2.0), 5)

    @pytest.mark.parametrize("w_bar", [np.float32(0.1), np.int64(0), np.array(0.1), 0, 0.1])
    def test_any_scalar_w_bar_is_a_constant_bound(self, w_bar):
        target = PracticalTarget(2.0)
        run = run_schedule(PARAMS, target, 5, w_bar=w_bar, v0=1.0)
        expected = run_schedule(PARAMS, target, 5, w_bar=[float(w_bar)] * 5, v0=1.0)
        assert run.records == expected.records

    def test_forced_skips_alarm_at_first_violation(self):
        # third consecutive skip pushes kappa_hat = (4/3)^3 > 2; the scripted
        # policy takes it although the gate admits only mode 0
        script = (1, 1, 1, 0, 0)
        run = run_schedule(PARAMS, TARGET, 5, policy=lambda k, admissible, rng: script[k])
        alarms = [rec.k for rec in run.records if rec.alarm]
        assert run.alarm_fired
        assert alarms[0] == 3
        assert run.records[3].alarm == "kappa budget exceeded"

    def test_practical_spike_alarms(self):
        # vbar = 0.5 keeps C = 2 until the spike, after which no mode does
        lines, alarm = run_lines(PARAMS, PracticalTarget(2.0), 3, policy=reckless_policy(0),
                                 w_bar=[0.0, 10.0, 0.0], v0=1.0)
        assert alarm == (1, "no admissible mode keeps the bound")
        assert lines[2] == "1,0,,,10.25,no admissible mode keeps the bound"

    def test_alarm_payload(self):
        state = exponential_state()
        for _ in range(3):  # kappa_hat = (4/3)^3 > 2
            state = kappa_hat_step(state, 1, PARAMS, TARGET)
        report = supervisor_check(state, PARAMS, TARGET)
        assert not report
        assert report.reason == "kappa budget exceeded"
        assert report.value == state.kappa_hat
        assert report.threshold == 2.0


class TestRunSoundness:
    @pytest.mark.parametrize("seed", range(10))
    def test_exponential_invariant_and_state_bound(self, seed):
        rng = np.random.default_rng(2100 + seed)
        system = two_mode_system(rng, perturbation=0.5)
        params = lyapunov_abstraction(system)
        rho_hat = min(0.99, params.rho[0] + 0.2)
        target = ExponentialTarget(rho_hat, alpha_hat=float(rng.uniform(1.5, 20.0)))
        x0 = rng.standard_normal(system.n)
        run = run_schedule(params, target, 400, seed=seed)
        states = simulate_plant(system, run.chosen, x0)
        assert not run.alarm_fired
        kappa = 1.0
        x0_norm = np.linalg.norm(x0)
        for record in run.records:
            kappa *= params.rho[record.chosen]
            k = record.k + 1
            assert kappa <= target.alpha_hat * target.rho_hat**k * (1 + 1e-9)
            envelope = params.alpha * target.alpha_hat * target.rho_hat**k * x0_norm
            assert np.linalg.norm(states[k]) <= envelope * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_practical_invariant_and_state_bound(self, seed):
        rng = np.random.default_rng(2200 + seed)
        system = two_mode_system(rng, perturbation=0.5, disturbance_bound=0.2)
        params = lyapunov_abstraction(system)
        x0 = rng.standard_normal(system.n)
        v0 = params.alpha * float(np.linalg.norm(x0))
        w_bar = 0.2
        bound = v0 + params.beta * w_bar / (1.0 - params.rho[0]) + 1.0
        target = PracticalTarget(bound)
        run = run_schedule(params, target, 300, w_bar=w_bar, v0=v0, seed=seed)
        assert not run.alarm_fired
        assert all(rec.v_bar <= bound * (1 + 1e-12) for rec in run.records)
        # co-simulate the plant under the chosen modes with worst-bound noise
        x = np.array(x0, dtype=float)
        for record in run.records:
            direction = rng.standard_normal(system.n)
            w = direction / np.linalg.norm(direction) * w_bar * rng.random()
            x = system.matrix(record.chosen) @ x + w
            assert np.linalg.norm(x) <= record.v_bar * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_static_mk_pattern_subsumed(self, seed):
        # a worst-case (m,K) pattern whose closed-form certificate fits the
        # target is never rejected by the online gate
        rng = np.random.default_rng(2300 + seed)
        system = two_mode_system(rng, perturbation=0.3)
        params = lyapunov_abstraction(system)
        mk = MkConstraint(int(rng.integers(1, 4)), 4)
        verdict = mk_verdict(params, mk)
        if not verdict.proven_stable:
            return
        target = ExponentialTarget(min(0.999, verdict.rho_tilde + 1e-9),
                                   max(1.0, verdict.alpha_tilde))
        state = exponential_state()
        for sigma in worst_case_sequence(mk, 200):
            assert sigma in admissible_modes(state, params, target)
            state = kappa_hat_step(state, sigma, params, target)

    def test_deterministic_streams(self):
        runs = [run_schedule(PARAMS, TARGET, 100, policy=random_policy(), seed=42)
                for _ in range(2)]
        assert runs[0].chosen == runs[1].chosen

    def test_gate_blocks_violations_before_any_alarm(self):
        # greedy tries to skip whenever allowed; the gate must block the
        # violating decisions so no alarm ever fires
        run = run_schedule(PARAMS, ExponentialTarget(0.9, 1.1), 6,
                           policy=greedy_policy())
        assert not run.alarm_fired
        kappa = 1.0
        for record in run.records:
            kappa *= PARAMS.rho[record.chosen]
            assert kappa <= 1.1 * 0.9 ** (record.k + 1) * (1 + 1e-9)


@st.composite
def gate_cases(draw):
    """Random rates (zero included) with an exponential or a practical target."""
    rates = st.floats(0.0, 3.0)
    rho = {mode: draw(rates) for mode in range(draw(st.integers(1, 3)))}
    params = AbstractionParams(alpha=1.0, beta=draw(st.floats(0.01, 5.0)), rho=rho)
    steps = draw(st.integers(1, 40))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        target = ExponentialTarget(draw(st.floats(0.01, 0.99)), draw(st.floats(1.0, 50.0)))
        return params, target, steps, policy, seed, [0.0] * steps, None
    bound = draw(st.floats(0.01, 100.0))
    v0 = draw(st.floats(0.0, 1.0)) * bound  # v0 <= C
    w_bar = draw(st.lists(st.floats(0.0, 2.0), min_size=steps, max_size=steps))
    return params, PracticalTarget(bound), steps, policy, seed, w_bar, v0


def composed_run(params, target, steps, policy, seed, w_bar, v0):
    """The run harness rebuilt from the public gate functions, step by step.

    These functions share the gate kernel with ``run_schedule``; the tests
    check both against ``references.schedule_rows``, which does not. They
    gate the exponential target only, so a practical run is the reference's.
    """
    if isinstance(target, PracticalTarget):
        return references.schedule_rows(params, target, steps, policy, seed, w_bar, v0)
    state = exponential_state()
    rng = np.random.default_rng(seed)
    fallback = False
    rows = []
    for k in range(steps):
        report = supervisor_check(state, params, target)
        admissible = admissible_modes(state, params, target)
        fallback = fallback or not report
        chosen = 0 if fallback else policy(k, admissible, rng)
        state = kappa_hat_step(state, chosen, params, target)
        rows.append((k, chosen, admissible, state.kappa_hat, None, report.reason))
    return rows


class TestGateRule:
    def test_gate_and_step_round_alike(self):
        # log kappa_hat + log rho_1 - log rho_hat admitted the third skip,
        # but the step stored a value above log alpha_hat and alarmed
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.1, 1: 1.722})
        run = run_schedule(params, ExponentialTarget(0.931, 3.4211091638871602), 4)
        assert not run.alarm_fired
        assert run.chosen == (1, 0, 1, 1)

    @given(gate_cases())
    @settings(max_examples=200, deadline=None)
    def test_unforced_runs_never_exceed_first(self, case):
        params, target, steps, policy, seed, w_bar, v0 = case
        run = run_schedule(params, target, steps, policy=POLICIES[policy](),
                           w_bar=w_bar, v0=v0, seed=seed)
        alarms = [record.alarm for record in run.records if record.alarm]
        assert not alarms or alarms[0] not in ("kappa budget exceeded", "state bound exceeded")

    @given(gate_cases())
    @settings(max_examples=100, deadline=None)
    def test_run_matches_composed_steps(self, case):
        params, target, steps, policy, seed, w_bar, v0 = case
        run = run_schedule(params, target, steps, policy=POLICIES[policy](),
                           w_bar=w_bar, v0=v0, seed=seed)
        rows = [(r.k, r.chosen, r.admissible, r.kappa_hat, r.v_bar, r.alarm)
                for r in run.records]
        assert rows == composed_run(params, target, steps, POLICIES[policy](), seed,
                                    w_bar, v0)
        assert rows == references.schedule_rows(params, target, steps, POLICIES[policy](),
                                                seed, w_bar, v0)

    @pytest.mark.parametrize("target, v0, w_bar", [
        (ExponentialTarget(0.9, 2.0), None, 0.0), (PracticalTarget(2.0), 1.0, 0.5)])
    @pytest.mark.parametrize("policy", [greedy_policy(), round_robin_policy()],
                             ids=["greedy", "round-robin"])
    def test_mode_ids_out_of_order_match_the_dict_gate(self, target, v0, w_bar, policy):
        # a mode read at its sorted position would take another mode's rate
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 5: 0.0, 2: 1.2})
        expected = references.schedule_rows(params, target, 6, policy, None, [w_bar] * 6, v0)
        run = run_schedule(params, target, 6, policy=policy, w_bar=w_bar, v0=v0)
        assert run.records == [StepRecord(*row) for row in expected]
        assert composed_run(params, target, 6, policy, None, [w_bar] * 6, v0) == expected

    @pytest.mark.parametrize("rho, target, state", [
        ({0: 0.5, 1: 0.9}, ExponentialTarget(0.9, 1.0), {}),
        ({0: 0.5, 1: 1.0}, PracticalTarget(2.0), {"v0": 2.0}),
    ])
    def test_value_at_the_limit_is_admissible(self, rho, target, state):
        # ``state``: the run's initial vbar, where the target reads one
        params = AbstractionParams(alpha=1.0, beta=1.0, rho=rho)
        run = run_schedule(params, target, 6, **state)
        assert run.admissible[0] == {0, 1}
        if isinstance(target, ExponentialTarget):  # the step functions gate it too
            assert admissible_modes(exponential_state(), params, target) == {0, 1}
        assert run.chosen == (1,) * 6 and not run.alarm_fired
        assert run.records == [StepRecord(*row) for row in references.schedule_rows(
            params, target, 6, greedy_policy(), None, [0.0] * 6, state.get("v0"))]

def reckless_policy(mode):
    """Always ``mode``, whatever the gate admits: drives the counter over its limit."""
    return lambda k, admissible, rng: mode


@st.composite
def wide_gate_cases(draw):
    """3-4 modes with non-contiguous ids in any order, one rate zero, and
    limits tight enough that runs alarm, on both targets."""
    ids = [0, *draw(st.sets(st.integers(1, 9), min_size=2, max_size=3))]
    rates = [draw(st.floats(0.0, 3.0)) for _ in ids]
    rates[draw(st.integers(0, len(ids) - 1))] = 0.0
    rho = dict(zip(draw(st.permutations(ids)), rates))
    params = AbstractionParams(alpha=1.0, beta=draw(st.floats(0.01, 5.0)), rho=rho)
    steps = draw(st.integers(1, 40))
    policy = draw(st.one_of(st.sampled_from([POLICIES[name] for name in sorted(POLICIES)]),
                            st.sampled_from(ids).map(lambda mode: lambda: reckless_policy(mode))))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        target = ExponentialTarget(draw(st.floats(0.01, 0.99)), draw(st.floats(1.0, 3.0)))
        return params, target, steps, policy, seed, [0.0] * steps, None
    bound = draw(st.floats(0.01, 10.0))
    v0 = draw(st.floats(0.0, 1.5)) * bound  # v0 > C alarms at once
    w_bar = draw(st.lists(st.floats(0.0, 2.0), min_size=steps, max_size=steps))
    return params, PracticalTarget(bound), steps, policy, seed, w_bar, v0


def run_lines(params, target, steps, **kwargs) -> tuple[list[str], tuple[int, str] | None]:
    """The decision CSV lines of a streamed run, and its first alarm."""
    stream, text = ScheduleStream(params, target, steps, **kwargs), io.StringIO()
    alarm = stream.write_csv(text)
    lines = text.getvalue().split("\n")
    assert lines.pop() == ""  # every line ends in a newline
    return lines, alarm


def first_alarm(run) -> tuple[int, str] | None:
    return next(((record.k, record.alarm) for record in run.records if record.alarm), None)


class TestColumnarRun:
    @given(wide_gate_cases())
    @settings(max_examples=200, deadline=None)
    def test_run_matches_composed_steps(self, case):
        params, target, steps, policy, seed, w_bar, v0 = case
        run = run_schedule(params, target, steps, policy=policy(), w_bar=w_bar, v0=v0,
                           seed=seed)
        eager = [StepRecord(*row)
                 for row in composed_run(params, target, steps, policy(), seed, w_bar, v0)]
        assert eager == [StepRecord(*row) for row in
                         references.schedule_rows(params, target, steps, policy(), seed, w_bar, v0)]
        assert run.records == eager
        assert run.chosen == tuple(record.chosen for record in eager)
        assert run.alarm_fired == any(record.alarm for record in eager)
        assert run_lines(params, target, steps, policy=policy(), w_bar=w_bar, v0=v0,
                         seed=seed) == (references.schedule_csv_lines(eager), first_alarm(run))

    @given(wide_gate_cases(), st.sampled_from([CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                               CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]))
    @example(case=(AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.8, 1: 1.44}),
                   ExponentialTarget(0.79995, 1.5), 1, greedy_policy, 0, [0.0], None),
             steps=2 * CSV_BLOCK_ROWS + 3)  # the counter climbs to an alarm at k = 6487
    @settings(max_examples=30, deadline=None)
    def test_stream_equals_collected_run_across_blocks(self, case, steps):
        params, target, _, policy, seed, w_bar, v0 = case
        w_bar = [w_bar[k % len(w_bar)] for k in range(steps)]
        run = run_schedule(params, target, steps, policy=policy(), w_bar=w_bar, v0=v0,
                           seed=seed)
        lines, alarm = run_lines(params, target, steps, policy=policy(), w_bar=w_bar, v0=v0,
                                 seed=seed)
        reference = [StepRecord(*row) for row in
                     references.schedule_rows(params, target, steps, policy(), seed, w_bar, v0)]
        # plain booleans: pytest's diff of two block-sized tables is slow to report
        same = run.records == reference and lines == references.schedule_csv_lines(run.records)
        assert same
        assert alarm == first_alarm(run)
        assert run.alarm_fired == (alarm is not None)

    @pytest.mark.parametrize("rho, target, policy, w_bar, v0, alarm", [
        ({0: 2.0, 3: 2.5}, ExponentialTarget(0.9, 1.0), greedy_policy(), 0.0, None,
         "no admissible mode"),
        ({0: 0.5, 2: 1.2, 5: 0.0}, ExponentialTarget(0.9, 2.0), reckless_policy(2), 0.0, None,
         "kappa budget exceeded"),
        ({0: 0.5, 2: 1.2, 5: 0.0}, PracticalTarget(2.0), greedy_policy(), 0.0, 5.0,
         "state bound exceeded"),
        ({0: 0.5, 2: 1.2, 5: 0.0}, PracticalTarget(2.0), greedy_policy(), 10.0, 1.0,
         "no admissible mode keeps the bound"),
    ])
    def test_every_alarm_matches_composed_steps(self, rho, target, policy, w_bar, v0, alarm):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho=rho)
        run = run_schedule(params, target, 8, policy=policy, w_bar=w_bar, v0=v0)
        eager = [StepRecord(*row)
                 for row in composed_run(params, target, 8, policy, None, [w_bar] * 8, v0)]
        assert eager == [StepRecord(*row) for row in
                         references.schedule_rows(params, target, 8, policy, None, [w_bar] * 8, v0)]
        assert run.alarm_fired
        assert next(record.alarm for record in run.records if record.alarm) == alarm
        assert run.records == eager
        assert run_lines(params, target, 8, policy=policy, w_bar=w_bar, v0=v0) == \
            (references.schedule_csv_lines(eager), first_alarm(run))

    @pytest.mark.parametrize("target, v0", [(TARGET, None), (PracticalTarget(2.0), 1.0)])
    def test_unknown_mode_raises_the_step_key_error(self, target, v0):
        with pytest.raises(KeyError) as from_run:
            run_schedule(PARAMS, target, 3, policy=reckless_policy(7), v0=v0)
        with pytest.raises(KeyError) as from_step:
            kappa_hat_step(exponential_state(), 7, PARAMS, TARGET)
        assert from_run.value.args == from_step.value.args
        assert "mode 7 has no convergence rate" in str(from_run.value)

    def test_counter_past_exp_overflow_reads_inf(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 3.0})
        run = run_schedule(params, ExponentialTarget(0.01, 1.0), 200)
        assert run.records[-1].kappa_hat == math.inf
        lines, _ = run_lines(params, ExponentialTarget(0.01, 1.0), 200)
        assert lines == references.schedule_csv_lines(run.records)
        assert lines[-1].split(",")[3] == "inf"

    def test_records_are_built_once(self):
        run = run_schedule(PARAMS, TARGET, 10)
        assert run.records is run.records
        assert len(run.records) == 10

    def test_w_bar_is_checked_up_front_where_it_is_read(self):
        target = PracticalTarget(2.0)
        # an entry past the last step is never read
        run_schedule(PARAMS, target, 3, w_bar=[0.1, 0.1, 0.1, math.nan], v0=1.0)
        with pytest.raises(ParameterError, match="w_bar must be finite and >= 0, got nan"):
            run_schedule(PARAMS, target, 3, policy=reckless_policy(7),
                         w_bar=[0.1, 0.1, math.nan], v0=1.0)
        with pytest.raises(ParameterError, match="w_bar must provide 3 entries, got 2"):
            run_schedule(PARAMS, target, 3, w_bar=[0.1, 0.1], v0=1.0)
        # an exponential target never reads w_bar
        assert run_schedule(PARAMS, TARGET, 3, w_bar=[math.nan]).chosen == \
            run_schedule(PARAMS, TARGET, 3).chosen


@st.composite
def random_cases(draw):
    """1-6 modes with ids in any order on both targets; tight limits make some runs alarm."""
    ids = [0, *draw(st.sets(st.integers(1, 9), max_size=5))]
    rho = dict(zip(draw(st.permutations(ids)), [draw(st.floats(0.0, 1.5)) for _ in ids]))
    params = AbstractionParams(alpha=1.0, beta=draw(st.floats(0.01, 2.0)), rho=rho)
    steps = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        target = ExponentialTarget(draw(st.floats(0.1, 0.99)), draw(st.floats(1.0, 100.0)))
        return params, target, steps, seed, [0.0] * steps, None
    bound = draw(st.floats(0.1, 10.0))
    v0 = draw(st.floats(0.0, 1.2)) * bound  # v0 > C alarms at once
    w_bar = draw(st.lists(st.floats(0.0, 0.2 * bound / params.beta), min_size=steps,
                          max_size=steps))
    spike = draw(st.one_of(st.none(), st.integers(0, steps - 1)))
    if spike is not None:  # no mode keeps the bound at this step: an alarm after draws
        w_bar[spike] = 2.0 * bound / params.beta
    return params, PracticalTarget(bound), steps, seed, w_bar, v0


def reference_random_rows(params, target, steps, seed, w_bar, v0) -> list[StepRecord]:
    return [StepRecord(*row) for row in references.schedule_rows(
        params, target, steps, references.random_policy(), seed, w_bar, v0)]


def words_drawn(records) -> int:
    """Decisions that take a word: two or more admissible modes, before the first alarm.

    (A re-draw, at odds below 1e-9 per word for 6 modes or fewer, is not counted.)
    """
    first_alarm = next((record.k for record in records if record.alarm), len(records))
    return sum(len(record.admissible) > 1 for record in records[:first_alarm])


def word_with_leftover(r: int, leftover: int) -> int:
    """The least 32-bit word ``u`` with ``u * r mod 2**32 == leftover``."""
    step = math.gcd(r, 2**32)
    assert leftover % step == 0
    modulus = 2**32 // step
    return leftover // step * pow(r // step, -1, modulus) % modulus


class TestRandomPolicy:
    @given(random_cases(), st.sampled_from([-1, 0, 1]), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_block_drawn_choices_equal_one_draw_per_decision(self, case, offset, other_seed):
        params, target, steps, seed, w_bar, v0 = case
        expected = reference_random_rows(params, target, steps, seed, w_bar, v0)
        # the run's last word is one before, at or one past the end of a block
        block = max(1, words_drawn(expected) - offset)
        with mock.patch.object(scheduler, "_WORD_BLOCK", block):
            run = run_schedule(params, target, steps, policy=random_policy(), w_bar=w_bar,
                               v0=v0, seed=seed)
            assert run.records == expected
            reused = random_policy()  # one object across two runs acts as two fresh ones
            for s in (seed, other_seed):
                again = run_schedule(params, target, steps, policy=reused, w_bar=w_bar, v0=v0,
                                     seed=s)
                assert again.records == reference_random_rows(params, target, steps, s, w_bar,
                                                              v0)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_runs_across_the_default_block_edge(self, offset):
        # both modes are always admissible and r = 2 never re-draws: one word a step
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 0.6})
        steps = scheduler._WORD_BLOCK + offset
        run = run_schedule(params, TARGET, steps, policy=random_policy(), seed=3)
        expected = reference_random_rows(params, TARGET, steps, 3, [0.0] * steps, None)
        assert words_drawn(expected) == steps
        same = run.records == expected
        assert same

    @pytest.mark.parametrize("r", [2, 3, 5, 6, 2**31 + 1])
    def test_reduction_on_crafted_words(self, r):
        threshold = (2**32 - r) % r
        step = math.gcd(r, 2**32)  # u * r mod 2**32 runs through the multiples of step
        lowest_kept = -(-threshold // step) * step
        top, at = 2**32 - 1, word_with_leftover(r, lowest_kept)
        cases = [([top], r - 1, 1),
                 ([at], at * r // 2**32, 1),
                 ([0, top], *((r - 1, 2) if threshold else (0, 1)))]
        if lowest_kept:
            below = word_with_leftover(r, lowest_kept - step)
            assert below * r % 2**32 < threshold <= at * r % 2**32
            cases += [([below, at], at * r // 2**32, 2), ([below, below, top], r - 1, 3)]
        for words, value, read in cases:
            stream = iter(words + [top])  # one word past the case: reading it shows
            assert scheduler._below(r, stream) == value
            assert len(words) + 1 - len(list(stream)) == read

    @pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 2**31 + 1, 2**32 - 1])
    def test_reduction_equals_generator_integers(self, r):
        # an odd block: blocks end inside the bit generator's 64-bit outputs
        with mock.patch.object(scheduler, "_WORD_BLOCK", 7):
            words = scheduler._words(np.random.default_rng(r))
            drawn = [scheduler._below(r, words) for _ in range(500)]
        rng = np.random.default_rng(r)
        assert drawn == [int(rng.integers(r)) for _ in range(500)]


class TestScheduleCsv:
    def test_column_contract(self):
        run = run_schedule(PARAMS, TARGET, 3)
        lines = schedule_csv_lines(run.records)
        assert lines[0] == "k,chosen_sigma,admissible_set,kappa_hat,vbar,alarm"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "0|1"
        assert first[4] == ""  # no vbar in exponential mode
        assert first[5] == ""

    def test_practical_columns(self):
        run = run_schedule(PARAMS, PracticalTarget(10.0), 2, v0=1.0)
        lines = schedule_csv_lines(run.records)
        first = lines[1].split(",")
        assert first[3] == ""  # no kappa_hat in practical mode
        assert float(first[4]) > 0

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("practical", [False, True])
    def test_cli_csv_equals_record_reference(self, seed, practical, tmp_path, capsys):
        # more rows than one block, so the column renderer crosses a block edge
        steps = CSV_BLOCK_ROWS + 5
        system = two_mode_system(np.random.default_rng(seed), n=4)
        save_system(system, tmp_path / "system.json")
        params = lyapunov_abstraction(system)
        if practical:
            target, w_bar, v0 = PracticalTarget(5.0), 0.05, 1.0
            flags = ["--C", "5.0", "--w-bar", "0.05", "--v0", "1.0", "--policy", "random",
                     "--seed", str(seed)]
            policy = random_policy()
        else:
            rho_hat = min(0.99, params.rho[0] + 0.2)
            target, w_bar, v0 = ExponentialTarget(rho_hat, 10.0), None, None
            flags = ["--rho-hat", repr(rho_hat), "--alpha-hat", "10.0"]
            policy = greedy_policy()
        out = tmp_path / "decisions.csv"
        code = cli_run(["schedule", str(tmp_path / "system.json"), "--steps", str(steps),
                        *flags, "--out", str(out)])
        run = run_schedule(params, target, steps, policy=policy, w_bar=w_bar, v0=v0,
                           seed=seed if practical else None)
        same = out.read_text() == "\n".join(references.schedule_csv_lines(run.records)) + "\n"
        assert same
        assert code == (1 if run.alarm_fired else 0)
        alarms = [record for record in run.records if record.alarm]
        expected = f"alarm at k={alarms[0].k}: {alarms[0].alarm}\n" if alarms else ""
        assert capsys.readouterr().err == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_record_reference(self, data):
        # a few drawn records, cycled up to a row count around one block
        pool = data.draw(st.lists(step_records(), min_size=1, max_size=8))
        rows = data.draw(st.sampled_from([0, 1, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                          CSV_BLOCK_ROWS + 1]))
        records = [pool[k % len(pool)] for k in range(rows)]
        # plain booleans: pytest's diff of two block-sized tables, repeated
        # while hypothesis shrinks, would take minutes to report a failure
        same = schedule_csv_lines(records) == references.schedule_csv_lines(records)
        assert same


@st.composite
def step_records(draw):
    """Records with missing, zero, infinite and NaN values and 1-3-mode sets."""
    values = st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.inf, math.nan]),
                       st.floats(allow_nan=True, allow_infinity=True))
    return StepRecord(k=draw(st.integers(0, 10**6)), chosen=draw(st.integers(0, 2)),
                      admissible=frozenset(draw(st.sets(st.integers(0, 2), min_size=1))),
                      kappa_hat=draw(values), v_bar=draw(values),
                      alarm=draw(st.sampled_from([None, "kappa budget exceeded",
                                                  "no admissible mode"])))
