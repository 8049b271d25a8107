import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    practical_state,
    practical_step,
    random_policy,
    round_robin_policy,
    run_schedule,
    supervisor_check,
    worst_case_sequence,
)
from convrate.scheduler import POLICIES, schedule_csv_lines
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

    def test_equal_preference_breaks_to_lowest(self):
        policy = greedy_policy(preference={0: 1.0, 1: 1.0, 2: 1.0})
        assert policy(0, frozenset({0, 1, 2}), None) == 0

    def test_round_robin_cycles(self):
        policy = round_robin_policy()
        chosen = [policy(k, frozenset({0, 1}), None) for k in range(4)]
        assert chosen == [0, 1, 0, 1]

    def test_random_needs_rng(self):
        with pytest.raises(ParameterError):
            random_policy()(0, frozenset({0, 1}), None)


class TestPractical:
    def test_nominal_keeps_bound(self):
        state = practical_state(1.0)
        target = PracticalTarget(2.0)
        new_state, ok = practical_step(state, 0, 0.4, PARAMS, target)
        assert ok and new_state.v_bar == pytest.approx(0.9, abs=1e-12)

    def test_skip_violates_bound(self):
        state = practical_state(1.8)
        target = PracticalTarget(2.0)
        new_state, ok = practical_step(state, 1, 0.0, PARAMS, target)
        assert not ok
        assert new_state.v_bar == pytest.approx(2.16, abs=1e-12)

    def test_contractive_modes_always_admissible(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 0.9})
        state = practical_state(1.5)
        modes = admissible_modes(state, params, PracticalTarget(2.0), 0.0)
        assert modes == {0, 1}


    def test_disturbance_narrows_the_set(self):
        # 0.5 + 0.9 = 1.4 keeps C = 2; 1.2 + 0.9 = 2.1 does not
        state = practical_state(1.0)
        assert admissible_modes(state, PARAMS, PracticalTarget(2.0), 0.0) == {0, 1}
        assert admissible_modes(state, PARAMS, PracticalTarget(2.0), 0.9) == {0}

    @pytest.mark.parametrize("w_bar_k", [math.nan, math.inf, -0.1])
    def test_bad_disturbance_rejected_before_the_alarm(self, w_bar_k):
        # vbar = 5 > C would alarm; the disturbance is checked first
        with pytest.raises(ParameterError, match="w_bar"):
            supervisor_check(practical_state(5.0), PARAMS, PracticalTarget(2.0), w_bar_k)


class TestSupervisor:
    def test_ok_within_budget(self):
        assert supervisor_check(exponential_state(), PARAMS, TARGET)

    def test_forced_skips_alarm_at_first_violation(self):
        # third consecutive skip pushes kappa_hat = (4/3)^3 > 2
        run = run_schedule(PARAMS, TARGET, 5, forced=(1, 1, 1, 0, 0))
        alarms = [rec.k for rec in run.records if rec.alarm]
        assert run.alarm_fired
        assert alarms[0] == 3
        assert run.records[3].alarm == "kappa budget exceeded"

    def test_practical_spike_alarms(self):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})
        state = practical_state(1.0)
        report = supervisor_check(state, params, PracticalTarget(2.0), w_bar_k=10.0)
        assert not report
        assert "no admissible" in report.reason

    def test_alarm_payload(self):
        state = practical_state(5.0)
        report = supervisor_check(state, PARAMS, PracticalTarget(2.0), 0.0)
        assert not report
        assert report.value == 5.0
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
        run = run_schedule(params, target, 400, system=system, x0=x0, seed=seed)
        assert not run.alarm_fired
        kappa = 1.0
        x0_norm = np.linalg.norm(x0)
        for record in run.records:
            kappa *= params.rho[record.chosen]
            k = record.k + 1
            assert kappa <= target.alpha_hat * target.rho_hat**k * (1 + 1e-9)
            envelope = params.alpha * target.alpha_hat * target.rho_hat**k * x0_norm
            assert np.linalg.norm(run.states[k]) <= envelope * (1 + 1e-9)

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
                           policy=greedy_policy({0: 0.0, 1: 1.0}))
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
    """The run harness rebuilt from the public gate functions, step by step."""
    practical = isinstance(target, PracticalTarget)
    state = practical_state(v0) if practical else exponential_state()
    rng = np.random.default_rng(seed)
    fallback = False
    rows = []
    for k in range(steps):
        report = supervisor_check(state, params, target, w_bar[k])
        admissible = admissible_modes(state, params, target, w_bar[k])
        fallback = fallback or not report
        chosen = 0 if fallback else policy(k, admissible, rng)
        if practical:
            state, _ = practical_step(state, chosen, w_bar[k], params, target)
        else:
            state = kappa_hat_step(state, chosen, params, target)
        rows.append((k, chosen, admissible, None if practical else state.kappa_hat,
                     state.v_bar, report.reason))
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
