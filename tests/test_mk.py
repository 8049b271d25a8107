import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrate import (
    AbstractionParams,
    MkConstraint,
    ParameterError,
    UnsupportedConfigurationError,
    best_mk_for_ratio,
    build_robustness_abstraction,
    co_simulate,
    lyapunov_abstraction,
    mk_alpha_tilde,
    mk_rho_tilde,
    mk_verdict,
    permissible_skip_ratio,
    random_mk_sequence,
    safe_initial_radius,
    skip_count_bound,
    worst_case_sequence,
)
from convrate import counterexample
from conftest import two_mode_system, valid_rho_for

TWO_MODE = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 1.2})

rates = st.tuples(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1.0, max_value=3.0),
)
constraints = st.tuples(st.integers(0, 12), st.integers(1, 12)).map(
    lambda mk: MkConstraint(min(mk[0], mk[1]), mk[1])
)


class TestRhoTilde:
    def test_never_skipping_is_nominal(self):
        assert mk_rho_tilde(0.5, 1.2, MkConstraint(2, 2)) == 0.5

    def test_always_skipping_is_skip_rate(self):
        assert mk_rho_tilde(0.5, 1.2, MkConstraint(0, 2)) == 1.2

    def test_half_half(self):
        assert mk_rho_tilde(0.5, 1.2, MkConstraint(1, 2)) == pytest.approx(
            math.sqrt(0.6), abs=1e-12)

    def test_order_violation(self):
        with pytest.raises(ParameterError, match="rho1 >= rho0"):
            mk_rho_tilde(1.2, 0.5, MkConstraint(1, 2))

    @given(rates, constraints)
    @settings(max_examples=150)
    def test_monotone_in_m(self, pair, mk):
        rho0, rho1 = pair
        if mk.m < mk.K:
            tighter = MkConstraint(mk.m + 1, mk.K)
            assert mk_rho_tilde(rho0, rho1, tighter) <= mk_rho_tilde(rho0, rho1, mk) + 1e-12

    @given(rates, constraints, st.sampled_from([2, 3, 5]))
    @settings(max_examples=150)
    def test_scale_invariance(self, pair, mk, c):
        rho0, rho1 = pair
        assert mk_rho_tilde(rho0, rho1, mk) == mk_rho_tilde(rho0, rho1, mk.scaled(c))


class TestAlphaTilde:
    def test_half_half(self):
        assert mk_alpha_tilde(0.5, 1.2, MkConstraint(1, 2)) == pytest.approx(2.4, abs=1e-12)

    def test_never_skipping(self):
        assert mk_alpha_tilde(0.5, 1.2, MkConstraint(3, 3)) == 1.0

    def test_equal_rates(self):
        assert mk_alpha_tilde(0.7, 0.7, MkConstraint(1, 4)) == 1.0

    def test_overshoot_past_the_float_range_is_inf(self):
        # 2 ** 1500 is no float: the overshoot rounds up, which stays sound
        assert mk_alpha_tilde(0.5, 1.0, MkConstraint(1000, 2500)) == math.inf

    @given(rates, constraints)
    @settings(max_examples=150)
    def test_identity_with_rho_tilde(self, pair, mk):
        rho0, rho1 = pair
        alpha = mk_alpha_tilde(rho0, rho1, mk)
        rho_t = mk_rho_tilde(rho0, rho1, mk)
        assert alpha == pytest.approx((rho_t / rho0) ** mk.K, rel=1e-10)

    @given(rates, constraints, st.sampled_from([2, 3, 5]))
    @settings(max_examples=150)
    def test_scaling_exponentiates_overshoot(self, pair, mk, c):
        rho0, rho1 = pair
        alpha = mk_alpha_tilde(rho0, rho1, mk)
        assert mk_alpha_tilde(rho0, rho1, mk.scaled(c)) == pytest.approx(alpha**c, rel=1e-10)


class TestVerdict:
    def test_long_window_close_rates(self):
        # (rho_tilde/rho0)^K and (rho1/rho0)^(K-m) round apart by ~6e-10 here;
        # both are the same overshoot, and the verdict takes the direct one
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5, 1: 0.50000001})
        mk = MkConstraint(5_000_000, 10_000_000)
        verdict = mk_verdict(params, mk)
        assert verdict.alpha_tilde == mk_alpha_tilde(0.5, 0.50000001, mk)
        assert verdict.alpha_tilde == pytest.approx(math.exp(0.1), rel=1e-8)
        assert verdict.proven_stable

    def test_proven_case(self):
        verdict = mk_verdict(TWO_MODE, MkConstraint(1, 2))
        assert verdict.proven_stable
        assert verdict.rho_tilde == pytest.approx(0.7745966692414834, abs=1e-12)
        assert verdict.alpha_tilde == pytest.approx(2.4, abs=1e-12)
        assert verdict.combined_overshoot == pytest.approx(2.4, abs=1e-12)

    def test_not_proven_case(self):
        verdict = mk_verdict(TWO_MODE, MkConstraint(1, 10))
        # independent evaluation through the log domain
        expected = math.exp(0.1 * math.log(0.5) + 0.9 * math.log(1.2))
        assert verdict.rho_tilde == pytest.approx(expected, rel=1e-12)
        assert verdict.rho_tilde > 1.0
        assert not verdict.proven_stable

    def test_demo_system_is_never_proven(self):
        # the skip mode's gain is ~1000, so rho_tilde >> 1 for any real window
        params = build_robustness_abstraction(counterexample.system(), 0.9)
        for mk in (MkConstraint(1, 2), MkConstraint(2, 4)):
            assert not mk_verdict(params, mk).proven_stable

    def test_scale_invariant_verdict(self):
        for c in (2, 3, 5):
            base = mk_verdict(TWO_MODE, MkConstraint(1, 2))
            scaled = mk_verdict(TWO_MODE, MkConstraint(c, 2 * c))
            assert base.proven_stable == scaled.proven_stable
            assert base.rho_tilde == scaled.rho_tilde

    def test_three_modes_rejected(self):
        params = AbstractionParams(alpha=1, beta=1, rho={0: 0.5, 1: 0.7, 2: 1.2})
        with pytest.raises(UnsupportedConfigurationError, match="kappa"):
            mk_verdict(params, MkConstraint(1, 2))

    def test_safe_radius_attached(self):
        params = AbstractionParams(alpha=2.0, beta=TWO_MODE.beta, rho=TWO_MODE.rho)
        verdict = mk_verdict(params, MkConstraint(1, 2), r0=1.0)
        assert verdict.safe_initial_radius == pytest.approx(1.0 / (2.0 * 2.4), abs=1e-12)

    @pytest.mark.parametrize("rho1", [0.0, 0.3, 0.79])
    def test_faster_skip_mode_is_charged_the_nominal_rate(self, rho1):
        params = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.8, 1: rho1})
        for mk in (MkConstraint(0, 3), MkConstraint(1, 2), MkConstraint(2, 5)):
            verdict = mk_verdict(params, mk)
            assert verdict.rho_tilde == pytest.approx(0.8, rel=1e-12)
            assert verdict.alpha_tilde == 1.0
            assert verdict.proven_stable

    def test_zero_skip_matrix_checks_from_the_cli(self, tmp_path, capsys):
        # a reset-like skip mode: the Lyapunov rates are {0: 0.8, 1: 0.0}
        from convrate.cli import run

        path = tmp_path / "reset.json"
        path.write_text(json.dumps({"name": "reset", "modes": [
            {"id": 0, "A": [[0.8]]}, {"id": 1, "A": [[0.0]]}]}))
        code = run(["mk-check", str(path), "--m", "1", "--K", "3", "--method", "lyapunov"])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        assert code == 0 and "verdict: proven stable" in captured.out


class TestSkipRatio:
    def test_inverse_of_half_half(self):
        target = mk_rho_tilde(0.5, 1.2, MkConstraint(1, 2))
        assert permissible_skip_ratio(0.5, 1.2, target) == pytest.approx(0.5, abs=1e-10)

    def test_limits(self):
        assert permissible_skip_ratio(0.5, 1.2, 0.5 + 1e-9) == pytest.approx(0.0, abs=1e-6)
        assert permissible_skip_ratio(0.5, 1.2, 1.2 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            permissible_skip_ratio(0.5, 1.2, 0.4)
        with pytest.raises(ParameterError):
            permissible_skip_ratio(0.5, 1.2, 1.2)

    @given(rates2=st.tuples(st.floats(0.05, 0.9), st.floats(1.05, 3.0)),
           m_bar=st.integers(1, 5), K=st.integers(2, 8))
    @settings(max_examples=150)
    def test_round_trip(self, rates2, m_bar, K):
        rho0, rho1 = rates2
        m_bar = min(m_bar, K - 1)
        mk = MkConstraint(K - m_bar, K)
        target = mk_rho_tilde(rho0, rho1, mk)
        ratio = permissible_skip_ratio(rho0, rho1, target)
        assert ratio == pytest.approx(m_bar / K, abs=1e-10)
        recovered = best_mk_for_ratio(ratio, K)
        assert mk_rho_tilde(rho0, rho1, recovered) == pytest.approx(target, abs=1e-10)

    def test_best_mk_prefers_small_window(self):
        mk = best_mk_for_ratio(0.5, 6)
        assert (mk.m, mk.K) == (1, 2)

    def test_best_mk_stays_below_ratio(self):
        mk = best_mk_for_ratio(0.37, 8)
        assert mk.m_bar / mk.K <= 0.37
        # 3/8 = 0.375 > 0.37, so the best is 1/3
        assert (mk.m_bar, mk.K) == (1, 3)


class TestSafeRadius:
    def test_divides_by_overshoots(self):
        assert safe_initial_radius(1.0, 2.0, 2.4) == pytest.approx(1 / 4.8, abs=1e-12)

    def test_unit_factors(self):
        assert safe_initial_radius(5.0, 1.0, 1.0) == 5.0

    def test_larger_radius(self):
        assert safe_initial_radius(10.0, 1.0, 2.4) == pytest.approx(10 / 2.4, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            safe_initial_radius(0.0, 1.0, 1.0)


def brute_force_max_skips(mk, k):
    # maximize skips among the first k periods of a constraint-respecting
    # execution; pad to a full window so the first window constrains short
    # prefixes too (a standalone k < K sequence would have no window at all)
    length = max(k, mk.K)
    best = 0
    for mask in range(2**length):
        seq = [(mask >> i) & 1 for i in range(length)]
        if all(sum(seq[s:s + mk.K]) <= mk.m_bar for s in range(length - mk.K + 1)):
            best = max(best, sum(seq[:k]))
    return best


class TestSkipCountBound:
    def test_spec_case(self):
        assert skip_count_bound(MkConstraint(2, 4), 10) == 6

    def test_zero_periods(self):
        assert skip_count_bound(MkConstraint(1, 3), 0) == 0

    def test_hard_real_time(self):
        mk = MkConstraint(4, 4)
        assert all(skip_count_bound(mk, k) == 0 for k in range(12))

    @pytest.mark.parametrize("K", range(1, 6))
    def test_tight_against_brute_force(self, K):
        for m_bar in range(K + 1):
            mk = MkConstraint(K - m_bar, K)
            for k in range(13):
                assert skip_count_bound(mk, k) == brute_force_max_skips(mk, k)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_worst_case_sequence_attains_bound(self, K):
        for m_bar in range(K + 1):
            mk = MkConstraint(K - m_bar, K)
            seq = worst_case_sequence(mk, 30)
            for k in range(31):
                assert sum(seq[:k]) == skip_count_bound(mk, k)


class TestStabilityTransfer:
    @pytest.mark.parametrize("seed", range(12))
    def test_proven_verdicts_bound_trajectories(self, seed):
        rng = np.random.default_rng(1600 + seed)
        system = two_mode_system(rng, perturbation=0.2)
        rho = valid_rho_for(system.modes[0], rng)
        params_by_route = [build_robustness_abstraction(system, rho),
                           lyapunov_abstraction(system)]
        mk = MkConstraint(int(rng.integers(1, 4)), 4)
        horizon = 60
        x0 = rng.standard_normal(system.n)
        x0_norm = np.linalg.norm(x0)
        for params in params_by_route:
            verdict = mk_verdict(params, mk)
            if not verdict.proven_stable:
                continue
            bound = params.alpha * verdict.alpha_tilde
            sequences = [worst_case_sequence(mk, horizon)]
            sequences += [random_mk_sequence(mk, horizon, rng) for _ in range(100)]
            for seq in sequences:
                trace = co_simulate(system, params, seq, x0)
                for k in range(len(trace)):
                    envelope = bound * verdict.rho_tilde**k * x0_norm
                    assert trace.x_norm[k] <= envelope * (1 + 1e-9)
