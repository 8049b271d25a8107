import numpy as np
import pytest

from convrate import (
    AbstractionParams,
    MkConstraint,
    NoStableSolutionError,
    ParameterError,
    SystemModel,
    build_nominal_abstraction,
    build_robustness_abstraction,
    check_guarantee,
    co_simulate,
    contractive_transform,
    gamma_bounds,
    lyapunov_abstraction,
    random_mk_sequence,
    robustness_abstraction,
    spectral_norm,
)
from convrate import counterexample
from conftest import random_spd, random_stable_matrix, two_mode_system, valid_rho_for

SCALAR_SYSTEM = SystemModel(modes={0: [[0.5]], 1: [[1.2]]})

# lightly damped oscillator whose Euclidean norm overshoots |x0|
OSCILLATOR = np.array([[0.9, 0.5], [-0.3, 0.8]])


class TestGammaBounds:
    def test_scalar(self):
        gammas = gamma_bounds(SCALAR_SYSTEM)
        assert gammas[0] == 0.0
        assert gammas[1] == pytest.approx(0.7, abs=1e-12)

    def test_single_mode(self):
        assert gamma_bounds(SystemModel(modes={0: [[0.5]]})) == {0: 0.0}

    def test_demo_matches_svd_oracle(self):
        demo = counterexample.system()
        gammas = gamma_bounds(demo)
        diff = demo.modes[1] - demo.modes[0]
        assert gammas[1] == pytest.approx(np.linalg.svd(diff, compute_uv=False)[0], rel=1e-10)


class TestParamsEquality:
    def test_diagnostics_are_ignored(self):
        assert (AbstractionParams(1.0, 1.0, {0: 0.5}, diagnostics={"x": 1})
                == AbstractionParams(1.0, 1.0, {0: 0.5}, diagnostics={"x": 2}))

    def test_lyapunov_P_compares_by_value(self):
        system = SystemModel(modes={0: OSCILLATOR})
        assert lyapunov_abstraction(system) == lyapunov_abstraction(system)
        assert lyapunov_abstraction(system) != lyapunov_abstraction(system, 2.0 * np.eye(2))


class TestRobustness:
    def test_direct_substitution(self):
        nominal = AbstractionParams(alpha=1.0, beta=1.0, rho={0: 0.5})
        params = robustness_abstraction(nominal, {0: 0.0, 1: 0.7})
        assert params.rho == {0: 0.5, 1: 1.2}
        assert (params.alpha, params.beta) == (1.0, 1.0)
        assert params.method == "robustness"

    def test_zero_gammas_keep_rho(self):
        nominal = AbstractionParams(alpha=1.5, beta=2.0, rho={0: 0.7})
        params = robustness_abstraction(nominal, {0: 0.0, 1: 0.0, 2: 0.0})
        assert all(rate == 0.7 for rate in params.rho.values())

    def test_beta_scales_gamma(self):
        nominal = AbstractionParams(alpha=1.0, beta=2.0, rho={0: 0.5})
        params = robustness_abstraction(nominal, {0: 0.0, 1: 0.7})
        assert params.rho[1] == pytest.approx(1.9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_rho_sigma_never_below_nominal(self, seed):
        rng = np.random.default_rng(1000 + seed)
        system = two_mode_system(rng)
        rho = valid_rho_for(system.modes[0], rng)
        params = build_robustness_abstraction(system, rho)
        assert params.rho[1] >= params.rho[0]
        assert params.rho[0] == rho


class TestLyapunov:
    def test_scalar_closed_form(self):
        params = lyapunov_abstraction(SCALAR_SYSTEM)
        assert params.lyapunov_P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert params.alpha == 1.0
        assert params.beta == 1.0
        assert params.rho[0] == pytest.approx(0.5, abs=1e-12)
        assert params.rho[1] == pytest.approx(1.2, abs=1e-12)

    def test_zero_dynamics(self):
        system = SystemModel(modes={0: np.zeros((3, 3))})
        params = lyapunov_abstraction(system)
        assert np.allclose(params.lyapunov_P, np.eye(3), atol=1e-14)
        assert params.alpha == 1.0
        assert params.rho[0] == 0.0

    def test_oscillator_decrement(self):
        system = SystemModel(modes={0: OSCILLATOR})
        params = lyapunov_abstraction(system)
        lam_max = params.diagnostics["lambda_max"]
        assert params.rho[0] < 1.0
        # Lyapunov decrement with Q = I gives rho0^2 >= 1 - 1/lambda_max(P)
        assert params.rho[0] ** 2 >= 1.0 - 1.0 / lam_max - 1e-12

    def test_unstable_nominal_mode(self):
        system = SystemModel(modes={0: [[1.1]]})
        with pytest.raises(NoStableSolutionError, match="no Lyapunov certificate"):
            lyapunov_abstraction(system)

    @pytest.mark.parametrize("seed", range(15))
    def test_nominal_rate_below_one(self, seed):
        rng = np.random.default_rng(1100 + seed)
        system = two_mode_system(rng)
        Q = random_spd(rng, system.n)
        params = lyapunov_abstraction(system, Q)
        assert params.rho[0] < 1.0

    @pytest.mark.parametrize("seed", range(15))
    def test_alpha_is_ellipsoid_eccentricity(self, seed):
        rng = np.random.default_rng(1200 + seed)
        params = lyapunov_abstraction(two_mode_system(rng))
        eigs = np.linalg.eigvalsh(params.lyapunov_P)
        assert params.alpha**2 * eigs[0] == pytest.approx(eigs[-1], rel=1e-10)


class TestContractiveTransform:
    def test_identity(self):
        system = SystemModel(modes={0: np.zeros((2, 2))})
        R = contractive_transform(lyapunov_abstraction(system))
        assert np.allclose(R, np.eye(2), atol=1e-14)

    def test_scalar(self):
        R = contractive_transform(lyapunov_abstraction(SystemModel(modes={0: [[0.5]]})))
        assert R[0, 0] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_oscillator_norm_never_increases(self):
        params = lyapunov_abstraction(SystemModel(modes={0: OSCILLATOR}))
        R = contractive_transform(params)
        # spectral norm of the oscillator is > 1, so the leading right-
        # singular vector overshoots in Euclidean norm at the first step
        x = np.linalg.svd(OSCILLATOR)[2][0]
        euclidean = [np.linalg.norm(x)]
        previous = np.linalg.norm(R @ x)
        for _ in range(200):
            x = OSCILLATOR @ x
            euclidean.append(np.linalg.norm(x))
            current = np.linalg.norm(R @ x)
            assert current <= previous * (1 + 1e-12)
            previous = current
        assert max(euclidean) > euclidean[0]

    def test_requires_lyapunov_method(self):
        with pytest.raises(ParameterError, match="Lyapunov"):
            contractive_transform(AbstractionParams(alpha=1, beta=1, rho={0: 0.5}))


class TestGuaranteeSoundness:
    @pytest.mark.parametrize("seed", range(40))
    def test_both_routes_dominate_plant(self, seed):
        rng = np.random.default_rng(1300 + seed)
        w_bar = rng.uniform(0.0, 0.5)
        system = two_mode_system(rng, disturbance_bound=w_bar)
        rho = valid_rho_for(system.modes[0], rng)
        routes = [build_robustness_abstraction(system, rho),
                  lyapunov_abstraction(system)]
        horizon = 60
        seq = random_mk_sequence(MkConstraint(1, 3), horizon, rng)
        w = rng.standard_normal((horizon, system.n))
        norms = np.linalg.norm(w, axis=1)
        w *= (w_bar * rng.random(horizon) / np.maximum(norms, 1e-12))[:, None]
        x0 = rng.standard_normal(system.n)
        for params in routes:
            trace = co_simulate(system, params, seq, x0, w)
            assert check_guarantee(trace, rel_tol=1e-9).holds


class TestScalarRouteAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_aligned_scalars_collapse_to_magnitudes(self, seed):
        # with alpha = 1 both routes rate a scalar mode by its magnitude,
        # exactly so when the perturbation has the sign of A0
        rng = np.random.default_rng(1400 + seed)
        a = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.0, 1.0)
        system = SystemModel(modes={0: [[a]], 1: [[a + delta]]})
        hand = AbstractionParams(alpha=1.0, beta=1.0, rho={0: a})
        robust = robustness_abstraction(hand, gamma_bounds(system))
        lyap = lyapunov_abstraction(system)
        for mode in system.modes:
            assert robust.rho[mode] == pytest.approx(lyap.rho[mode], abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_general_scalars_robustness_is_upper_bound(self, seed):
        rng = np.random.default_rng(1500 + seed)
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(-2.0, 2.0)
        system = SystemModel(modes={0: [[a]], 1: [[b]]})
        hand = AbstractionParams(alpha=1.0, beta=1.0, rho={0: a})
        robust = robustness_abstraction(hand, gamma_bounds(system))
        lyap = lyapunov_abstraction(system)
        assert robust.rho[1] >= lyap.rho[1] - 1e-12
