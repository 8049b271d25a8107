from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from convrate import (
    NumericError,
    ParameterError,
    build_nominal_abstraction,
    nominal_certificate,
    spectral_norm,
    spectral_radius,
)
from convrate import counterexample, nominal
from conftest import random_stable_matrix, valid_rho_for

SHIFT = np.array([[0.0, 0.0], [1.0, 0.0]])
DEMO_A0 = counterexample.system().modes[0]


def brute_force_scan(A0, rho, limit=10_000):
    """Independent oracle: norms of explicit matrix powers via SVD."""
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    norms = [1.0]
    for k in range(1, limit):
        power = np.linalg.matrix_power(A0, k)
        norms.append(np.linalg.svd(power, compute_uv=False)[0] / rho**k)
        if norms[-1] < 1.0:
            return k, max(norms[:-1])
    raise AssertionError("oracle did not terminate")


class TestValidateRho:
    """``nominal_certificate`` accepts a rate strictly between the spectral radius and 1."""

    def test_accepts_scalar(self):
        assert nominal_certificate(0.5, 0.6).rho == 0.6

    def test_rejects_below_radius(self):
        with pytest.raises(ParameterError) as info:
            nominal_certificate(0.5, 0.4)
        assert str(info.value) == "rho must exceed the spectral radius 0.5, got 0.4"

    def test_rejects_at_one(self):
        with pytest.raises(ParameterError) as info:
            nominal_certificate(0.5, 1.0)
        assert str(info.value) == "rho must be < 1, got 1.0 (spectral radius is 0.5)"

    def test_demo_nominal_mode(self):
        # eigenvalues are {1/2, 0, 0}, so 0.6 is admissible and 0.5 is not
        assert spectral_radius(DEMO_A0) == pytest.approx(0.5, abs=1e-12)
        assert nominal_certificate(DEMO_A0, 0.6).rho == 0.6
        with pytest.raises(ParameterError, match="exceed the spectral radius 0.5, got 0.5$"):
            nominal_certificate(DEMO_A0, 0.5)


class TestKTilde:
    def test_scalar(self):
        assert nominal_certificate(0.5, 0.6).k_tilde == 1

    def test_shift_matrix(self):
        # ||A|| / rho = 2 >= 1 but A^2 = 0
        assert nominal_certificate(SHIFT, 0.5).k_tilde == 2

    def test_demo_matches_oracle(self):
        k, _ = brute_force_scan(DEMO_A0, 0.8)
        assert nominal_certificate(DEMO_A0, 0.8).k_tilde == k

    @pytest.mark.parametrize("seed", range(10))
    def test_random_matches_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        A0 = random_stable_matrix(rng, 4)
        rho = valid_rho_for(A0, rng)
        k, alpha = brute_force_scan(A0, rho)
        assert nominal_certificate(A0, rho).k_tilde == k
        assert nominal_certificate(A0, rho).alpha_min == pytest.approx(alpha, abs=1e-12)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(nominal, "ITERATION_CAP", 1)
        with pytest.raises(NumericError, match="too close"):
            nominal_certificate(SHIFT * 0.999, 0.01)

    def test_overflowed_norm_is_refused(self):
        # ||A0 / rho|| = 2e200, so A.T @ A overflows and its top eigenvalue
        # is NaN; the scan must refuse instead of skipping that norm
        with pytest.raises(NumericError, match="overflowed"):
            nominal_certificate(SHIFT * 1e200, 0.5)


def scaled_shift(n: int, scale: float) -> np.ndarray:
    """``scale`` times the n x n lower shift: powers are nonzero exactly up to n - 1."""
    return scale * np.eye(n, k=-1)


def scan_outcome(scan, A0, rho, max_iterations=nominal.ITERATION_CAP):
    """``k_tilde`` and the bytes of ``alpha_min``, or the message of the
    NumericError the scan raised.

    Any numpy floating-point warning fails the test (see pyproject.toml).
    """
    try:
        k_tilde, alpha_min = scan(A0, rho, max_iterations)
    except NumericError as exc:
        return str(exc)
    return k_tilde, np.float64(alpha_min).tobytes()


def reference_scan(A0, rho, max_iterations):
    """``(k_tilde, alpha_min)`` from the per-step reference's norms."""
    norms = references.scan_norms(A0, rho, max_iterations)
    return len(norms) - 1, max(norms[:-1])


def reference_outcome(A0, rho, max_iterations=nominal.ITERATION_CAP):
    """:func:`scan_outcome` of the per-step reference, whose overflow warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        return scan_outcome(reference_scan, A0, rho, max_iterations)


@st.composite
def scan_cases(draw):
    """A matrix of size 1..8 with a decay rate, and a block budget (None: default).

    Half are random matrices with rho between their spectral radius and
    one; the others are scaled nilpotent ones, whose powers may overflow.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A0 = random_stable_matrix(rng, n)
        radius = float(np.max(np.abs(np.linalg.eigvals(A0))))
        rho = radius + (1.0 - radius) * draw(st.floats(0.005, 0.95))
    else:
        A0 = np.tril(rng.standard_normal((n, n)), -1) * 10.0 ** draw(st.integers(0, 200))
        rho = draw(st.floats(0.05, 0.95))
    budget = draw(st.sampled_from([None, 1, 2, 3, 5]))
    return A0, rho, None if budget is None else budget * 8 * n * n


class TestBlockedScan:
    """The blocked k_tilde scan against the per-step reference, bit for bit."""

    @given(scan_cases(), st.sampled_from([nominal.ITERATION_CAP, 1, 6, 100]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case, max_iterations):
        A0, rho, budget = case
        expected = reference_outcome(A0, rho, max_iterations)
        budget = nominal.SCAN_BLOCK_BYTES if budget is None else budget
        with mock.patch.object(nominal, "SCAN_BLOCK_BYTES", budget):
            assert scan_outcome(nominal._scan_norms, A0, rho, max_iterations) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33])
    @pytest.mark.parametrize("budget", [None, 3])
    def test_k_tilde_at_block_edges(self, k, budget):
        # blocks of 1, 2, 4, ... products end at k = 2^j - 1
        A0 = scaled_shift(k, 0.75)
        expected = reference_outcome(A0, 0.5)
        budget = nominal.SCAN_BLOCK_BYTES if budget is None else budget * 8 * k * k
        with mock.patch.object(nominal, "SCAN_BLOCK_BYTES", budget):
            assert scan_outcome(nominal._scan_norms, A0, 0.5) == expected
            cert = nominal_certificate(A0, 0.5)
        assert cert.k_tilde == k
        assert cert.alpha_min == pytest.approx(1.5 ** (k - 1), rel=1e-12)

    @pytest.mark.parametrize("budget", [None, 1, 3])
    def test_largest_norm_away_from_the_largest_frobenius_norm(self, budget):
        # two Jordan blocks: ||P||_F peaks at k = 4 (||P|| = 7.75), ||P|| at k = 5 (8.06),
        # so the screen must take every product whose bound reaches the largest norm
        A0 = np.zeros((4, 4))
        A0[:2, :2], A0[2:, 2:] = [[0.5, 2.0], [0.0, 0.5]], [[0.42, 3.0], [0.0, 0.42]]
        expected = reference_outcome(A0, 0.6)
        budget = nominal.SCAN_BLOCK_BYTES if budget is None else budget * 8 * 4 * 4
        with mock.patch.object(nominal, "SCAN_BLOCK_BYTES", budget):
            assert scan_outcome(nominal._scan_norms, A0, 0.6) == expected
        assert nominal_certificate(A0, 0.6).alpha_min == pytest.approx(8.0576, rel=1e-4)

    @pytest.mark.parametrize("max_iterations", [0, 2, 5, 6, 9, 20])
    def test_cap_off_block_boundary_reports_last_norm(self, max_iterations):
        A0 = scaled_shift(33, 0.75)
        message = scan_outcome(nominal._scan_norms, A0, 0.5, max_iterations)
        assert message == reference_outcome(A0, 0.5, max_iterations)
        assert f"no k <= {max_iterations} " in message
        assert f"(last norm {1.5 ** max_iterations:.6g})" in message

    @pytest.mark.parametrize("A0, refusal", [
        (SHIFT * 1e200, "overflowed at k=1;"),
        (scaled_shift(3, 1e100), "overflowed at k=2;"),
        (scaled_shift(40, 1e20), "eigenvalue iteration failed"),
    ], ids=["nan-at-1", "nan-at-2", "eig-failure-mid-block"])
    def test_overflow_raises_at_reference_step(self, A0, refusal):
        message = scan_outcome(nominal._scan_norms, A0, 0.5)
        assert refusal in message
        assert message == reference_outcome(A0, 0.5)

    def test_eigensolver_failure_surfaces_in_step_order(self):
        # a batch that LAPACK refuses is evaluated matrix by matrix
        real = np.linalg.eigvalsh

        def refuse_batches(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("refused")
            return real(a, *args, **kwargs)

        A0 = scaled_shift(9, 0.75)
        expected = reference_outcome(A0, 0.5)
        with mock.patch.object(np.linalg, "eigvalsh", refuse_batches):
            assert scan_outcome(nominal._scan_norms, A0, 0.5) == expected


class TestAlphaMin:
    def test_scalar_is_one(self):
        assert nominal_certificate(0.5, 0.6).alpha_min == 1.0

    def test_shift_matrix(self):
        assert nominal_certificate(SHIFT, 0.5).alpha_min == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_attained_exactly(self, seed):
        rng = np.random.default_rng(700 + seed)
        A0 = random_stable_matrix(rng, 3)
        rho = valid_rho_for(A0, rng)
        cert = nominal_certificate(A0, rho)
        norms = [spectral_norm(np.linalg.matrix_power(A0, k)) / rho**k
                 for k in range(cert.k_tilde)]
        assert min(abs(cert.alpha_min - value) for value in norms) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_rho(self, seed):
        rng = np.random.default_rng(800 + seed)
        A0 = random_stable_matrix(rng, 3)
        grid = np.geomspace(max(spectral_radius(A0) * 1.001, 1e-6), 1.0, num=8, endpoint=False)
        alphas = [nominal_certificate(A0, float(rho)).alpha_min for rho in grid]
        assert all(a >= b - 1e-9 for a, b in zip(alphas, alphas[1:]))


class TestBuildNominal:
    def test_scalar_defaults(self):
        params = build_nominal_abstraction(0.5, 0.6)
        assert (params.alpha, params.beta) == (1.0, 1.0)
        assert params.rho == {0: 0.6}
        assert params.method == "nominal"
        assert params.diagnostics["k_tilde"] == 1

    def test_shift_matrix(self):
        params = build_nominal_abstraction(SHIFT, 0.5)
        assert params.alpha == pytest.approx(2.0, abs=1e-12)
        assert params.beta == params.alpha

    def test_explicit_beta(self):
        params = build_nominal_abstraction(0.5, 0.6, beta=3.0)
        assert (params.alpha, params.beta) == (1.0, 3.0)

    def test_beta_below_alpha_min_rejected(self):
        with pytest.raises(ParameterError, match="alpha_min"):
            build_nominal_abstraction(SHIFT, 0.5, beta=1.5)

    def test_invalid_rho_rejected(self):
        with pytest.raises(ParameterError, match="spectral radius"):
            build_nominal_abstraction(0.5, 0.4)

    @pytest.mark.parametrize("seed", range(20))
    def test_exponential_bound_on_trajectories(self, seed):
        # definitional content: |A0^k x0| <= alpha_min * rho^k * |x0|
        rng = np.random.default_rng(900 + seed)
        A0 = random_stable_matrix(rng, int(rng.integers(1, 5)))
        rho = valid_rho_for(A0, rng)
        alpha = nominal_certificate(A0, rho).alpha_min
        x = rng.standard_normal(A0.shape[0])
        x0_norm = np.linalg.norm(x)
        for k in range(50):
            assert np.linalg.norm(x) <= alpha * rho**k * x0_norm * (1 + 1e-9)
            x = A0 @ x

