import numpy as np
import pytest

from convrate import (
    DimensionError,
    NoStableSolutionError,
    NotPositiveDefiniteError,
    cholesky,
    eigenvalues,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
)
from convrate import counterexample
from convrate.linalg import ROW_BLOCK_BYTES, row_norms
from conftest import random_spd, random_stable_matrix

DEMO = counterexample.system()


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == 1.0

    def test_demo_nominal_mode(self):
        # closed form sqrt(2) * a for the built-in demo system
        assert spectral_norm(DEMO.modes[0]) == pytest.approx(np.sqrt(2) * 0.5, abs=1e-12)

    def test_shift_matrix(self):
        assert spectral_norm([[0.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_exact(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 4)) * rng.uniform(0.1, 100)
        reference = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        assert spectral_norm(A @ B) <= spectral_norm(A) * spectral_norm(B) + 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            spectral_norm(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(DimensionError):
            spectral_norm([[np.nan, 0.0], [0.0, 1.0]])


class TestRowNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17, 32])
    def test_equals_numpy_norm_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        rows = ROW_BLOCK_BYTES // (8 * n)
        for count in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            a = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-150, 150, (count, 1))
            for layout in (a, np.asfortranarray(a)):
                assert row_norms(layout).tobytes() == np.linalg.norm(layout, axis=1).tobytes()

    def test_strided_rows(self):
        a = np.random.default_rng(0).standard_normal((300, 10))[::3, ::2]
        assert row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()


class TestSpectralRadius:
    def test_rotation(self):
        assert spectral_radius([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_is_zero(self):
        assert spectral_radius([[0.0, 0.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_demo_four_step_product(self):
        A0, A1 = DEMO.modes[0], DEMO.modes[1]
        assert spectral_radius(A1 @ A1 @ A0 @ A0) == pytest.approx(250.0625, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_by_norm(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.standard_normal((4, 4))
        assert spectral_radius(A) <= spectral_norm(A) + 1e-9


class TestEigenvalues:
    def test_diagonal(self):
        eigs = sorted(eigenvalues(np.diag([2.0, 3.0])).real)
        assert eigs == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_demo_four_step_product(self):
        A0, A1 = DEMO.modes[0], DEMO.modes[1]
        eigs = sorted(np.abs(eigenvalues(A1 @ A1 @ A0 @ A0)))
        assert eigs[0] == pytest.approx(0.0, abs=1e-9)
        assert eigs[1] == pytest.approx(0.0, abs=1e-9)
        assert eigs[2] == pytest.approx(250.0625, abs=1e-6)

    def test_rotation_pair(self):
        eigs = sorted(eigenvalues([[0.0, 1.0], [-1.0, 0.0]]), key=lambda z: z.imag)
        assert eigs[0] == pytest.approx(-1j, abs=1e-12)
        assert eigs[1] == pytest.approx(1j, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_and_determinant_identities(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        eigs = eigenvalues(A)
        scale = max(1.0, abs(np.trace(A)))
        assert np.sum(eigs) == pytest.approx(np.trace(A), abs=1e-8 * scale)
        det = np.linalg.det(A)
        assert np.prod(eigs) == pytest.approx(det, rel=1e-8, abs=1e-8)


class TestCholesky:
    def test_diagonal(self):
        R = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(R, np.diag([2.0, 3.0]), atol=1e-14)

    def test_scalar(self):
        R = cholesky(4.0 / 3.0)
        assert R[0, 0] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_round_trip(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        R = cholesky(P)
        assert np.triu(R) == pytest.approx(R)
        assert np.max(np.abs(R.T @ R - P)) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random_spd(self, seed):
        rng = np.random.default_rng(400 + seed)
        P = random_spd(rng, int(rng.integers(1, 9)))
        R = cholesky(P)
        assert spectral_norm(R.T @ R - P) <= 1e-10 * spectral_norm(P)

    def test_failing_minor_is_reported(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(np.diag([1.0, -1.0]))
        assert info.value.minor == 2
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky([[-1.0]])
        assert info.value.minor == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            cholesky([[1.0, 0.5], [0.0, 1.0]])


class TestDiscreteLyapunov:
    def test_scalar_closed_form(self):
        P = solve_discrete_lyapunov(0.5, 1.0)
        assert P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_dynamics(self):
        P = solve_discrete_lyapunov(np.zeros((3, 3)), np.eye(3))
        assert np.allclose(P, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_residual_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(1, 9))
        A = random_stable_matrix(rng, n)
        Q = random_spd(rng, n)
        P = solve_discrete_lyapunov(A, Q)
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P)[0] > 0
        residual = spectral_norm(A.T @ P @ A - P + Q)
        assert residual <= 1e-9 * spectral_norm(Q)

    def test_unstable_rejected(self):
        with pytest.raises(NoStableSolutionError, match="no stable solution"):
            solve_discrete_lyapunov(np.diag([1.0, 0.5]), np.eye(2))

    def test_indefinite_q_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_discrete_lyapunov(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
