import math
import tracemalloc

import numpy as np
import pytest

import references
from convrate import (
    DimensionError,
    NoStableSolutionError,
    NotPositiveDefiniteError,
    NumericError,
    cholesky,
    eigenvalues,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
)
from convrate import counterexample, linalg
from convrate.io import CSV_BLOCK_ROWS
from convrate.linalg import RESIDUAL_TOL, row_norms
from conftest import random_spd, random_stable_matrix

DEMO = counterexample.system()
EPS = np.finfo(float).eps
#: Distances 1 - radius of the near-boundary parity sample.
PARITY_GAPS = (1e-5, 1e-6, 1e-7)


def _parity_sample() -> list[list[np.ndarray]]:
    """20 random 4x4 matrices per gap, each scaled to spectral radius 1 - gap."""
    rng = np.random.default_rng(3)
    sample = []
    for gap in PARITY_GAPS:
        group = []
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            group.append(A * ((1.0 - gap) / np.max(np.abs(np.linalg.eigvals(A)))))
        sample.append(group)
    return sample


PARITY_SAMPLE = _parity_sample()


def _assert_solves(A: np.ndarray, Q: np.ndarray) -> None:
    """The solve returns a symmetric positive definite P within the residual tolerance."""
    P = solve_discrete_lyapunov(A, Q)
    assert P.tolist() == P.T.tolist()
    assert np.linalg.eigvalsh(P)[0] > 0
    assert spectral_norm(A.T @ P @ A - P + Q) <= RESIDUAL_TOL * spectral_norm(Q)


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
        rows = CSV_BLOCK_ROWS  # the block size of every caller
        for count in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            a = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-150, 150, (count, 1))
            for layout in (a, np.asfortranarray(a)):
                assert row_norms(layout).tobytes() == np.linalg.norm(layout, axis=1).tobytes()

    def test_strided_rows(self):
        a = np.random.default_rng(0).standard_normal((300, 10))[::3, ::2]
        assert row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()

    @pytest.mark.parametrize("exponent", [-200, -160, -155, 155, 160, 200, 307])
    def test_out_of_range_rows_are_scaled(self, exponent):
        # squared sums that overflow or underflow would give inf or lose digits
        rng = np.random.default_rng(exponent + 1000)
        a = rng.standard_normal((50, 4))
        a[::2] *= 10.0 ** exponent
        norms = row_norms(a)
        assert norms[1::2].tobytes() == np.linalg.norm(a[1::2], axis=1).tobytes()
        for row, norm in zip(a[::2], norms[::2]):
            assert norm == pytest.approx(math.hypot(*row), rel=1e-15)

    @pytest.mark.parametrize("row, expected", [
        ([0.0, -0.0], 0.0),
        ([5e-324, 0.0], 5e-324),
        ([3e-170, 4e-170], 5e-170),
        ([3e200, -4e200], 5e200),
        ([1e308, 1e308], math.sqrt(2) * 1e308),
        ([math.inf, 1.0], math.inf),
    ])
    def test_edge_rows(self, row, expected):
        assert row_norms(np.array([row]))[0] == pytest.approx(expected, rel=1e-15)

    def test_nan_row_stays_nan(self):
        assert np.isnan(row_norms(np.array([[math.nan, 1e300]]))[0])


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

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_kronecker_reference(self, seed):
        # sparse A puts +0.0 and -0.0 into the products
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 13))
        A = random_stable_matrix(rng, n) * (rng.random((n, n)) < 0.6)
        A /= max(1.0, 1.25 * float(np.max(np.abs(np.linalg.eigvals(A)))))
        Q = random_spd(rng, n)
        P = solve_discrete_lyapunov(A, Q)
        expected = references.kronecker_lyapunov(A, Q)
        tolerance = 16 * n * EPS * np.linalg.cond(expected) * np.max(np.abs(expected))
        assert np.max(np.abs(P - expected)) <= tolerance

    @pytest.mark.parametrize("seed", range(20))
    def test_property_near_the_boundary(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        A *= (1.0 - 10.0 ** -rng.uniform(1.0, 6.0)) / spectral_radius(A)
        _assert_solves(A, random_spd(rng, n))

    @pytest.mark.parametrize("seed", range(20))
    def test_property_non_normal(self, seed):
        # an orthogonal similarity of a scaled Jordan block: powers grow before they decay
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(2, 5))
        J = rng.uniform(0.3, 0.9) * np.eye(n) + rng.uniform(0.1, 1.0) * np.eye(n, k=1)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        _assert_solves(q @ J @ q.T, random_spd(rng, n))

    @pytest.mark.parametrize("index", range(len(PARITY_GAPS)))
    def test_no_refusal_where_the_reference_accepts(self, index):
        # the doubling and its correction round refuse no system that the Kronecker
        # solve accepts, at radius 1 - gap (20 random 4x4 systems per gap)
        for A in PARITY_SAMPLE[index]:
            try:
                references.kronecker_lyapunov(A, np.eye(4))
            except NumericError:
                continue
            _assert_solves(A, np.eye(4))

    def test_squaring_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SQUARINGS", 1)
        with pytest.raises(NumericError, match="cap of 1 squarings"):
            solve_discrete_lyapunov(0.5 * np.eye(2), np.eye(2))
        # zero dynamics converge before the first squaring
        assert solve_discrete_lyapunov(np.zeros((2, 2)), np.eye(2)).tolist() == np.eye(2).tolist()

    @pytest.mark.parametrize("coupling, squarings", [(1e200, 0), (1e100, 1)])
    def test_overflow_is_a_numeric_error(self, coupling, squarings):
        # stable, but A^k grows past the float range before it decays
        A = 0.5 * np.eye(3) + coupling * np.eye(3, k=1)
        with pytest.raises(NumericError, match=f"overflowed after {squarings} squarings"):
            solve_discrete_lyapunov(A, np.eye(3))

    def test_peak_memory_at_n128(self):
        # the Kronecker coefficient alone would take 128^4 floats, 2.1 GB
        rng = np.random.default_rng(128)
        q, _ = np.linalg.qr(rng.standard_normal((128, 128)))
        A = q @ np.diag(rng.uniform(-0.9, 0.9, 128)) @ q.T
        tracemalloc.start()
        try:
            solve_discrete_lyapunov(A, np.eye(128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_unstable_rejected(self):
        with pytest.raises(NoStableSolutionError, match="no stable solution"):
            solve_discrete_lyapunov(np.diag([1.0, 0.5]), np.eye(2))

    def test_indefinite_q_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_discrete_lyapunov(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
