"""Dense real-matrix primitives for small square systems (n <= ~32).

All functions accept anything ``numpy.asarray`` turns into a real matrix;
scalars are promoted to 1x1. Shapes and finiteness are validated on entry,
so downstream modules can assume well-formed inputs.

Conventions
-----------
* The spectral norm is computed as the square root of the largest
  eigenvalue of ``A.T @ A`` (only the top singular value is ever needed).
* Eigenvalues come from LAPACK's Hessenberg-reduction + shifted-QR driver
  via ``numpy.linalg.eigvals``; matrices are small, so O(n^3) is fine.
* The discrete Lyapunov equation ``A.T P A - P = -Q`` is solved by
  vectorization: one dense solve of ``(I - kron(A.T, A.T)) vec(P) = vec(Q)``
  followed by symmetrization.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    NoStableSolutionError,
    NotPositiveDefiniteError,
    NumericError,
    ParameterError,
)

#: Tolerance for symmetry checks ahead of factorizations.
SYMMETRY_TOL = 1e-12
#: Acceptance tolerance for the discrete Lyapunov residual, relative to ||Q||.
RESIDUAL_TOL = 1e-9
#: Byte budget of one block of rows in :func:`row_norms`.
ROW_BLOCK_BYTES = 1 << 20


def as_square_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and return ``value`` as a finite square float matrix.

    Scalars become 1x1 matrices. Raises :class:`DimensionError` for
    non-square shapes, empty matrices, or non-finite entries.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DimensionError(f"{name} must be at least 1x1")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def spectral_norm(A) -> float:
    """Spectral norm ``||A||_2``, the largest singular value of ``A``.

    Exact for the zero matrix (returns 0.0).
    """
    return top_singular_value(as_square_matrix(A, "A"))


def top_singular_value(A: np.ndarray) -> float:
    """:func:`spectral_norm` of a matrix already validated by the caller."""
    try:
        eigs = np.linalg.eigvalsh(A.T @ A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed on A.T @ A: {exc}") from exc
    return float(np.sqrt(max(float(eigs[-1]), 0.0)))


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)`` of a 2-D float array, bit for bit.

    A C-contiguous array is worked through in blocks of rows, so the
    squared entries are never held for the whole array at once. Other
    layouts go to numpy whole: numpy may sum their rows in another order.
    """
    if not a.flags.c_contiguous:
        return np.linalg.norm(a, axis=1)
    rows = max(1, ROW_BLOCK_BYTES // (8 * max(1, a.shape[1])))
    out = np.empty(a.shape[0])
    for start in range(0, a.shape[0], rows):
        block = a[start:start + rows]
        np.sqrt(np.add.reduce(block * block, axis=1), out=out[start:start + rows])
    return out


def check_psd(Q: np.ndarray, name: str, tol: float = 1e-10) -> None:
    """Raise :class:`ParameterError` unless ``Q`` is symmetric positive semidefinite."""
    scale = max(1.0, float(np.max(np.abs(Q))))
    if float(np.max(np.abs(Q - Q.T))) > tol * scale:
        raise ParameterError(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0]) < -tol * scale:
        raise ParameterError(f"{name} must be positive semidefinite")


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of ``A`` (with multiplicity, arbitrary order)."""
    A = as_square_matrix(A, "A")
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        n = A.shape[0]
        raise NumericError(
            f"eigenvalue iteration did not converge for a {n}x{n} matrix: {exc}"
        ) from exc


def spectral_radius(A) -> float:
    """Largest modulus among the eigenvalues of ``A``."""
    return float(np.max(np.abs(eigenvalues(A))))


def _failing_minor(sym: np.ndarray) -> int:
    """Order of the smallest leading principal minor that is not positive."""
    for k in range(1, sym.shape[0] + 1):
        try:
            np.linalg.cholesky(sym[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return sym.shape[0]


def cholesky(P, sym_tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Upper-triangular Cholesky factor ``R`` with ``R.T @ R == P``.

    ``P`` must be symmetric to within ``sym_tol`` (relative to its largest
    entry) and positive definite. On failure the error names the smallest
    leading principal minor that is not positive.
    """
    P = as_square_matrix(P, "P")
    scale = max(1.0, float(np.max(np.abs(P))))
    asym = float(np.max(np.abs(P - P.T)))
    if asym > sym_tol * scale:
        raise NotPositiveDefiniteError(
            f"matrix is not symmetric: max|P - P.T| = {asym:.3e} exceeds "
            f"tolerance {sym_tol:.1e} (relative to scale {scale:.3e})"
        )
    sym = (P + P.T) / 2.0
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        minor = _failing_minor(sym)
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: leading principal minor of "
            f"order {minor} is not positive",
            minor=minor,
        ) from None
    return np.ascontiguousarray(lower.T)


def solve_discrete_lyapunov(A, Q, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solve ``A.T @ P @ A - P = -Q`` for symmetric positive definite ``P``.

    Requires symmetric positive definite ``Q`` and a Schur-stable ``A``
    (spectral radius < 1); otherwise no positive definite solution exists
    and :class:`NoStableSolutionError` is raised. The returned ``P`` is
    symmetrized and its residual is verified against ``residual_tol * ||Q||``.
    """
    A = as_square_matrix(A, "A")
    Q = as_square_matrix(Q, "Q")
    if A.shape != Q.shape:
        raise DimensionError(f"A and Q must have equal shapes, got {A.shape} and {Q.shape}")
    try:
        cholesky(Q)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"Q must be symmetric positive definite: {exc}",
                                       minor=exc.minor) from None
    radius = spectral_radius(A)
    if radius >= 1.0:
        raise NoStableSolutionError(
            f"no stable solution: spectral radius {radius:.6g} is not < 1"
        )
    n = A.shape[0]
    at = A.T
    coeff = np.eye(n * n) - np.kron(at, at)
    try:
        vec_p = np.linalg.solve(coeff, Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"vectorized Lyapunov system is singular: {exc}") from exc
    P = vec_p.reshape(n, n)
    P = (P + P.T) / 2.0
    residual = spectral_norm(at @ P @ A - P + Q)
    if residual > residual_tol * spectral_norm(Q):
        raise NumericError(
            f"Lyapunov residual {residual:.3e} exceeds {residual_tol:.1e} * ||Q||; "
            "the system is likely too close to the stability boundary"
        )
    return P
