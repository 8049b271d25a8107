"""Dense real-matrix primitives for square systems.

All functions accept anything ``numpy.asarray`` turns into a real matrix;
scalars are promoted to 1x1. Shapes and finiteness are validated on entry,
so downstream modules can assume well-formed inputs.

Conventions
-----------
* The spectral norm is computed as the square root of the largest
  eigenvalue of ``A.T @ A`` (only the top singular value is ever needed).
* Eigenvalues come from LAPACK's Hessenberg-reduction + shifted-QR driver
  via ``numpy.linalg.eigvals``; matrices are small, so O(n^3) is fine.
* The discrete Lyapunov equation ``A.T P A - P = -Q`` is solved by Smith's
  doubling (R. A. Smith, SIAM J. Appl. Math. 16, 1968): O(n^3) flops per
  squaring and a few n x n arrays, followed by one residual-correction
  round and symmetrization.
"""

from __future__ import annotations

import math

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
#: Tolerance of :func:`check_psd`, relative to the largest entry.
PSD_TOL = 1e-10
#: Acceptance tolerance for the discrete Lyapunov residual, relative to ||Q||.
RESIDUAL_TOL = 1e-9
#: Most squarings of ``A`` in one doubling solve. A normal ``A`` whose radius is
#: below 1 as a float converges within about 59 (``rho^(2^k)`` reaches eps when
#: ``2^k`` is about ``36.7 / (1 - rho)``, and ``1 - rho >= 2^-53``).
MAX_SQUARINGS = 64


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
    """Euclidean norm of each row of a 2-D float array.

    A row whose squared sum is a normal float gets ``np.linalg.norm(a, axis=1)``
    bit for bit. A row of finite entries whose squared sum overflows or
    underflows (entries beyond about 1e154, or below about 1e-154) is
    scaled by its largest entry first, so its norm stays accurate.
    """
    with np.errstate(over="ignore"):
        squares = np.add.reduce(a * a, axis=1)
        norms = np.sqrt(squares)
        redo = np.flatnonzero(~((squares >= np.finfo(float).tiny) & (squares < np.inf)))
        if len(redo):
            scale = np.max(np.abs(a[redo]), axis=1)
            keep = (scale > 0.0) & (scale < np.inf)  # zero, NaN or infinite rows are right
            redo, scale = redo[keep], scale[keep, np.newaxis]
            scaled = a[redo] / scale
            norms[redo] = scale[:, 0] * np.sqrt(np.add.reduce(scaled * scaled, axis=1))
    return norms


def check_psd(Q: np.ndarray, name: str) -> None:
    """Raise :class:`ParameterError` unless ``Q`` is symmetric positive semidefinite."""
    scale = max(1.0, float(np.max(np.abs(Q))))
    if float(np.max(np.abs(Q - Q.T))) > PSD_TOL * scale:
        raise ParameterError(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0]) < -PSD_TOL * scale:
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


def cholesky(P) -> np.ndarray:
    """Upper-triangular Cholesky factor ``R`` with ``R.T @ R == P``.

    ``P`` must be symmetric to within ``SYMMETRY_TOL`` (relative to its largest
    entry) and positive definite. On failure the error names the smallest
    leading principal minor that is not positive.
    """
    P = as_square_matrix(P, "P")
    scale = max(1.0, float(np.max(np.abs(P))))
    asym = float(np.max(np.abs(P - P.T)))
    if asym > SYMMETRY_TOL * scale:
        raise NotPositiveDefiniteError(
            f"matrix is not symmetric: max|P - P.T| = {asym:.3e} exceeds "
            f"tolerance {SYMMETRY_TOL:.1e} (relative to scale {scale:.3e})"
        )
    sym = (P + P.T) / 2.0
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: leading principal minor of "
            f"order {_failing_minor(sym)} is not positive"
        ) from None
    return np.ascontiguousarray(lower.T)


def _doubling(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``sum_j (A^j).T Q A^j`` by Smith's doubling: ``P += A_k.T P A_k``, then
    ``A_k = A_k @ A_k``, until a step is at most eps times the largest entry of P.

    Raises :class:`NumericError` when P leaves the float range (the transient
    growth of a non-normal ``A`` can overflow; the caller silences numpy's
    overflow warnings) or after ``MAX_SQUARINGS``.
    """
    eps = np.finfo(float).eps
    P = Q.copy()
    power = A
    for squarings in range(MAX_SQUARINGS):
        step = power.T @ P @ power
        P += step  # a non-finite step leaves P non-finite
        scale = float(np.max(np.abs(P)))
        if not math.isfinite(scale):
            raise NumericError(
                f"Lyapunov doubling overflowed after {squarings} squarings of A; "
                "the transient growth of A exceeds the float range"
            )
        if float(np.max(np.abs(step))) <= eps * scale:
            return P
        power = power @ power
    raise NumericError(
        f"Lyapunov doubling stopped at its cap of {MAX_SQUARINGS} squarings of A without "
        "converging; the system is likely too close to the stability boundary"
    )


def solve_discrete_lyapunov(A, Q) -> np.ndarray:
    """Solve ``A.T @ P @ A - P = -Q`` for symmetric positive definite ``P``.

    Requires symmetric positive definite ``Q`` and a Schur-stable ``A``
    (spectral radius < 1); otherwise no positive definite solution exists
    and :class:`NoStableSolutionError` is raised. ``P`` is the sum
    ``sum_j (A^j).T Q A^j``, computed by doubling (see :func:`_doubling`) and
    refined by one more doubling of its residual. The returned ``P`` is
    symmetrized and its residual is verified against ``RESIDUAL_TOL * ||Q||``;
    :class:`NumericError` reports a residual beyond it, a doubling that
    overflows, or one that does not converge within ``MAX_SQUARINGS``.
    """
    A = as_square_matrix(A, "A")
    Q = as_square_matrix(Q, "Q")
    if A.shape != Q.shape:
        raise DimensionError(f"A and Q must have equal shapes, got {A.shape} and {Q.shape}")
    try:
        cholesky(Q)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"Q must be symmetric positive definite: {exc}") from None
    radius = spectral_radius(A)
    if radius >= 1.0:
        raise NoStableSolutionError(
            f"no stable solution: spectral radius {radius:.6g} is not < 1"
        )
    at = A.T
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is _doubling's error
        P = _doubling(A, Q)
        # one correction round: the doubling of the residual recovers the digits
        # that the first pass loses near the stability boundary
        correction = _doubling(A, at @ P @ A - P + Q)
    P += (correction + correction.T) / 2.0
    P = (P + P.T) / 2.0
    residual = spectral_norm(at @ P @ A - P + Q)
    if residual > RESIDUAL_TOL * spectral_norm(Q):
        raise NumericError(
            f"Lyapunov residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} * ||Q||; "
            "the system is likely too close to the stability boundary"
        )
    return P
