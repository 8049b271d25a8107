"""Exponential-stability certificates for the nominal closed loop.

Given the nominal matrix ``A0`` and a decay rate ``rho`` strictly between
the spectral radius of ``A0`` and one, the norms ``||A0^k rho^-k||`` decay
below one after finitely many steps. The first such step ``k_tilde`` and
the maximum ``alpha_min`` of the norms before it certify the exponential
bound ``|x_k| <= alpha_min * rho^k * |x_0|``, which is also the nominal
one-dimensional abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .linalg import as_square_matrix, spectral_radius, top_singular_value
from .model import AbstractionParams

#: Cap on the search for k_tilde.
ITERATION_CAP = 10**6
#: Norm values beyond this abort the power scan (rho chosen far too small).
OVERFLOW_LIMIT = 1e300
#: Byte budget of one block of powers in the k_tilde scan (8192 at n=4).
SCAN_BLOCK_BYTES = 1 << 20
#: Relative slack of the Frobenius screen in the k_tilde scan, far above the rounding
#: of the norms it compares (on the powers of a Jordan block, ``||P||_F / ||P||_2``
#: is 1 +- 4e-16, so a screen without slack would misjudge them).
SCREEN_MARGIN = 1e-8
#: Frobenius norm up to which the scan's ``A.T @ A`` cannot overflow, so that the
#: exact norm is finite and within ``OVERFLOW_LIMIT``.
SCREEN_LIMIT = 1e150
#: Relative gap kept above the spectral radius by :func:`sweep_rho`.
SWEEP_MARGIN = 1e-3


@dataclass(frozen=True)
class RhoValidation:
    """Outcome of checking a candidate decay rate against ``A0``.

    Falsy when rejected; ``reason`` then names the violated bound and
    ``spectral_radius`` reports the radius of ``A0``.
    """

    ok: bool
    rho: float
    spectral_radius: float
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class NominalCertificate:
    """Numerically evaluated exponential-stability certificate."""

    rho: float
    k_tilde: int
    alpha_min: float


def validate_rho(A0, rho: float) -> RhoValidation:
    """Check ``spectral_radius(A0) < rho < 1``; rejection is a result, not an error."""
    radius = spectral_radius(as_square_matrix(A0, "A0"))
    rho = float(rho)
    if not rho < 1.0:
        return RhoValidation(False, rho, radius,
                             f"rho must be < 1, got {rho} (spectral radius is {radius:.6g})")
    if not rho > radius:
        return RhoValidation(False, rho, radius,
                             f"rho must exceed the spectral radius {radius:.6g}, got {rho}")
    return RhoValidation(True, rho, radius)


def _block_norms(products: np.ndarray):
    """Top singular values of a stack of products, in stack order.

    One stacked ``A.T @ A`` and one batched ``eigvalsh``, with the clamp of
    :func:`top_singular_value`. If LAPACK fails on any matrix of the stack,
    the values are evaluated one by one instead, so the failure surfaces at
    the step where the scan would reach it and not earlier.
    """
    try:
        top = np.linalg.eigvalsh(np.matmul(products.transpose(0, 2, 1), products))[:, -1]
    except np.linalg.LinAlgError:
        return (top_singular_value(product) for product in products)
    return np.sqrt(np.where(top < 0.0, 0.0, top)).tolist()


def _exact_norms(block: np.ndarray, indices):
    """:func:`_block_norms` of the products ``block[indices]``, in that order."""
    return _block_norms(block[indices]) if len(indices) else []


def _scan_norms(A0: np.ndarray, rho: float, max_iterations: int) -> tuple[int, float]:
    """``(k_tilde, alpha_min)``: the first k with ``||(A0/rho)^k|| < 1``, and the
    largest norm before it (1 for k = 0).

    The powers are the sequential products ``current @ base``. They are
    taken in blocks of 1, 2, 4, ... products, capped at
    ``SCAN_BLOCK_BYTES``, so a short scan does no extra work and a long one
    overshoots k_tilde by at most one block. Each product is screened by
    its Frobenius norm ``F``, since ``F / sqrt(n) <= ||P|| <= F``; its exact
    norm (:func:`_block_norms`) is taken only where the screen, widened by
    ``SCREEN_MARGIN``, cannot decide: where the product may be < 1, may
    exceed ``SCREEN_LIMIT``, or may exceed the largest norm so far, and for
    the last product before the cap, whose norm the refusal quotes. The
    exact norms that may stop the scan are read in step order, so every
    value, stop and refusal is that of the per-step scan. Products past the
    stopping step may overflow; they are never read, and ``np.errstate``
    keeps them silent.
    """
    base = A0 / rho
    n = A0.shape[0]
    cap = max(1, SCAN_BLOCK_BYTES // (8 * n * n))
    floor = (1.0 - SCREEN_MARGIN) / np.sqrt(n)
    current = np.eye(n)
    k, best, size = 0, 1.0, 1  # k products taken so far; best: the largest norm
    with np.errstate(over="ignore", invalid="ignore"):
        while k < max_iterations:
            block = np.empty((min(size, cap, max_iterations - k), n, n))
            for product in block:
                np.dot(current, base, out=product)  # the bits of current @ base, faster
                current = product
            frobenius = np.sqrt(np.einsum("kij,kij->k", block, block))
            upper = frobenius * (1.0 + SCREEN_MARGIN)
            undecided = np.flatnonzero(~((frobenius * floor >= 1.0) & (upper <= SCREEN_LIMIT)))
            stop = len(block)
            for i, value in zip(undecided.tolist(), _exact_norms(block, undecided)):
                if not value <= OVERFLOW_LIMIT:  # NaN when A.T @ A overflowed
                    raise NumericError(
                        f"||A0^k rho^-k|| exceeded {OVERFLOW_LIMIT:.0e} or overflowed at k={k + i + 1}; "
                        "rho is far below a valid decay rate"
                    )
                if value < 1.0:
                    stop = i
                    break
                best = max(best, value)
            # the largest norm before the stop: the product with the top bound first,
            # then every product whose bound still reaches the largest norm
            upper = upper[:stop]
            if len(upper) and np.max(upper) >= best:
                best = max(best, *_exact_norms(block, np.argmax(upper, keepdims=True)))
                best = max(best, *_exact_norms(block, np.flatnonzero(upper >= best)))
            if stop < len(block):
                return k + stop + 1, best
            k += len(block)
            size *= 2
    (last,) = _exact_norms(block, [-1]) if max_iterations else (1.0,)
    raise NumericError(
        f"no k <= {max_iterations} with ||A0^k rho^-k|| < 1 "
        f"(last norm {last:.6g}); rho={rho} is too close to the "
        f"spectral radius {spectral_radius(A0):.6g}"
    )


def nominal_certificate(A0, rho: float) -> NominalCertificate:
    """Validate ``rho`` and evaluate ``k_tilde`` and ``alpha_min`` for it."""
    A0 = as_square_matrix(A0, "A0")
    check = validate_rho(A0, rho)
    if not check:
        raise ParameterError(check.reason)
    k_tilde, alpha_min = _scan_norms(A0, check.rho, ITERATION_CAP)
    return NominalCertificate(rho=check.rho, k_tilde=k_tilde, alpha_min=alpha_min)


def build_nominal_abstraction(A0, rho: float, beta: float | None = None) -> AbstractionParams:
    """Single-mode abstraction of the undisturbed nominal loop.

    ``alpha`` is set to ``alpha_min``; ``beta`` defaults to ``alpha`` (its
    smallest admissible value) and may be raised but not lowered.
    """
    cert = nominal_certificate(A0, rho)
    if beta is None:
        beta = cert.alpha_min
    elif beta < cert.alpha_min:
        raise ParameterError(
            f"beta must be >= alpha_min = {cert.alpha_min:.6g}, got {beta}"
        )
    return AbstractionParams(
        alpha=cert.alpha_min,
        beta=float(beta),
        rho={0: cert.rho},
        method="nominal",
        diagnostics={"k_tilde": cert.k_tilde, "alpha_min": cert.alpha_min},
    )


def sweep_rho(A0, num: int = 20) -> list[tuple[float, float]]:
    """(rho, alpha_min) pairs on a log-spaced grid of admissible decay rates.

    The grid spans ``spectral_radius(A0) * (1 + SWEEP_MARGIN)`` up to
    (excluding) one, letting callers trade decay speed against overshoot.
    """
    A0 = as_square_matrix(A0, "A0")
    if num < 1:
        raise ParameterError("num must be >= 1")
    radius = spectral_radius(A0)
    low = max(radius * (1.0 + SWEEP_MARGIN), 1e-6)
    if low >= 1.0:
        raise ParameterError(
            f"A0 is not Schur-stable enough to sweep: spectral radius {radius:.6g}"
        )
    grid = np.geomspace(low, 1.0, num=num, endpoint=False)
    return [(float(r), nominal_certificate(A0, float(r)).alpha_min) for r in grid]
