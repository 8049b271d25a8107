"""Step-by-step reference versions of convrate's vectorised loops.

Each function is the plain per-step (or per-cell) loop the library ran
before it batched the work. The tests require the library's result to
equal these bit for bit: the arithmetic is the same, only its grouping
into numpy calls differs.
"""

from __future__ import annotations

import math

import numpy as np

from convrate.errors import NumericError
from convrate.linalg import spectral_radius, top_singular_value
from convrate.nominal import OVERFLOW_LIMIT
from convrate.simulate import OVERFLOW_LIMIT as VBAR_LIMIT
from convrate.simulate import TRACE_COLUMNS


def scan_norms(A0: np.ndarray, rho: float, max_iterations: int) -> list[float]:
    """Norms ``||(A0/rho)^k||`` for k = 0 .. k_tilde, one product and one norm per step."""
    base = A0 / rho
    current = np.eye(A0.shape[0])
    norms = [1.0]
    for _ in range(max_iterations):
        current = current @ base
        value = top_singular_value(current)
        if not value <= OVERFLOW_LIMIT:
            raise NumericError(
                f"||A0^k rho^-k|| exceeded {OVERFLOW_LIMIT:.0e} or overflowed at k={len(norms)}; "
                "rho is far below a valid decay rate"
            )
        norms.append(value)
        if value < 1.0:
            return norms
    raise NumericError(
        f"no k <= {max_iterations} with ||A0^k rho^-k|| < 1 "
        f"(last norm {norms[-1]:.6g}); rho={rho} is too close to the "
        f"spectral radius {spectral_radius(A0):.6g}"
    )


def plant_states(system, seq, x0, w) -> np.ndarray:
    """``x_{k+1} = A_{sigma_k} x_k + w_k`` for every row of ``w``."""
    states = np.empty((len(w) + 1, system.n))
    states[0] = x0
    for k in range(len(w)):
        states[k + 1] = system.matrix(int(seq[k])) @ states[k] + w[k]
    return states


def abstraction_series(params, seq, x0_norm: float, w_bar) -> np.ndarray:
    """``vbar_{k+1} = rho[sigma_k] vbar_k + beta wbar_k``, truncated past the overflow guard."""
    gains = [float(v) for v in w_bar]
    series = [params.alpha * x0_norm]
    for k in range(len(gains)):
        value = params.rate(int(seq[k])) * series[-1] + params.beta * gains[k]
        if value > VBAR_LIMIT:
            break
        series.append(value)
    return np.array(series)


def worst_case_sequence(mk, length: int) -> tuple[int, ...]:
    """Skip the first ``m_bar`` slots of every window, one slot at a time."""
    return tuple(1 if (k % mk.K) < mk.m_bar else 0 for k in range(length))


def _format_cell(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def trace_csv_lines(trace) -> list[str]:
    """The trace CSV, formatted one cell at a time."""
    lines = [",".join(TRACE_COLUMNS)]
    for k in range(len(trace)):
        cells = [
            str(k),
            "" if trace.sigma[k] is None else str(trace.sigma[k]),
            _format_cell(trace.w_norm[k]),
            _format_cell(trace.x_norm[k]),
            _format_cell(trace.vbar[k]),
            _format_cell(trace.kappa[k]),
            "" if trace.cost_bound is None else _format_cell(trace.cost_bound[k]),
        ]
        lines.append(",".join(cells))
    return lines
