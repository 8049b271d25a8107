"""Co-simulate the plant and its scalar abstraction; check the guarantee.

A :class:`Trace` records, per step k, the applied mode, the disturbance
magnitude, the plant state and its norm, the abstraction state ``vbar_k``,
the cumulative rate product ``kappa_{0,k}``, and (with a cost weight) the
quadratic-cost bound. The defining property under test is always
``|x_k| <= vbar_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import as_square_matrix, check_psd, cholesky, row_norms
from .model import AbstractionParams, SystemModel

#: Abstraction states beyond this truncate the trace with a diverged marker.
OVERFLOW_LIMIT = 1e300

#: Exact column contract of the trace CSV emission.
TRACE_COLUMNS = ("k", "sigma", "w_norm", "x_norm", "vbar", "kappa", "cost_bound")
#: Rows rendered per block of the trace CSV.
CSV_BLOCK_ROWS = 1 << 12


@dataclass
class Trace:
    """Aligned per-step series of one plant/abstraction co-simulation.

    All series have equal length. ``sigma[k]`` and ``w_norm[k]`` describe
    the transition leaving step k; on the final row of a completed trace
    they are absent (None / NaN). ``diverged`` marks a trace truncated by
    the abstraction overflow guard.
    """

    sigma: tuple[int | None, ...]
    w_norm: np.ndarray
    x: np.ndarray
    x_norm: np.ndarray
    vbar: np.ndarray
    kappa: np.ndarray
    cost_bound: np.ndarray | None = None
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        steps = len(self.x_norm)
        same = {len(self.sigma), len(self.w_norm), len(self.x), len(self.vbar),
                len(self.kappa)}
        if self.cost_bound is not None:
            same.add(len(self.cost_bound))
        if same != {steps}:
            raise DimensionError(f"trace series lengths differ: {sorted(same | {steps})}")
        if np.any(self.vbar < 0):
            raise ParameterError("vbar must be non-negative")
        if np.any(self.kappa < 0):
            raise ParameterError("kappa must be non-negative")

    def __len__(self) -> int:
        return len(self.x_norm)


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of checking ``|x_k| <= vbar_k`` over a trace."""

    holds: bool
    first_violation: int | None
    max_ratio: float

    def __bool__(self) -> bool:
        return self.holds


def _as_state(x0, n: int) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise DimensionError(f"x0 must be a vector of length {n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DimensionError("x0 contains non-finite entries")
    return x0


def _as_disturbances(disturbances, horizon: int, n: int) -> np.ndarray:
    if disturbances is None:
        return np.zeros((horizon, n))
    w = np.asarray(disturbances, dtype=float)
    if w.ndim == 1 and n == 1:
        w = w.reshape(-1, 1)
    if w.ndim != 2 or w.shape[1] != n or w.shape[0] < horizon:
        raise DimensionError(
            f"disturbances must be at least {horizon} vectors of length {n}, "
            f"got shape {w.shape}"
        )
    w = w[:horizon]
    if not np.all(np.isfinite(w)):
        raise DimensionError("disturbances contain non-finite entries")
    return w


def _plant_inputs(system: SystemModel, seq: Sequence[int], x0, disturbances,
                  horizon: int | None):
    """Validated ``(horizon, x0, w, |w_k|, matrix per mode)`` of a plant run.

    Every mode of ``seq[:horizon]`` is looked up once, in order of first
    use, so an undeclared mode raises the same ``KeyError`` as the step
    that would apply it.
    """
    if horizon is None:
        horizon = len(seq)
    if horizon < 0 or horizon > len(seq):
        raise ParameterError(f"horizon must be in [0, {len(seq)}], got {horizon}")
    x0 = _as_state(x0, system.n)
    w = _as_disturbances(disturbances, horizon, system.n)
    w_norms = row_norms(w)
    bound = system.disturbance_bound
    if bound is not None and horizon:
        worst = int(np.argmax(w_norms))
        if w_norms[worst] > bound * (1.0 + 1e-12):
            raise ParameterError(
                f"|w_{worst}| = {w_norms[worst]:.6g} exceeds the declared "
                f"disturbance bound {bound:.6g}"
            )
    matrices = {mode: system.matrix(int(mode)) for mode in dict.fromkeys(seq[:horizon])}
    return horizon, x0, w, w_norms, matrices


def _run_plant(seq: Sequence[int], x0: np.ndarray, w: np.ndarray, matrices: dict) -> np.ndarray:
    states = np.empty((len(w) + 1, len(x0)))
    states[0] = x0
    prev = states[0]
    for k, row in enumerate(states[1:]):
        matrices[seq[k]].dot(prev, out=row)
        row += w[k]
        prev = row
    return states


def simulate_plant(system: SystemModel, seq: Sequence[int], x0,
                   disturbances=None, horizon: int | None = None) -> np.ndarray:
    """States x_0 .. x_horizon of ``x_{k+1} = A_{sigma_k} x_k + w_k``.

    Exact linear recursion, deterministic given its inputs. Disturbances
    must respect the system's declared bound when one is present.
    """
    _, x0, w, _, matrices = _plant_inputs(system, seq, x0, disturbances, horizon)
    return _run_plant(seq, x0, w, matrices)


def simulate_abstraction(params: AbstractionParams, seq: Sequence[int],
                         x0_norm: float, w_bar=None,
                         horizon: int | None = None) -> np.ndarray:
    """Scalar series ``vbar_{k+1} = rho[sigma_k] vbar_k + beta wbar_k``.

    Starts at ``alpha * x0_norm``. If the state exceeds ``OVERFLOW_LIMIT``
    the series is truncated at the last finite step (a shorter-than-
    requested result signals divergence).
    """
    if horizon is None:
        horizon = len(seq)
    if horizon < 0 or horizon > len(seq):
        raise ParameterError(f"horizon must be in [0, {len(seq)}], got {horizon}")
    x0_norm = float(x0_norm)
    if x0_norm < 0:
        raise ParameterError(f"x0_norm must be >= 0, got {x0_norm}")
    if w_bar is None:
        w_values = np.zeros(horizon)
    else:
        w_values = np.asarray(w_bar, dtype=float).reshape(-1)
        if len(w_values) < horizon:
            raise ParameterError(f"w_bar must provide {horizon} entries, got {len(w_values)}")
        w_values = w_values[:horizon]
        if np.any(w_values < 0) or not np.all(np.isfinite(w_values)):
            raise ParameterError("w_bar entries must be finite and >= 0")
    beta = params.beta
    rates: dict = {}  # looked up at first use: a diverged series never reaches later modes
    value = params.alpha * x0_norm
    series = [value]
    for mode, gain in zip(seq[:horizon], w_values.tolist()):  # plain floats: overflow -> inf
        rate = rates.get(mode)
        if rate is None:
            rate = rates[mode] = params.rate(int(mode))
        value = rate * value + beta * gain
        if value > OVERFLOW_LIMIT:
            break
        series.append(value)
    return np.array(series)


def kappa(params: AbstractionParams, seq: Sequence[int], a: int, b: int) -> float:
    """Rate product ``kappa_{a,b} = prod_{i=a}^{b-1} rho[sigma_i]``; 1 when a == b."""
    if not 0 <= a <= b <= len(seq):
        raise ParameterError(f"need 0 <= a <= b <= {len(seq)}, got a={a}, b={b}")
    product = 1.0
    for i in range(a, b):
        product *= params.rate(int(seq[i]))
    return product


def co_simulate(system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                x0, disturbances=None, w_bar=None, horizon: int | None = None,
                meta: dict | None = None) -> Trace:
    """Run plant and abstraction side by side and assemble a :class:`Trace`.

    ``w_bar`` defaults to the exact disturbance magnitudes ``|w_k|`` (the
    tightest admissible choice); pass a looser series to model bound-only
    disturbance knowledge.
    """
    horizon, x0, w, w_norms, matrices = _plant_inputs(system, seq, x0, disturbances, horizon)
    states = _run_plant(seq, x0, w, matrices)
    if w_bar is None:
        w_bar = w_norms
    x0_norm = float(np.linalg.norm(states[0]))
    vbar = simulate_abstraction(params, seq, x0_norm, w_bar, horizon)
    steps = len(vbar)  # may be < horizon + 1 when diverged
    diverged = steps < horizon + 1
    applied = seq[:steps - 1]
    rates = {mode: params.rate(int(mode)) for mode in dict.fromkeys(applied)}
    kappa_series = np.cumprod([1.0] + [rates[mode] for mode in applied])
    sigma: list[int | None] = [int(mode) for mode in seq[:min(steps, horizon)]]
    w_col = w_norms[:min(steps, horizon)].tolist()
    if not diverged:
        sigma.append(None)
        w_col.append(math.nan)
    cost = None
    if system.cost_weight is not None:
        cost = cost_bound(system.cost_weight, vbar)
    return Trace(
        sigma=tuple(sigma),
        w_norm=np.array(w_col),
        x=states[:steps],
        x_norm=row_norms(states[:steps]),
        vbar=vbar,
        kappa=kappa_series,
        cost_bound=cost,
        diverged=diverged,
        meta=dict(meta or {}),
    )


def check_guarantee(trace: Trace, rel_tol: float = 1e-9) -> GuaranteeReport:
    """Verify ``|x_k| <= vbar_k * (1 + rel_tol)`` and report tightness.

    ``max_ratio`` is the supremum of ``|x_k| / vbar_k`` over the trace, a
    direct measure of how conservative the abstraction is.
    """
    x = trace.x_norm
    v = trace.vbar
    violations = x > v * (1.0 + rel_tol)
    first = int(np.argmax(violations)) if bool(np.any(violations)) else None
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(v > 0, x / np.where(v > 0, v, 1.0),
                          np.where(x == 0, 0.0, math.inf))
    max_ratio = float(np.max(ratios)) if len(ratios) else 0.0
    return GuaranteeReport(holds=first is None, first_violation=first, max_ratio=max_ratio)


def cost_bound(Q, v_series) -> np.ndarray:
    """Per-step quadratic-cost bound ``lambda_max(Q) * v_k^2``."""
    Q = as_square_matrix(Q, "Q")
    check_psd(Q, "Q")
    weight = max(float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[-1]), 0.0)
    v = np.asarray(v_series, dtype=float)
    return weight * v * v


def cost_transform(Q) -> np.ndarray:
    """Factor ``R`` with ``x.T Q x = |R x|^2``, for positive definite ``Q``.

    Tracking the transformed state makes an abstraction bound the cost
    directly. Semidefinite weights have no such factor; use
    :func:`cost_bound` for those.
    """
    from .errors import NotPositiveDefiniteError

    try:
        return cholesky(Q)
    except NotPositiveDefiniteError as exc:
        raise ParameterError(
            f"Q is singular or indefinite ({exc}); use cost_bound instead"
        ) from None


def _float_cells(values) -> list[str]:
    """``repr`` of each value as a float; NaN renders as an empty cell."""
    values = np.asarray(values, dtype=float)
    cells = list(map(repr, values.tolist()))
    for index in np.flatnonzero(np.isnan(values)).tolist():
        cells[index] = ""
    return cells


def _csv_blocks(trace: Trace):
    """CSV lines of a trace, header first, one list per block of rows.

    Each block is rendered column by column; a writer that consumes the
    blocks one at a time holds at most ``CSV_BLOCK_ROWS`` rows of text.
    """
    yield [",".join(TRACE_COLUMNS)]
    for start in range(0, len(trace), CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, len(trace))
        columns = (
            map(str, range(start, stop)),
            ["" if sigma is None else str(sigma) for sigma in trace.sigma[start:stop]],
            _float_cells(trace.w_norm[start:stop]),
            _float_cells(trace.x_norm[start:stop]),
            _float_cells(trace.vbar[start:stop]),
            _float_cells(trace.kappa[start:stop]),
            ([""] * (stop - start) if trace.cost_bound is None
             else _float_cells(trace.cost_bound[start:stop])),
        )
        yield list(map(",".join, zip(*columns)))


def trace_csv_lines(trace: Trace) -> list[str]:
    """Render a trace as CSV lines under the fixed column contract."""
    return [line for block in _csv_blocks(trace) for line in block]


def write_trace_csv(trace: Trace, fileobj) -> None:
    """Write :func:`trace_csv_lines`, newline-terminated, one row block at a time."""
    for block in _csv_blocks(trace):
        fileobj.write("\n".join(block) + "\n")
