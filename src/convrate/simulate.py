"""Co-simulate the plant and its scalar abstraction; check the guarantee.

A :class:`Trace` records, per step k, the applied mode, the disturbance
magnitude, the plant state and its norm, the abstraction state ``vbar_k``,
the cumulative rate product ``kappa_{0,k}``, and (with a cost weight) the
quadratic-cost bound. The defining property under test is always
``|x_k| <= vbar_k``. A :class:`TraceStream` gives the same rows and check
block by block, without holding every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, ParameterError, check_nonnegative
from .io import CSV_BLOCK_ROWS, csv_blocks
from .linalg import as_square_matrix, check_psd, cholesky, row_norms
from .model import AbstractionParams, SystemModel

#: Abstraction states beyond this truncate the trace with a diverged marker.
OVERFLOW_LIMIT = 1e300

#: Exact column contract of the trace CSV emission.
TRACE_COLUMNS = ("k", "sigma", "w_norm", "x_norm", "vbar", "kappa", "cost_bound")


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
    return w[:horizon]


def _disturbance_norms(w: np.ndarray, bound: float | None, start: int = 0) -> np.ndarray:
    """Row norms of the disturbances ``w_start ..``; they must be finite and within ``bound``."""
    if not np.all(np.isfinite(w)):
        raise DimensionError("disturbances contain non-finite entries")
    w_norms = row_norms(w)
    if bound is not None and len(w):
        worst = int(np.argmax(w_norms))
        if w_norms[worst] > bound * (1.0 + 1e-12):
            raise ParameterError(
                f"|w_{start + worst}| = {w_norms[worst]:.6g} exceeds the declared "
                f"disturbance bound {bound:.6g}"
            )
    return w_norms


def _horizon(seq: Sequence[int], horizon: int | None) -> int:
    """``horizon``, or the whole of ``seq`` when None; it must lie in ``[0, len(seq)]``."""
    if horizon is None:
        return len(seq)
    if horizon < 0 or horizon > len(seq):
        raise ParameterError(f"horizon must be in [0, {len(seq)}], got {horizon}")
    return horizon


def _plant_inputs(system: SystemModel, seq: Sequence[int], x0, disturbances,
                  horizon: int | None):
    """Validated ``(horizon, x0, w, |w_k|, matrix per mode)`` of a plant run.

    Every mode of ``seq[:horizon]`` is looked up once, in order of first
    use, so an undeclared mode raises the same ``KeyError`` as the step
    that would apply it.
    """
    horizon = _horizon(seq, horizon)
    x0 = _as_state(x0, system.n)
    w = _as_disturbances(disturbances, horizon, system.n)
    w_norms = _disturbance_norms(w, system.disturbance_bound)
    return horizon, x0, w, w_norms, _mode_matrices(system, seq[:horizon])


def _mode_matrices(system: SystemModel, applied: Sequence[int]) -> dict:
    return {mode: system.matrix(int(mode)) for mode in dict.fromkeys(applied)}


def _run_plant(seq: Sequence[int], start: int, w: np.ndarray, matrices: dict,
               states: np.ndarray) -> np.ndarray:
    """Steps ``start ..`` of the plant, one per row of ``w``, from the state in ``states[0]``.

    Fills ``states[1 : len(w) + 1]`` in place and returns ``states``.
    """
    prev = states[0]
    for mode, w_k, row in zip(seq[start:start + len(w)], w, states[1:]):
        matrices[mode].dot(prev, out=row)
        row += w_k
        prev = row
    return states


def _initial_states(x0: np.ndarray, rows: int) -> np.ndarray:
    states = np.empty((rows, len(x0)))
    states[0] = x0
    return states


def simulate_plant(system: SystemModel, seq: Sequence[int], x0,
                   disturbances=None, horizon: int | None = None) -> np.ndarray:
    """States x_0 .. x_horizon of ``x_{k+1} = A_{sigma_k} x_k + w_k``.

    Exact linear recursion, deterministic given its inputs. Disturbances
    must respect the system's declared bound when one is present.
    """
    _, x0, w, _, matrices = _plant_inputs(system, seq, x0, disturbances, horizon)
    return _run_plant(seq, 0, w, matrices, _initial_states(x0, len(w) + 1))


def w_bar_series(w_bar, steps: int) -> list[float]:
    """The first ``steps`` entries of a per-step disturbance bound, as plain floats.

    The one owner of the rule for a ``w_bar`` series: it provides ``steps``
    entries, and those are finite and >= 0 (later entries are never read).
    """
    values = np.asarray(w_bar, dtype=float).reshape(-1)
    if len(values) < steps:
        raise ParameterError(f"w_bar must provide {steps} entries, got {len(values)}")
    values = values[:steps]
    bad = np.flatnonzero(~(values >= 0.0) | ~np.isfinite(values))
    if len(bad):
        check_nonnegative(values[bad[0]], "w_bar")
    return values.tolist()


def simulate_abstraction(params: AbstractionParams, seq: Sequence[int],
                         x0_norm: float, w_bar=None,
                         horizon: int | None = None) -> np.ndarray:
    """Scalar series ``vbar_{k+1} = rho[sigma_k] vbar_k + beta wbar_k``.

    Starts at ``alpha * x0_norm``. If the state exceeds ``OVERFLOW_LIMIT``
    the series is truncated at the last finite step (a shorter-than-
    requested result signals divergence).
    """
    horizon = _horizon(seq, horizon)
    x0_norm = check_nonnegative(x0_norm, "x0_norm")
    gains = [0.0] * horizon if w_bar is None else w_bar_series(w_bar, horizon)
    beta = params.beta
    rates: dict = {}  # looked up at first use: a diverged series never reaches later modes
    value = params.alpha * x0_norm
    series = [value]
    for mode, gain in zip(seq[:horizon], gains):  # plain floats: overflow -> inf
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


def _scalar_series(system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                   x0: np.ndarray, w_bar, horizon: int):
    """``(vbar, kappa, cost bound or None)`` of a co-simulation, aligned row for row."""
    vbar = simulate_abstraction(params, seq, float(np.linalg.norm(x0)), w_bar, horizon)
    applied = seq[:len(vbar) - 1]
    rates = {mode: params.rate(int(mode)) for mode in dict.fromkeys(applied)}
    kappa_series = np.cumprod([1.0] + [rates[mode] for mode in applied])
    cost = None if system.cost_weight is None else cost_bound(system.cost_weight, vbar)
    return vbar, kappa_series, cost


def co_simulate(system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                x0, disturbances=None, w_bar=None, horizon: int | None = None,
                meta: dict | None = None) -> Trace:
    """Run plant and abstraction side by side and assemble a :class:`Trace`.

    ``w_bar`` defaults to the exact disturbance magnitudes ``|w_k|`` (the
    tightest admissible choice); pass a looser series to model bound-only
    disturbance knowledge.
    """
    horizon, x0, w, w_norms, matrices = _plant_inputs(system, seq, x0, disturbances, horizon)
    states = _run_plant(seq, 0, w, matrices, _initial_states(x0, horizon + 1))
    if w_bar is None:
        w_bar = w_norms
    vbar, kappa_series, cost = _scalar_series(system, params, seq, x0, w_bar, horizon)
    steps = len(vbar)  # may be < horizon + 1 when diverged
    diverged = steps < horizon + 1
    sigma: list[int | None] = [int(mode) for mode in seq[:min(steps, horizon)]]
    w_col = w_norms[:min(steps, horizon)].tolist()
    if not diverged:
        sigma.append(None)
        w_col.append(math.nan)
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


def _guarantee(x: np.ndarray, v: np.ndarray, rel_tol: float) -> tuple[int | None, float]:
    """First ``k`` without ``x[k] <= v[k] * (1 + rel_tol)`` (None if there is none),
    and the largest ``x[k] / v[k]`` (0.0 for empty series)."""
    violations = ~(x <= v * (1.0 + rel_tol))
    first = int(np.argmax(violations)) if bool(np.any(violations)) else None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.where(v > 0, x / np.where(v > 0, v, 1.0),
                          np.where(x == 0, 0.0, math.inf))
    ratios[np.isnan(x) | np.isnan(v)] = math.inf
    return first, float(np.max(ratios)) if len(ratios) else 0.0


def check_guarantee(trace: Trace, rel_tol: float = 1e-9) -> GuaranteeReport:
    """Verify ``|x_k| <= vbar_k * (1 + rel_tol)`` and report tightness.

    ``max_ratio`` is the supremum of ``|x_k| / vbar_k`` over the trace, a
    direct measure of how conservative the abstraction is. A NaN in either
    series is a violation with ratio ``inf``.
    """
    rel_tol = check_nonnegative(rel_tol, "rel_tol")
    first, max_ratio = _guarantee(trace.x_norm, trace.vbar, rel_tol)
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
    try:
        return cholesky(Q)
    except NotPositiveDefiniteError as exc:
        raise ParameterError(
            f"Q is singular or indefinite ({exc}); use cost_bound instead"
        ) from None


def _float_cells(values) -> list[str]:
    """``repr`` of each value as a float; NaN renders as an empty cell.

    ``repr`` runs once per distinct bit pattern (so ``-0.0`` and ``0.0``
    stay apart): columns such as ``vbar`` and ``kappa`` repeat a few values
    over many rows.
    """
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    cells = ["" if value != value else repr(value) for value in bits.view(np.float64).tolist()]
    return np.array(cells, dtype=object)[index].tolist()


def _trace_cells(start: int, sigma, w_norm, x_norm, vbar, kappa, cost):
    """Cells of the trace rows ``start ..``, column by column (see ``io.csv_blocks``)."""
    return (
        map(str, range(start, start + len(x_norm))),
        ["" if mode is None else str(mode) for mode in sigma],
        *map(_float_cells, (w_norm, x_norm, vbar, kappa)),
        [""] * len(x_norm) if cost is None else _float_cells(cost),
    )


def trace_csv_blocks(trace: Trace):
    """Trace CSV lines, header first, one list per block of rows (see ``io.csv_blocks``)."""
    def columns(start: int, stop: int):
        series = (trace.w_norm, trace.x_norm, trace.vbar, trace.kappa, trace.cost_bound)
        return _trace_cells(start, trace.sigma[start:stop],
                            *(None if s is None else s[start:stop] for s in series))

    return csv_blocks(TRACE_COLUMNS, len(trace), columns)


def trace_csv_lines(trace: Trace) -> list[str]:
    """Render a trace as CSV lines under the fixed column contract."""
    return [line for block in trace_csv_blocks(trace) for line in block]


class TraceStream:
    """A co-simulation that renders its trace CSV while the plant runs.

    The CSV rows, the divergence and the guarantee report equal those of
    :func:`co_simulate`, :func:`trace_csv_blocks` and :func:`check_guarantee`,
    but the plant runs one ``CSV_BLOCK_ROWS`` block of rows at a time, and
    only one state row is carried from block to block.

    ``w_blocks`` yields the disturbances in consecutive blocks of
    ``CSV_BLOCK_ROWS`` rows (the last one shorter). ``w_bar`` is the
    per-step bound series of :func:`simulate_abstraction` (None: zero), since
    ``vbar`` is computed before the plant runs. Every input is checked on
    construction, the first disturbance block included, so a refusal comes
    before any row; later blocks are checked as they arrive.
    """

    def __init__(self, system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                 x0, w_blocks, w_bar, horizon: int | None = None, rel_tol: float = 1e-9):
        self._rel_tol = check_nonnegative(rel_tol, "rel_tol")
        self._seq = seq
        self._horizon = horizon = _horizon(seq, horizon)
        x0 = _as_state(x0, system.n)
        self._w_blocks = iter(w_blocks)
        self._bound = system.disturbance_bound
        self._states = _initial_states(x0, min(CSV_BLOCK_ROWS, horizon) + 1)
        self._first_block = self._disturbances(0)
        self._matrices = _mode_matrices(system, seq[:horizon])
        self._vbar, self._kappa, self._cost = _scalar_series(
            system, params, seq, x0, w_bar, horizon)
        self.diverged = len(self._vbar) < horizon + 1
        self._first_violation: int | None = None
        self._max_ratios: list[float] = []

    def __len__(self) -> int:
        return len(self._vbar)

    def _disturbances(self, start: int):
        """Disturbances of the steps in the block of rows from ``start``, and their norms."""
        rows = min(start + CSV_BLOCK_ROWS, self._horizon) - start
        block = next(self._w_blocks, ()) if rows else None  # () fails the shape check
        w = _as_disturbances(block, rows, self._states.shape[1])
        return w, _disturbance_norms(w, self._bound, start)

    def _columns(self, start: int, stop: int):
        w, w_norms = self._first_block if start == 0 else self._disturbances(start)
        states = _run_plant(self._seq, start, w, self._matrices, self._states)
        x_norm = row_norms(states[:stop - start])
        states[0] = states[len(w)]  # the state the next block starts from
        vbar = self._vbar[start:stop]
        first, max_ratio = _guarantee(x_norm, vbar, self._rel_tol)
        if first is not None and self._first_violation is None:
            self._first_violation = start + first
        self._max_ratios.append(max_ratio)
        sigma: list[int | None] = [int(mode) for mode in self._seq[start:start + len(w)]]
        if len(w) < stop - start:  # the final row of a completed trace
            sigma.append(None)
            w_norms = np.append(w_norms, math.nan)
        cost = None if self._cost is None else self._cost[start:stop]
        return _trace_cells(start, sigma, w_norms, x_norm, vbar, self._kappa[start:stop], cost)

    def csv_blocks(self):
        """Trace CSV lines, header first, one list per block of rows; run this once."""
        return csv_blocks(TRACE_COLUMNS, len(self), self._columns)

    @property
    def report(self) -> GuaranteeReport:
        """The guarantee check of every row, once :meth:`csv_blocks` has been consumed."""
        first = self._first_violation
        return GuaranteeReport(holds=first is None, first_violation=first,
                               max_ratio=float(np.max(self._max_ratios)))
