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
from itertools import islice
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
    """At least ``horizon`` disturbance rows of length ``n`` (zeros for None), untruncated."""
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
    return w


def _disturbance_norms(w: np.ndarray, bound: float | None, start: int = 0) -> np.ndarray:
    """Row norms of the disturbances ``w_start ..``, ``CSV_BLOCK_ROWS`` rows at a time;
    the disturbances must be finite and within ``bound``."""
    if not np.all(np.isfinite(w)):
        raise DimensionError("disturbances contain non-finite entries")
    w_norms = np.empty(len(w))
    for row in range(0, len(w), CSV_BLOCK_ROWS):
        w_norms[row:row + CSV_BLOCK_ROWS] = row_norms(w[row:row + CSV_BLOCK_ROWS])
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


def simulate_plant(system: SystemModel, seq: Sequence[int], x0,
                   disturbances=None, horizon: int | None = None) -> np.ndarray:
    """States x_0 .. x_horizon of ``x_{k+1} = A_{sigma_k} x_k + w_k``.

    Exact linear recursion, deterministic given its inputs. Disturbances
    must respect the system's declared bound when one is present.
    """
    horizon = _horizon(seq, horizon)
    x0 = _as_state(x0, system.n)
    w = _as_disturbances(disturbances, horizon, system.n)[:horizon]
    _disturbance_norms(w, system.disturbance_bound)
    states = np.empty((horizon + 1, system.n))
    states[0] = x0
    return _run_plant(seq, 0, w, _mode_matrices(system, seq[:horizon]), states)


def w_bar_series(w_bar, steps: int) -> np.ndarray:
    """The first ``steps`` entries of a disturbance bound: one bound, or one bound per step.

    The one owner of the rule for ``w_bar``: it provides ``steps`` entries, finite and
    >= 0 (later entries are never read); one bound is a read-only view, not a copy.
    """
    values = np.asarray(w_bar, dtype=float)
    values = np.broadcast_to(values, steps) if values.ndim == 0 else values.reshape(-1)
    if len(values) < steps:
        raise ParameterError(f"w_bar must provide {steps} entries, got {len(values)}")
    values = values[:steps]
    # min and max allocate nothing per step; a refusal then looks up the first bad entry
    if len(values) and not (values.min() >= 0.0 and math.isfinite(values.max())):
        bad = np.flatnonzero(~(values >= 0.0) | ~np.isfinite(values))
        check_nonnegative(values[bad[0]], "w_bar")
    return values


def _rows(params: AbstractionParams, modes, gains, value: float, product: float):
    """``(vbar, kappa)`` lists from the row ``(value, product)`` on, one more row per mode,
    over plain floats (an overflow is inf); they stop before a ``vbar`` past
    ``OVERFLOW_LIMIT``, so no later mode is looked up."""
    beta, rates = params.beta, params.rho
    vbar, kappa = [value], [product]
    for mode, gain in zip(modes, gains):
        rate = rates[mode] if mode in rates else params.rate(int(mode))  # a missing mode raises
        value = rate * value + beta * gain
        if value > OVERFLOW_LIMIT:
            break
        product *= rate
        vbar.append(value)
        kappa.append(product)
    return vbar, kappa


def _series(params: AbstractionParams, seq: Sequence[int], gains: np.ndarray,
            row: tuple[float, float]):
    """``(vbar, kappa)`` lists of :func:`_rows` from ``row`` on, over the modes
    ``seq[:len(gains)]``, one ``CSV_BLOCK_ROWS`` block of rows at a time,
    carrying one row from block to block as :class:`TraceStream` does."""
    start = 0
    while row is not None:
        stop = min(start + CSV_BLOCK_ROWS, len(gains))
        vbar, kappa = _rows(params, seq[start:stop], gains[start:stop].tolist(), *row)
        row = (vbar.pop(), kappa.pop()) if len(vbar) > CSV_BLOCK_ROWS else None
        yield vbar, kappa
        start = stop


def simulate_abstraction(params: AbstractionParams, seq: Sequence[int],
                         x0_norm: float, w_bar=None,
                         horizon: int | None = None) -> np.ndarray:
    """Scalar series ``vbar_{k+1} = rho[sigma_k] vbar_k + beta wbar_k``.

    Starts at ``alpha * x0_norm``; ``w_bar`` is one bound or one per step
    (None: zero). Past ``OVERFLOW_LIMIT`` the series is truncated at the last
    finite step (a shorter-than-requested result signals divergence).
    """
    horizon = _horizon(seq, horizon)
    x0_norm = check_nonnegative(x0_norm, "x0_norm")
    gains = w_bar_series(0.0 if w_bar is None else w_bar, horizon)
    vbar, rows = np.empty(horizon + 1), 0
    for values, _ in _series(params, seq, gains, (params.alpha * x0_norm, 1.0)):
        vbar[rows:rows + len(values)] = values
        rows += len(values)
    return vbar[:rows]


def kappa(params: AbstractionParams, seq: Sequence[int], a: int, b: int) -> float:
    """Rate product ``kappa_{a,b} = prod_{i=a}^{b-1} rho[sigma_i]``; 1 when a == b."""
    if not 0 <= a <= b <= len(seq):
        raise ParameterError(f"need 0 <= a <= b <= {len(seq)}, got a={a}, b={b}")
    return math.prod(map(params.rate, islice(seq, a, b)), start=1.0)


def _state_norm(x0: np.ndarray) -> float:
    """``np.linalg.norm(x0)``, or :func:`row_norms`'s scaled norm if its square is out of range."""
    with np.errstate(over="ignore"):
        square = float(x0.dot(x0))
    if np.finfo(float).tiny <= square < math.inf:
        return math.sqrt(square)
    return float(row_norms(x0[np.newaxis])[0])


def co_simulate(system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                x0, disturbances=None, w_bar=None, horizon: int | None = None,
                meta: dict | None = None) -> Trace:
    """Run plant and abstraction side by side and assemble a :class:`Trace`.

    ``w_bar`` defaults to the exact disturbance magnitudes ``|w_k|`` (the
    tightest admissible choice); pass a looser bound, or one per step, to
    model bound-only disturbance knowledge. The rows are those of a
    :class:`TraceStream` over the same inputs, collected block by block.
    """
    horizon = _horizon(seq, horizon)
    w = _as_disturbances(disturbances, horizon, system.n)
    stream = TraceStream(system, params, seq, x0, w, w_bar, horizon)
    x, columns = np.empty((horizon + 1, system.n)), np.empty((5, horizon + 1))
    sigma = []
    for start, states, modes, *series in stream._blocks():
        for column, values in zip((x, *columns), (states, *series)):
            column[start:start + len(states)] = np.nan if values is None else values
        sigma += modes
    w_norm, x_norm, vbar, kappa_series, cost = columns[:, :len(stream)]
    return Trace(sigma=tuple(sigma), w_norm=w_norm, x=x[:len(stream)], x_norm=x_norm,
                 vbar=vbar, kappa=kappa_series, diverged=stream.diverged,
                 cost_bound=None if system.cost_weight is None else cost,
                 meta=dict(meta or {}))


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
    """Per-step quadratic-cost bound ``lambda_max(Q) * v_k^2``; a bound past the float range is inf."""
    Q = as_square_matrix(Q, "Q")
    check_psd(Q, "Q")
    weight = max(float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[-1]), 0.0)
    v = np.asarray(v_series, dtype=float)
    with np.errstate(over="ignore"):  # a zero weight bounds the cost by 0, even for v_k = inf
        return weight * v * v if weight else np.zeros_like(v)


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


def trace_csv_lines(trace: Trace) -> list[str]:
    """Render a trace as CSV lines under the fixed column contract."""
    series = (trace.sigma, trace.w_norm, trace.x_norm, trace.vbar, trace.kappa, trace.cost_bound)
    blocks = (_trace_cells(start, *(None if s is None else s[start:start + CSV_BLOCK_ROWS]
                                    for s in series))
              for start in range(0, len(trace), CSV_BLOCK_ROWS))
    return [line for block in csv_blocks(TRACE_COLUMNS, blocks) for line in block]


class TraceStream:
    """A co-simulation that renders its trace CSV while the plant runs.

    The one co-simulation engine, which :func:`co_simulate` collects into a
    :class:`Trace`. The plant and the abstraction run one ``CSV_BLOCK_ROWS``
    block of rows at a time and the stream yields its blocks, carrying one
    state row and one ``(vbar, kappa)`` row; it ends where ``vbar`` passes
    ``OVERFLOW_LIMIT``, and the plant runs no further than that. ``len()``
    and ``diverged`` count the rows streamed so far.

    The arguments are those of :func:`co_simulate`, plus ``rel_tol``.
    ``disturbances`` is None (zero) or anything whose ``[a:b]`` holds the
    vectors of steps ``a .. b-1``, such as an array or a broadcast row; the
    stream slices each block once, in step order, and checks it then, the
    first one on construction, so every refusal comes before any row.
    """

    #: What a run of :meth:`_blocks` leaves for ``len()``, ``diverged`` and ``report``.
    _END_STATE = ("_length", "diverged", "_first_violation", "_max_ratios")

    def __init__(self, system: SystemModel, params: AbstractionParams, seq: Sequence[int],
                 x0, disturbances=None, w_bar=None, horizon: int | None = None,
                 rel_tol: float = 1e-9):
        self._rel_tol = check_nonnegative(rel_tol, "rel_tol")
        self._seq, self._params, self._weight = seq, params, system.cost_weight
        self._horizon = horizon = _horizon(seq, horizon)
        x0 = _as_state(x0, system.n)
        self._w, self._bound = disturbances, system.disturbance_bound
        self._states = np.empty((min(CSV_BLOCK_ROWS, horizon) + 1, system.n))
        self._states[0] = x0
        self._first_block = self._disturbances(0)
        self._matrices = _mode_matrices(system, seq[:horizon])
        self._row = (params.alpha * check_nonnegative(_state_norm(x0), "x0_norm"), 1.0)
        self._w_bar = None if w_bar is None else w_bar_series(w_bar, horizon)
        for mode in self._matrices:  # a mode without a rate is refused before any row
            params.rate(int(mode))
        self._length, self.diverged = 0, False
        self._first_violation: int | None = None
        self._max_ratios: list[float] = []

    def __len__(self) -> int:
        return self._length

    def _disturbances(self, start: int):
        """Disturbances of the steps in the block of rows from ``start``, and their norms."""
        stop = min(start + CSV_BLOCK_ROWS, self._horizon)
        block = None if self._w is None else self._w[start:stop]
        w = _as_disturbances(block, stop - start, self._states.shape[1])
        return w, _disturbance_norms(w, self._bound, start)

    def _blocks(self):
        """``(start, states, sigma, |w_k|, |x_k|, vbar, kappa, cost bound or None)`` of each
        block of rows in turn, with the guarantee checked; ``states`` is a view that the
        next block overwrites."""
        params, seq, states, row, start = self._params, self._seq, self._states, self._row, 0
        while row is not None:
            w, w_norms = self._first_block if start == 0 else self._disturbances(start)
            gains = w_norms if self._w_bar is None else self._w_bar[start:start + len(w)]
            vbar, kappa = _rows(params, seq[start:start + len(w)], gains.tolist(), *row)
            if start:  # carry the last state of the previous block, which was full
                states[0] = states[-1]
            # the plant runs as far as the abstraction: past a diverged vbar it may overflow
            x = _run_plant(seq, start, w[:len(vbar) - 1], self._matrices, states)
            rows = min(len(vbar), CSV_BLOCK_ROWS)
            row = (vbar[rows], kappa[rows]) if rows < len(vbar) else None
            self._length, self.diverged = start + rows, len(vbar) <= len(w)
            x, vbar, kappa = x[:rows], np.array(vbar[:rows]), np.array(kappa[:rows])
            x_norm = row_norms(x)
            first, max_ratio = _guarantee(x_norm, vbar, self._rel_tol)
            if first is not None and self._first_violation is None:
                self._first_violation = start + first
            self._max_ratios.append(max_ratio)
            sigma: list[int | None] = [int(m) for m in seq[start:start + min(rows, len(w))]]
            w_norms = w_norms[:rows]
            if rows > len(w):  # the final row of a completed trace
                sigma.append(None)
                w_norms = np.append(w_norms, math.nan)
            cost = None if self._weight is None else cost_bound(self._weight, vbar)
            yield start, x, sigma, w_norms, x_norm, vbar, kappa, cost
            start += CSV_BLOCK_ROWS

    def csv_blocks(self):
        """Trace CSV lines, header first, one list per block of rows; run this once."""
        return csv_blocks(TRACE_COLUMNS, (_trace_cells(start, *cells)
                                          for start, _, *cells in self._blocks()))

    @property
    def report(self) -> GuaranteeReport:
        """The guarantee check of every row, once :meth:`csv_blocks` has been consumed."""
        first = self._first_violation
        return GuaranteeReport(holds=first is None, first_violation=first,
                               max_ratio=float(np.max(self._max_ratios)))
