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
from convrate.mk import ENUMERATION_CAP, _window_automaton, check_enumeration_caps
from convrate.nominal import OVERFLOW_LIMIT
from convrate.scheduler import SCHEDULE_COLUMNS, ExponentialTarget, SchedulerState
from convrate.sequences import EIG_CHUNK_BYTES, JsrResult
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


def row_norms(a) -> np.ndarray:
    """``|x|`` of each row, one row at a time.

    A row whose squared sum leaves the normal float range (subnormal, zero
    with a nonzero entry, or infinite) is divided by its largest entry
    first, unless that entry is infinite or NaN.
    """
    norms = []
    for row in np.asarray(a, dtype=float):
        with np.errstate(over="ignore"):
            squares = float(np.add.reduce(row * row))
        scale = float(np.max(np.abs(row))) if len(row) else 0.0
        if (squares < np.finfo(float).tiny or squares == math.inf) and 0.0 < scale < math.inf:
            scaled = row / scale
            norms.append(scale * math.sqrt(float(np.add.reduce(scaled * scaled))))
        else:
            norms.append(math.sqrt(squares))
    return np.array(norms)


def cli_disturbances(text: str, steps: int, n: int, bound):
    """``simulate --w`` as one array: ``(disturbances or None, w_bar or None)``.

    ``seed:<s>`` draws every normal in one ``standard_normal((steps, n))``
    call, then every uniform.
    """
    if text == "zero":
        return None, None
    if text.startswith("const:"):
        magnitude = float(text[len("const:"):])
        w = np.zeros((steps, n))
        w[:, 0] = magnitude
        return w, np.full(steps, magnitude)
    rng = np.random.default_rng(int(text[len("seed:"):]))
    w = rng.standard_normal((steps, n))
    norms = np.linalg.norm(w, axis=1)
    norms[norms == 0] = 1.0
    w /= norms[:, None]
    w *= bound * rng.random(steps)[:, None]
    return w, np.full(steps, bound)


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


def gate(params, target, now: float, w_bar_k: float):
    """The gate of one step in dict form: each mode's value after the step
    keyed by mode, the modes within the limit, and the alarm."""
    if isinstance(target, ExponentialTarget):
        limit = math.log(target.alpha_hat)
        after = {mode: now + ((math.log(rate) if rate else -math.inf) - math.log(target.rho_hat))
                 for mode, rate in params.rho.items()}
        alarms = ("kappa budget exceeded", "no admissible mode")
    else:
        limit = target.bound
        after = {mode: rate * now + params.beta * w_bar_k for mode, rate in params.rho.items()}
        alarms = ("state bound exceeded", "no admissible mode keeps the bound")
    admissible = frozenset(mode for mode, value in after.items() if value <= limit)
    alarm = None
    if now > limit:
        alarm = alarms[0]
    elif not admissible:
        alarm = alarms[1]
    return after, admissible, alarm


def schedule_rows(params, target, steps, policy, seed, w_bar, v0) -> list[tuple]:
    """The run harness with the dict-form gate, one step at a time: rows
    ``(k, chosen, admissible, kappa_hat, v_bar, alarm)``, mode 0 from the first alarm on."""
    exponential = isinstance(target, ExponentialTarget)
    now = 0.0 if exponential else v0
    rng = np.random.default_rng(seed)
    fired = False
    rows = []
    for k in range(steps):
        after, admissible, alarm = gate(params, target, now, w_bar[k])
        fired = fired or alarm is not None
        chosen = 0 if fired else policy(k, admissible, rng)
        now = after[chosen]
        if exponential:
            rows.append((k, chosen, admissible, SchedulerState(now).kappa_hat, None, alarm))
        else:
            rows.append((k, chosen, admissible, None, now, alarm))
    return rows


def random_policy():
    """The random policy with one scalar ``Generator.integers`` call per decision."""

    def choose(k, admissible, rng):
        order = sorted(admissible)
        return order[int(rng.integers(len(order)))]

    return choose


def schedule_csv_lines(records) -> list[str]:
    """The decision CSV, formatted one record at a time."""
    lines = [",".join(SCHEDULE_COLUMNS)]
    for record in records:
        cells = [
            str(record.k),
            str(record.chosen),
            "|".join(str(mode) for mode in sorted(record.admissible)),
            "" if record.kappa_hat is None else repr(float(record.kappa_hat)),
            "" if record.v_bar is None else repr(float(record.v_bar)),
            record.alarm or "",
        ]
        lines.append(",".join(cells))
    return lines


def window_count(mk, length: int) -> int:
    """Admissible binary sequences of ``length``, by their last K-1 symbols.

    Unlike the library's automaton, which counts a missing history as
    executes, this checks only the complete windows: a symbol is appended
    to a history of at most K-1 symbols, and once the window holds K
    symbols its skips are summed and its oldest symbol dropped.
    """
    counts = {(): 1}
    for _ in range(length):
        following: dict[tuple[int, ...], int] = {}
        for history, count in counts.items():
            for sym in (0, 1):
                window = history + (sym,)
                if len(window) == mk.K:
                    if sum(window) > mk.m_bar:
                        continue
                    window = window[1:]
                following[window] = following.get(window, 0) + count
        counts = following
    return sum(counts.values())


def averaged_spectral_radius(system, mk, length: int,
                             max_length: int = ENUMERATION_CAP) -> JsrResult:
    """The unpruned level-synchronous walk: every admissible leaf goes through ``eigvals``.

    Blocks of products at one depth are expanded by one stacked matmul per
    mode, skip child before execute child, so the frontier stays in
    descending order; ties go to the first maximiser in that order.
    """
    check_enumeration_caps(mk, length, max_length)
    if set(system.modes) == {0}:
        product = np.linalg.matrix_power(system.modes[0], length)
        radius = float(np.max(np.abs(np.linalg.eigvals(product))))
        return JsrResult(radius ** (1.0 / length), (0,) * length, 1)
    eig_chunk = max(1, EIG_CHUNK_BYTES // (8 * system.n**2))
    table = np.array(_window_automaton(mk, length))
    execute, skip = system.modes[0], system.modes[1]
    bits_dtype = np.int64 if length <= 63 else object
    best_radius = -1.0
    best_bits = 0
    count = 0
    stack = [(0, np.eye(system.n)[np.newaxis], np.array([0]), np.array([0], dtype=bits_dtype))]
    while stack:
        depth, products, states, bits = stack.pop()
        if len(states) > (eig_chunk if depth == length else max(1, eig_chunk // 2)):
            half = len(states) // 2
            stack.append((depth, products[half:], states[half:], bits[half:]))
            stack.append((depth, products[:half], states[:half], bits[:half]))
            continue
        if depth == length:
            radii = np.abs(np.linalg.eigvals(products)).max(axis=1)
            top = int(np.argmax(radii))
            if radii[top] > best_radius:
                best_radius = float(radii[top])
                best_bits = int(bits[top])
            count += len(radii)
            continue
        can_skip = table[1, states] >= 0
        at_execute = np.arange(len(states)) + np.cumsum(can_skip)
        at_skip = at_execute[can_skip] - 1
        size = len(states) + len(at_skip)
        child_products = np.empty((size,) + products.shape[1:])
        child_products[at_execute] = np.matmul(execute, products)
        child_products[at_skip] = np.matmul(skip, products[can_skip])
        child_states = np.empty(size, dtype=states.dtype)
        child_states[at_execute] = table[0, states]
        child_states[at_skip] = table[1, states[can_skip]]
        child_bits = np.empty(size, dtype=bits_dtype)
        child_bits[at_execute] = bits
        child_bits[at_skip] = bits[can_skip] | (1 << depth)
        stack.append((depth + 1, child_products, child_states, child_bits))
    sequence = tuple((best_bits >> i) & 1 for i in range(length))
    return JsrResult(best_radius ** (1.0 / length), sequence, count)
