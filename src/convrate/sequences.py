"""Mode-sequence machinery: validation, generation, transition products.

Sequences are plain tuples of mode ids. The (m,K) constraint is evaluated
over every window of K consecutive entries that lies fully inside the
sequence.

Counting, enumeration and the spectral-radius search run on one window
automaton (:func:`_window_automaton`). Its state is the bitmask of the last
K-1 symbols; appending a symbol forms a K-symbol window, and the step is
admissible iff that window holds at most ``m_bar`` skips. A sequence of at
least K symbols puts every symbol inside a complete window, so the test
applies from the first symbol on (missing history counts as executes) and
no walk enters a branch that cannot be completed; shorter sequences hold no
complete window and are unconstrained.

- :func:`count_mk_sequences` propagates a vector of per-state counts (exact
  integers) through the automaton, without enumerating.
- :func:`enumerate_mk_sequences` walks it depth-first, in ascending order.
- :func:`averaged_spectral_radius` walks it level by level: each frontier
  block is multiplied by both mode matrices with one stacked matmul, and
  the complete products go through the batched eigensolver. Blocks are
  capped in size and taken depth-first, so memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError, ResourceCapError, UnsupportedConfigurationError
from .mk import MkConstraint
from .model import SystemModel

#: Default cap on enumerated sequence length.
ENUMERATION_CAP = 24
#: Largest supported window for enumeration (automaton state is 2^(K-1)).
MAX_WINDOW = 12
#: Default byte budget of one block of products in the batched search.
EIG_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class SequenceValidation:
    """Falsy when some window overflows; reports the first violating window."""

    ok: bool
    violation_start: int | None = None
    window_sum: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _as_binary(seq: Sequence[int]) -> tuple[int, ...]:
    out = []
    for entry in seq:
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)):
            raise TypeError(f"sequence entries must be integers 0 or 1, got {entry!r}")
        if entry not in (0, 1):
            raise TypeError(f"sequence entries must be 0 or 1, got {entry}")
        out.append(int(entry))
    return tuple(out)


def validate_mk(seq: Sequence[int], mk: MkConstraint) -> SequenceValidation:
    """Check every complete K-window for at most ``m_bar`` skips."""
    seq = _as_binary(seq)
    K, m_bar = mk.K, mk.m_bar
    if len(seq) < K:
        return SequenceValidation(True)
    window = sum(seq[:K])
    if window > m_bar:
        return SequenceValidation(False, 0, window)
    for start in range(1, len(seq) - K + 1):
        window += seq[start + K - 1] - seq[start - 1]
        if window > m_bar:
            return SequenceValidation(False, start, window)
    return SequenceValidation(True)


def worst_case_sequence(mk: MkConstraint, length: int) -> tuple[int, ...]:
    """Front-loaded pattern skipping the first ``m_bar`` slots of each window.

    Attains the skip-count bound for every prefix and is admissible.
    """
    if length < 0:
        raise ParameterError(f"length must be >= 0, got {length}")
    return tuple(1 if (k % mk.K) < mk.m_bar else 0 for k in range(length))


def _window_automaton(mk: MkConstraint, length: int) -> np.ndarray:
    """Successor table of the (m,K) window automaton for sequences of ``length``.

    Only the states reachable from the empty history (state 0) are numbered,
    breadth-first, so a window that admits few skips stays small at any K.
    Entry ``[sym, state]`` is the state after appending ``sym``, or -1 when
    that step is inadmissible.
    """
    K = mk.K
    limit = mk.m_bar if length >= K else K
    keep = (1 << (K - 1)) - 1
    number = {0: 0}
    masks = [0]
    table: tuple[list[int], list[int]] = ([], [])
    for mask in masks:  # grows while it is walked: breadth-first discovery
        for sym in (0, 1):
            window = (mask << 1) | sym
            if window.bit_count() > limit:
                table[sym].append(-1)
                continue
            successor = window & keep
            if successor not in number:
                number[successor] = len(masks)
                masks.append(successor)
            table[sym].append(number[successor])
    return np.array(table)


def count_mk_sequences(mk: MkConstraint, length: int) -> int:
    """Exact number of admissible binary sequences of the given length."""
    if length < 0:
        raise ParameterError(f"length must be >= 0, got {length}")
    if length < mk.K:
        return 2**length  # no complete window
    table = _window_automaton(mk, length)
    steps = [(row[row >= 0], np.flatnonzero(row >= 0)) for row in table]
    counts = np.zeros(table.shape[1], dtype=object)  # Python ints: exact
    counts[0] = 1
    for _ in range(length):
        following = np.zeros_like(counts)
        for targets, sources in steps:
            np.add.at(following, targets, counts[sources])
        counts = following
    return int(counts.sum())


def _check_enumeration_caps(mk: MkConstraint, length: int, max_length: int) -> None:
    if length < 0:
        raise ParameterError(f"length must be >= 0, got {length}")
    if mk.K > MAX_WINDOW:
        raise ResourceCapError(
            f"window K={mk.K} exceeds the supported maximum {MAX_WINDOW} for enumeration"
        )
    if length > max_length:
        count = count_mk_sequences(mk, length)
        raise ResourceCapError(
            f"length {length} exceeds the enumeration cap {max_length}; "
            f"this would visit {count} sequences (reduce the length, or raise "
            "the cap to proceed)",
            estimated_count=count,
        )


def _paths(table: np.ndarray, depth: int) -> Iterator[tuple[int, ...]]:
    """Every admissible path of ``depth`` symbols from state 0, ascending."""
    table = table.tolist()
    symbols = [0] * depth
    stack = [(0, 0, 0)]  # (symbols fixed, state, the last fixed symbol)
    while stack:
        fixed, state, sym = stack.pop()
        if fixed:
            symbols[fixed - 1] = sym
        if fixed == depth:
            yield tuple(symbols)
            continue
        for sym in (1, 0):  # pushed last, popped first: ascending order
            successor = table[sym][state]
            if successor >= 0:
                stack.append((fixed + 1, successor, sym))


def enumerate_mk_sequences(mk: MkConstraint, length: int,
                           max_length: int = ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every admissible binary sequence of the given length once, ascending."""
    _check_enumeration_caps(mk, length, max_length)
    return _paths(_window_automaton(mk, length), length)


def admissible_prefixes(mk: MkConstraint, depth: int,
                        length: int | None = None) -> list[tuple[int, ...]]:
    """The first ``depth`` symbols of the admissible sequences of ``length``.

    ``length`` defaults to ``depth``. The prefixes come in ascending order,
    each once. Together the subtrees below them partition the admissible
    sequences of ``length``, which makes them natural units for parallel
    evaluation.
    """
    length = depth if length is None else length
    _check_enumeration_caps(mk, depth, depth)
    if depth > length:
        raise ParameterError(f"prefix depth {depth} exceeds sequence length {length}")
    return list(_paths(_window_automaton(mk, length), depth))


def random_mk_sequence(mk: MkConstraint, length: int, rng,
                       skip_prob: float = 0.5) -> tuple[int, ...]:
    """Random admissible sequence; skips with ``skip_prob`` where the window allows.

    The window check is applied from the first symbol on (not only once a
    window is complete), so the result never paints itself into a corner
    where the first complete window is forced to overflow.
    """
    if length < 0:
        raise ParameterError(f"length must be >= 0, got {length}")
    K, m_bar = mk.K, mk.m_bar
    out: list[int] = []
    for _ in range(length):
        window = out[-(K - 1):] if K > 1 else []
        can_skip = sum(window) + 1 <= m_bar
        out.append(1 if can_skip and rng.random() < skip_prob else 0)
    return tuple(out)


def transition_product(system: SystemModel, seq: Sequence[int]) -> np.ndarray:
    """Ordered product ``A_{sigma_{L-1}} ... A_{sigma_1} A_{sigma_0}``.

    The latest mode multiplies from the left; the empty sequence yields the
    identity. Undeclared modes raise ``KeyError``.
    """
    product = np.eye(system.n)
    for sym in seq:
        product = system.matrix(int(sym)) @ product
    return product


@dataclass(frozen=True)
class JsrResult:
    """Brute-force averaged spectral radius with a sequence attaining it."""

    rho_hat: float
    sequence: tuple[int, ...]
    count: int


def averaged_spectral_radius(system: SystemModel, mk: MkConstraint, length: int,
                             max_length: int = ENUMERATION_CAP,
                             prefix: Sequence[int] = (),
                             eig_chunk: int | None = None) -> JsrResult:
    """Maximum of ``spectral_radius(product)^(1/L)`` over admissible sequences.

    Walks the window automaton level by level. A block is a run of
    consecutive frontier nodes at one depth; expanding it multiplies every
    product by both mode matrices in one stacked matmul, placing each
    node's skip child before its execute child, so the frontier stays in
    descending lexicographic order (first symbol most significant). A block
    of complete products goes through the batched eigensolver.

    ``eig_chunk`` caps the products per block; by default, as many as fit
    in ``EIG_CHUNK_BYTES``. A block is halved until its children fit in
    one block, and the halves are taken depth-first, so the walk holds at
    most one block of products per level.

    Ties go to the first maximiser in descending order: the first
    ``argmax`` within a block, a strictly larger radius across blocks.

    ``prefix`` pins the first symbols, restricting the search to one
    subtree (the parallel work-unit contract); results from a prefix
    partition combine by ``sum`` on ``count`` and by ``max`` on ``rho_hat``,
    taking the prefixes in descending order to keep the tie rule.
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    _check_enumeration_caps(mk, length, max_length)
    declared = set(system.modes)
    if declared == {0}:
        if any(int(s) != 0 for s in prefix):
            raise ParameterError("prefix uses mode 1 but the system only declares mode 0")
        product = np.linalg.matrix_power(system.modes[0], length)
        radius = float(np.max(np.abs(np.linalg.eigvals(product))))
        return JsrResult(radius ** (1.0 / length), (0,) * length, 1)
    if declared != {0, 1}:
        raise UnsupportedConfigurationError(
            f"(m,K) sequence search covers binary mode sets, got modes {sorted(declared)}"
        )
    if eig_chunk is None:
        eig_chunk = max(1, EIG_CHUNK_BYTES // (8 * system.n**2))
    if eig_chunk < 1:
        raise ParameterError(f"eig_chunk must be >= 1, got {eig_chunk}")

    prefix = _as_binary(prefix)
    if len(prefix) > length:
        raise ParameterError(f"prefix length {len(prefix)} exceeds sequence length {length}")
    if not validate_mk(prefix, mk):
        raise ParameterError("prefix violates the (m,K) constraint")
    table = _window_automaton(mk, length)
    state = 0
    for sym in prefix:
        state = int(table[sym, state])
        if state < 0:
            raise ParameterError("no admissible sequence extends the given prefix")
    execute, skip = system.modes[0], system.modes[1]
    # bit i of a node's packed bits is symbol i; wider than int64 past 63 symbols
    bits_dtype = np.int64 if length <= 63 else object

    best_radius = -1.0
    best_bits = 0
    count = 0
    # blocks: (depth, products, automaton states, packed bits), last popped first
    stack = [(len(prefix), transition_product(system, prefix)[np.newaxis],
              np.array([state]),
              np.array([sum(sym << i for i, sym in enumerate(prefix))], dtype=bits_dtype))]
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
        # an execute adds no skip, so every reachable state may execute; each
        # execute child lands after its own and all earlier skip children
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
