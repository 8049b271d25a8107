"""Mode-sequence machinery: validation, generation, transition products.

Sequences are plain tuples of mode ids. The (m,K) constraint is evaluated
over every window of K consecutive entries that lies fully inside the
sequence.

Counting, enumeration and the spectral-radius search run on one window
automaton (:func:`convrate.mk._window_automaton`). It lives in
:mod:`convrate.mk` with the count and the enumeration caps, so that a
refused search loads no numpy; the search converts its table with
``np.array``.

- :func:`count_mk_sequences` propagates per-state completion counts (exact
  integers) through the automaton, without enumerating; the search's
  ``count`` is that number, since every admissible sequence is either
  visited or pruned.
- :func:`enumerate_mk_sequences` walks it depth-first, in ascending order.
- :func:`averaged_spectral_radius` walks it level by level: each frontier
  block is multiplied by both mode matrices with one stacked matmul, and
  the complete products go through the batched eigensolver. One byte
  budget, ``EIG_CHUNK_BYTES``, caps the walk's blocks and the exact part
  of the bound tables. Blocks are taken depth-first, so the search holds
  at most one block per level, and the budget is cache-sized, so that
  holding costs little beyond numpy itself.

The search is a branch and bound (Gripenberg, LAA 234, 1996, on the
constrained-switching automaton of Philippe et al., Automatica 72, 2016).
One walk runs twice. Restricted to the admissible leaves that tile a word
of period at most ``INCUMBENT_PERIOD``, it sets the first incumbent;
unrestricted, it raises the incumbent to each larger leaf it visits. A
table bounds, for each automaton state and remaining length, the spectral
norm of every admissible completion's product, exactly up to
``NORM_BLOCK`` symbols and chained block by block beyond; the same table on
the modes' absolute values bounds the rounding the walk adds. A node whose
Frobenius norm times that bound falls below the incumbent by more than
``PRUNE_MARGIN`` cannot hold the maximiser, and its completions are never
visited; below ``PRUNE_FLOOR`` the incumbent makes the same test drop
nothing. In the unrestricted walk, a node with the automaton state and the
product bits of an earlier node of its block is merged into it, so where
products coincide the walk is over a DAG: the demo's (1,2) L=32 search
sends 36 matrices to ``eigvals``, not 835,509. The result is bit for bit
that of visiting every leaf: :func:`averaged_spectral_radius` gives the
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError
from .mk import (
    ENUMERATION_CAP,
    MkConstraint,
    _check_length,
    _window_automaton,
    check_enumeration_caps,
    count_mk_sequences,
)
from .model import SystemModel

#: Byte budget of one block of products in the search: the walk's blocks and
#: the exact part of the bound tables. It is sized to a core's cache, so a
#: block and its transients (children, norms, eigensolver work) cost little
#: beyond numpy itself, while a block still holds enough products for one
#: stacked matmul or eigvals call to amortise its overhead.
#: The demo's (1,2) L=24 search peaks at 2.7 MiB under tracemalloc (10.5 MiB
#: at 4 MiB), with the same results.
EIG_CHUNK_BYTES = 1 << 19
#: Relative slack of the search's pruning test. It must cover the rounding
#: of the Frobenius norms, of the bound tables and of the eigensolver's
#: backward error, each a few multiples of n^2 u (u = 2^-53) or less; the
#: matmul rounding along the walk is bounded separately. 1e-6 leaves a
#: factor of more than 1e3 at n = 1000.
PRUNE_MARGIN = 1e-6
#: The pruning test's rounding model assumes no underflow. So an incumbent
#: below this prunes nothing, and a node whose squared Frobenius norm is
#: below it (squares of its entries may have flushed to zero) is kept.
PRUNE_FLOOR = 2.0**-900
#: Longest period of the words whose tilings the first, restricted walk visits. The
#: second walk raises the incumbent to each larger leaf it finds, so the tilings need
#: only start it: over the benchmark's n=8 (3,6) L=20 searches at seeds 1-15, period 6
#: took 0.53 s in all, period 10 0.66 s. Without the tilings, the walk's first leaf
#: block starts it, and the matrices sent to ``eigvals`` rise from 22,487 to 38,611
#: over those searches, from 76 to 4,224 for the demo's modes at (2,4) L=24, and
#: from 13,616 to 156,881 over 70 random searches (n 2-8, K up to 12, L 12 and 18).
INCUMBENT_PERIOD = 6
#: Word length up to which the norm bound tables are exact.
NORM_BLOCK = 4
#: Probability that :func:`random_mk_sequence` skips where the window allows it.
SKIP_PROB = 0.5


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
    _check_length(length)
    window = (1,) * mk.m_bar + (0,) * mk.m
    return (window * -(-length // mk.K))[:length]


def _paths(table: tuple[list[int], list[int]], depth: int) -> Iterator[tuple[int, ...]]:
    """Every admissible path of ``depth`` symbols from state 0, ascending."""
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


def enumerate_mk_sequences(mk: MkConstraint, length: int) -> Iterator[tuple[int, ...]]:
    """Yield every admissible binary sequence of the given length once, ascending."""
    _check_length(length)
    check_enumeration_caps(mk, length, ENUMERATION_CAP)
    return _paths(_window_automaton(mk, length), length)


def random_mk_sequence(mk: MkConstraint, length: int, rng) -> tuple[int, ...]:
    """Random admissible sequence; skips with ``SKIP_PROB`` where the window allows.

    The window check is applied from the first symbol on (not only once a
    window is complete), so the result never paints itself into a corner
    where the first complete window is forced to overflow.
    """
    _check_length(length)
    K, m_bar = mk.K, mk.m_bar
    out: list[int] = []
    for _ in range(length):
        window = out[-(K - 1):] if K > 1 else []
        can_skip = sum(window) + 1 <= m_bar
        out.append(1 if can_skip and rng.random() < SKIP_PROB else 0)
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


def _norm_table(pair: tuple[np.ndarray, np.ndarray], table: np.ndarray, length: int,
                block: int) -> np.ndarray:
    """Bounds on ``||W||_2`` over the admissible completions, by remaining length and state.

    Entry ``[r, s]`` bounds the spectral norm of the product of every
    admissible word of ``r`` symbols that starts at state ``s``. Up to
    ``block`` symbols it is the largest norm over those words; past that a
    word's first ``block`` symbols are chained onto the bound for the rest,
    which submultiplicativity allows. A product that overflows gives an
    infinite bound, and no entry is below ``PRUNE_FLOOR``.
    """
    entries = np.empty((length + 1, table.shape[1]))
    entries[0] = 1.0  # the empty word: the identity
    products = np.eye(pair[0].shape[0])[np.newaxis]
    ends = np.arange(table.shape[1])[np.newaxis]  # [word, start state], -1 once dead
    # by word, not by the walk: a word's product is the same from every start state,
    # and the walk run from each of up to 2,048 states would hold that many copies
    for r in range(1, min(block, length) + 1):
        products = np.concatenate([np.matmul(mode, products) for mode in pair])
        ends = np.concatenate([np.where(ends >= 0, table[sym, ends], -1) for sym in (0, 1)])
        finite = np.isfinite(products).all(axis=(1, 2))
        norms = np.full(len(products), np.inf)
        norms[finite] = np.linalg.norm(products[finite], 2, axis=(1, 2))  # scales: no underflow
        entries[r] = np.where(ends >= 0, norms[:, np.newaxis], -np.inf).max(axis=0)
    for r in range(block + 1, length + 1):
        entries[r] = np.where(ends >= 0, norms[:, np.newaxis] * entries[r - block][ends],
                              -np.inf).max(axis=0)
    return np.maximum(entries, PRUNE_FLOOR)  # a product that underflowed bounds nothing


def averaged_spectral_radius(system: SystemModel, mk: MkConstraint, length: int,
                             max_length: int = ENUMERATION_CAP) -> JsrResult:
    """Maximum of ``spectral_radius(product)^(1/L)`` over admissible sequences.

    Walks the window automaton level by level. A block is a run of
    consecutive frontier nodes at one depth; expanding it multiplies every
    product by both mode matrices in one stacked matmul, placing each
    node's skip child before its execute child, so the frontier stays in
    descending lexicographic order (first symbol most significant). A block
    of complete products goes through the batched eigensolver.

    A block holds as many products as fit in ``EIG_CHUNK_BYTES``, the one
    byte budget, which the exact part of the bound tables keeps to as
    well. A block is halved until its children fit in one block, and the
    halves are taken depth-first, so the walk holds at most one block of
    products per level. The budget is cache-sized: the results do not
    depend on how the frontier is split, and a larger block only raises
    the peak memory.

    Ties go to the first maximiser in descending order: the first
    ``argmax`` within a block, a strictly larger radius across blocks.

    Branch and bound. One walk (:func:`_walk`) runs twice: over the
    tilings of the words of period at most ``INCUMBENT_PERIOD``, where its
    largest leaf radius starts the incumbent, then over every word,
    raising the incumbent to each larger radius it finds at a leaf. In
    either walk a node at state ``s`` with product ``P`` and ``r`` symbols
    left, a leaf included (``r = 0``), is dropped when
    ``||P||_F * B[r, s] < incumbent * (1 - PRUNE_MARGIN)``; its completions
    are never visited. ``count`` is :func:`count_mk_sequences`, since every
    admissible sequence is either a visited leaf or below a dropped node.

    - ``B[r, s] = U[r, s] + 2 eta_r V[r, s]``, where ``U`` and ``V`` are
      :func:`_norm_table` of the modes and of their entrywise absolute
      values, ``eta_r = (1 + gamma_n)^r - 1`` and
      ``gamma_n = n u / (1 - n u)``, ``u = 2^-53``.
    - The walk forms a leaf below the node as ``W P`` for its completion
      ``W``. With rounding it gets ``W P + E``, ``|E| <= eta_r |W| |P|``
      entrywise, and ``U``'s own products carry the same error once more.
      So the leaf's Frobenius norm is at most ``||P||_F * B[r, s]``.
    - ``eigvals`` balances the leaf, which does not raise its Frobenius
      norm, and returns the exact eigenvalues of the balanced leaf plus a
      backward error of relative size ``p(n) u``. Each ``|lambda|`` it
      returns is therefore at most the leaf's Frobenius norm times
      ``1 + p(n) u``. ``PRUNE_MARGIN`` covers that factor and the rounding
      of the norms and of the tables.

    So a dropped node holds only leaves whose radius, as the walk computes
    it, is below the incumbent, and the incumbent, found by the same walk,
    never exceeds the walk's maximum. Each walk still visits every leaf
    that attains its maximum, in the same order: the restricted one keeps
    its maximum, and ``rho_hat``, the attaining sequence, the tie rule and
    ``count`` are exactly those of the unpruned walk. Where underflow could
    break that argument nothing is dropped (``PRUNE_FLOOR``); an incumbent
    below it, as with nilpotent modes, sets a zero threshold, which drops
    nothing.

    Merging. In the unrestricted walk, a node with the state and the
    product bits of an earlier node of its block is dropped too; the first
    in frontier order is kept. The two have the same subtree, leaf for leaf
    and bit for bit, with the same pruning decisions under a floor that
    only rises, and the dropped node's leaves come after the kept node's in
    descending order. So under the first-maximiser rule they can neither
    hold the result nor raise the incumbent first, and below a pruned node
    they are below the incumbent: the result stays that of the unpruned
    walk. Bits that differ, as ``-0.0`` and ``+0.0``, never merge, and
    nothing is kept across blocks. Only a block in which two products share
    their top-left entry is searched (orthogonal modes share the squared
    norm in nearly every block): its rows of state and product bits are
    sorted stably by an integer fingerprint, and a row equal to the one
    before it is a repeat. A missed repeat costs work, not the result.
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    check_enumeration_caps(mk, length, max_length)
    declared = set(system.modes)
    if declared == {0}:
        product = np.linalg.matrix_power(system.modes[0], length)
        radius = float(np.max(np.abs(np.linalg.eigvals(product))))
        return JsrResult(radius ** (1.0 / length), (0,) * length, 1)
    if declared != {0, 1}:
        raise UnsupportedConfigurationError(
            f"(m,K) sequence search covers binary mode sets, got modes {sorted(declared)}"
        )
    n = system.n
    chunk = max(1, EIG_CHUNK_BYTES // (8 * n**2))

    table = np.array(_window_automaton(mk, length))
    execute, skip = system.modes[0], system.modes[1]
    block = max(1, min(NORM_BLOCK, chunk.bit_length() - 1))  # 2^block products
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1.0 - n * unit)
    eta = np.expm1(np.arange(length + 1) * np.log1p(gamma))
    with np.errstate(over="ignore", invalid="ignore"):  # its words need not be leaves
        bound = (_norm_table((execute, skip), table, length, block)
                 + 2.0 * eta[:, np.newaxis]
                 * _norm_table((np.abs(execute), np.abs(skip)), table, length, block))
    floor = _walk(execute, skip, table, bound, length, chunk, 0.0, INCUMBENT_PERIOD)[2]
    best_radius, best_bits, _ = _walk(execute, skip, table, bound, length, chunk, floor, 0)
    sequence = tuple((best_bits >> i) & 1 for i in range(length))
    return JsrResult(best_radius ** (1.0 / length), sequence, count_mk_sequences(mk, length))


def _walk(execute: np.ndarray, skip: np.ndarray, table: np.ndarray, bound: np.ndarray,
          length: int, chunk: int, floor: float, period: int) -> tuple[float, int, float]:
    """The walk of :func:`averaged_spectral_radius` from ``floor``: its best leaf's radius
    and packed bits, and the floor they set. With ``period > 0`` it visits only the
    prefixes of the words of period at most ``period``, and merges nothing: its filter
    reads the bits, so two nodes with equal products may have different subtrees."""
    n = execute.shape[0]
    # bit i of a node's packed bits is symbol i; wider than int64 past 63 symbols
    bits_dtype = np.int64 if length <= 63 else object
    # fingerprint weights: odd multiples of 2^64 / phi; the sums wrap
    weights = np.arange(1, 2 * n * n + 3, 2) * -0x61C8864680B583EB

    best_radius = -1.0
    best_bits = 0
    # blocks: (depth, products, automaton states, packed bits), last popped first
    stack = [(0, np.eye(n)[np.newaxis], np.array([0]), np.array([0], dtype=bits_dtype))]
    while stack:
        depth, products, states, bits = stack.pop()
        if len(states) > (chunk if depth == length else max(1, chunk // 2)):
            half = len(states) // 2
            stack.append((depth, products[half:], states[half:], bits[half:]))
            stack.append((depth, products[:half], states[:half], bits[:half]))
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: kept
            squares = np.einsum("kij,kij->k", products, products)
            dropped = ((np.sqrt(squares) * bound[length - depth, states] < floor)
                       & (squares >= PRUNE_FLOOR))
        corners = np.sort(products[:, 0, 0])
        if period:  # symbol i repeats symbol i - p for some p <= period
            dropped |= ~np.any([((bits ^ bits >> p) & ((1 << max(0, depth - p)) - 1)) == 0
                                for p in range(1, period + 1)], axis=0)
        elif (corners[1:] == corners[:-1]).any():  # repeats share every entry
            rows = np.column_stack([states, products.reshape(len(states), -1).view(np.int64)])
            order = np.argsort(rows @ weights, kind="stable")
            rows = rows[order]
            dropped[order[1:][(rows[1:] == rows[:-1]).all(axis=1)]] = True
        if dropped.any():
            kept = ~dropped
            products, states, bits = products[kept], states[kept], bits[kept]
            if not len(states):
                continue
        if depth == length:
            radii = np.abs(np.linalg.eigvals(products)).max(axis=1)
            top = int(np.argmax(radii))
            if radii[top] > best_radius:
                best_radius = float(radii[top])
                best_bits = int(bits[top])
                if best_radius >= PRUNE_FLOOR:  # the running incumbent
                    floor = max(floor, best_radius * (1.0 - PRUNE_MARGIN))
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
    return best_radius, best_bits, floor
