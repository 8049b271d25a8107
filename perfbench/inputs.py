"""Workload parameters and independent reference counts.

The constants here are shared by the timed CLI run (``run.py``) and the
traced run (``layers.py``), so both execute the same work. This module
imports nothing heavy: ``layers.py`` imports it before it times the
program's import.
"""

from __future__ import annotations


#: Documents each workload reads, by generator name.
WORKLOAD_DOCUMENTS = {
    "mk-search": ("jsr8",),
    "online-gate": ("gate4",),
    "design-verify": ("jordan4", "sys32"),
}

# Command parameters shared by the timed CLI run and the traced run.
#: (m, K, length) of the seeded search, and of the refused one.
SEARCH = (3, 6, 20)
REFUSAL = (6, 12, 200)
#: Constraints and length of the searches inside repro-counterexample.
DEMO_SEARCHES = ((1, 2, 24), (2, 4, 24))
SCHEDULE_STEPS = 100_000
GATE_RHO = 0.6
RHO_HAT, ALPHA_HAT = 0.9, 10.0
C_BOUND, V0, W_BAR = 5.0, 1.0, 0.1
#: Just above the Jordan block's spectral radius 0.5: k_tilde is ~4.8e4.
JORDAN_RHO = 0.50012
SIMULATE_STEPS = 200_000
#: (m, K) of the mk-worst pattern the simulation follows.
SIMULATE_PATTERN = (1, 2)


def mk_counts(m: int, K: int, length: int) -> list[int]:
    """Admissible (m,K) binary sequences of each length 0..length.

    An independent reference for the program's counts: the state is the
    bitmask of the last K-1 symbols, and a symbol is refused only when it
    completes a window of K with more than K-m ones.
    """
    m_bar, width = K - m, K - 1
    keep = (1 << width) - 1
    states = {0: 1}
    counts = [1]
    for depth in range(length):
        complete = depth >= width
        successors: dict[int, int] = {}
        for mask, count in states.items():
            ones = mask.bit_count()
            for sym in (0, 1):
                if complete and ones + sym > m_bar:
                    continue
                key = ((mask << 1) | sym) & keep
                successors[key] = successors.get(key, 0) + count
        states = successors
        counts.append(sum(states.values()))
    return counts
