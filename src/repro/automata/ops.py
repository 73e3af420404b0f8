"""Boolean operations and equivalence on DFAs.

Products are lazy pipelines of :mod:`repro.automata.kernel` (only
reachable, non-pruned product states are ever built) and equivalence is
a union-find Hopcroft–Karp merge with no product construction at all.
"""

from __future__ import annotations

from repro.automata import kernel
from repro.automata.dfa import DFA


def intersection(left: DFA, right: DFA) -> DFA:
    """DFA for ``L(left) & L(right)``."""
    return kernel.product(left, right, "and")


def union(left: DFA, right: DFA) -> DFA:
    """DFA for ``L(left) | L(right)``."""
    return kernel.product(left, right, "or")


def difference(left: DFA, right: DFA) -> DFA:
    """DFA for ``L(left) \\ L(right)``."""
    return kernel.product(left, right, "diff")


def symmetric_difference_empty(left: DFA, right: DFA) -> bool:
    """True iff the two automata accept exactly the same language.

    Decided by union-find Hopcroft–Karp state merging — near-linear in
    the reachable merged pairs, with cooperative deadline checkpoints —
    instead of building the symmetric-difference product.
    """
    return kernel.equivalent(left, right)


def equivalent(left: DFA, right: DFA) -> bool:
    """Language equivalence over the union alphabet."""
    return symmetric_difference_empty(left, right)
