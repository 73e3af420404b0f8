"""Star-freeness via Schuetzenberger's theorem.

A regular language is *star-free* (expressible with union, complement and
concatenation but no Kleene star, equivalently FO[<]-definable) iff the
transition monoid of its minimal DFA is **aperiodic**: every element ``m``
satisfies ``m^k = m^{k+1}`` for some ``k``.

The paper leans on this characterization twice:

* Section 4: the subsets of ``Sigma*`` definable over S are exactly the
  star-free languages (so SQL ``LIKE``, which compiles to star-free
  automata, fits in RC(S), while parity — a non-aperiodic language — does
  not, witnessing Corollary 2);
* Section 7: S_reg definable subsets of ``Sigma*`` are exactly the regular
  languages, so a regular-but-not-star-free language such as ``(aa)*``
  separates RC(S_reg) from RC(S_left).
"""

from __future__ import annotations

from collections import deque

from repro.automata.dfa import DFA
from repro.engine.deadline import checkpoint


def transition_monoid(dfa: DFA) -> set[tuple[int, ...]]:
    """The transition monoid of a DFA.

    Elements are total functions ``states -> states`` represented as tuples
    indexed by state number, the dead state being number ``n``; the monoid
    is generated by the one-symbol transition functions under
    composition.  Exponential in the worst case; intended for the small
    automata arising from patterns and examples, and a deadline
    checkpoint per element bounds the rest
    (:mod:`repro.engine.deadline`).
    """
    dead = dfa.num_states
    edges = list(dfa.edges())
    # The completed automaton has the dead state iff a transition is missing.
    n = dead + 1 if len(edges) < dead * len(dfa.alphabet) else dead
    rows = {sym: [dead] * n for sym in dfa.alphabet}
    for q, sym, t in edges:
        rows[sym][q] = t
    generators = [tuple(row) for row in rows.values()]
    identity = tuple(range(n))
    monoid: set[tuple[int, ...]] = {identity}
    queue = deque([identity])
    while queue:
        f = queue.popleft()
        checkpoint()
        for g in generators:
            # Composition: first f, then g.
            h = tuple(g[f[q]] for q in range(n))
            if h not in monoid:
                monoid.add(h)
                queue.append(h)
    return monoid


def _is_idempotent_power(f: tuple[int, ...], bound: int) -> bool:
    """True iff ``f^k = f^(k+1)`` for some ``k <= bound``."""
    n = len(f)
    power = f
    for _ in range(bound + 1):
        checkpoint()
        nxt = tuple(f[power[q]] for q in range(n))
        if nxt == power:
            return True
        power = nxt
    return False


def is_aperiodic(dfa: DFA) -> bool:
    """True iff the minimal DFA of ``dfa``'s language has an aperiodic monoid."""
    monoid = transition_monoid(dfa.minimize())
    bound = len(monoid)
    return all(_is_idempotent_power(f, bound) for f in monoid)


def is_star_free(dfa: DFA) -> bool:
    """True iff the language of ``dfa`` is star-free (Schuetzenberger)."""
    return is_aperiodic(dfa)
