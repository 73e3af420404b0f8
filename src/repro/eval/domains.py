"""Quantifier-domain machinery for the restricted quantifier kinds.

The paper's collapse theorems replace natural quantification over all of
``Sigma*`` by quantification over database-bounded domains:

* PREFIX (Proposition 2 / Theorem 1, for S, S_left, S_reg): strings within
  a bounded right-extension of the prefix closure of the active domain and
  the current free values — concretely ``{ p . sigma | p in prefix(adom u
  values), |sigma| <= slack }``;
* LENGTH (Proposition 4 / Theorem 2, for S_len): strings of length at most
  ``max length of adom u values, plus slack``.

Both engines share these definitions, as explicit enumerations (direct
engine) and as automata (automata engine).  The ``slack`` is the bounded
headroom the paper's proofs call ``k`` (Lemmas 1 and 2); see
:func:`repro.eval.collapse.default_slack` for how a formula's slack is
chosen.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.automata.dfa import DFA
from repro.automata.nfa import EPSILON, NFA
from repro.automatic.convolution import PAD, columns
from repro.automatic.relation import RelationAutomaton
from repro.strings import prefix_closure
from repro.strings.alphabet import Alphabet

# --------------------------------------------------------------- enumerations


def prefix_domain(
    alphabet: Alphabet, base: Iterable[str], slack: int
) -> Iterator[str]:
    """Enumerate the PREFIX domain: prefix-closure of ``base`` extended by
    at most ``slack`` symbols on the right.  No duplicates."""
    closed = sorted(prefix_closure(base), key=lambda s: (len(s), s))
    if not closed:
        closed = [""]
    seen: set[str] = set()
    for p in closed:
        for sigma in alphabet.strings_up_to(slack):
            candidate = p + sigma
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def length_domain(
    alphabet: Alphabet, base: Iterable[str], slack: int
) -> Iterator[str]:
    """Enumerate the LENGTH domain: all strings of length at most
    ``max(|b|) + slack`` — exponential, exactly as Theorem 2 prices it."""
    max_len = max((len(b) for b in base), default=0)
    yield from alphabet.strings_up_to(max_len + slack)


# ------------------------------------------------------------------- automata


def extension_set_relation(
    alphabet: Alphabet, base: Iterable[str], slack: int
) -> RelationAutomaton:
    """Unary relation ``{ p . sigma | p in prefix(base), |sigma| <= slack }``.

    Built as the prefix-closure trie with a ``slack``-step free tail.
    """
    base = list(base)
    # Trie of the base strings; every trie state is accepting (prefix
    # closure).
    root = 0
    nxt = 1
    trie: dict[int, dict[str, int]] = {}
    for s in base:
        q = root
        for ch in s:
            delta = trie.setdefault(q, {})
            if ch not in delta:
                delta[ch] = nxt
                nxt += 1
            q = delta[ch]
    trie_states = list(range(nxt))
    # Tail: a chain of `slack` states reading any symbol.
    tail_states = [("tail", i) for i in range(slack + 1)]
    transitions: dict[object, dict[object, set[object]]] = {}
    for q in trie_states:
        delta: dict[object, set[object]] = {}
        for ch, t in trie.get(q, {}).items():
            delta.setdefault((ch,), set()).add(t)
        if slack > 0:
            for ch in alphabet.symbols:
                delta.setdefault((ch,), set()).add(("tail", 1))
        if delta:
            transitions[q] = delta
    for i in range(1, slack):
        transitions[("tail", i)] = {
            (ch,): {("tail", i + 1)} for ch in alphabet.symbols
        }
    nfa = NFA(
        columns(alphabet, 1),
        trie_states + tail_states,
        [root],
        trie_states + tail_states[1:],
        transitions,
    )
    return RelationAutomaton(alphabet, 1, nfa.to_min_dfa())


def near_prefix_relation(alphabet: Alphabet, slack: int) -> RelationAutomaton:
    """Binary relation ``{(x, y) | |x| - |x ^ y| <= slack}``.

    With ``slack = 0`` this is exactly the prefix order; larger slack lets
    ``x`` stick out by a bounded amount past its common prefix with ``y``.
    """
    cols = columns(alphabet, 2)
    match = "match"  # still inside the common prefix of x and y
    done = "done"  # x has ended; y may continue freely
    counts = list(range(1, slack + 1))  # symbols of x past the divergence
    states: list[object] = [match, done] + counts
    transitions: dict[object, dict[object, object]] = {q: {} for q in states}
    for c in cols:
        x, y = c
        if x is PAD:
            # x has ended; y continues freely. Any live state stays fine.
            transitions[match][c] = done
            transitions[done][c] = done
            for i in counts:
                transitions[i][c] = done
            continue
        # x is a symbol.
        if x == y:
            transitions[match][c] = match
        elif slack >= 1:
            # Divergence (y differs here or has ended): overhang starts.
            transitions[match][c] = 1
        # Once past the divergence every x symbol counts, whatever y does.
        for i in counts[:-1]:
            transitions[i][c] = i + 1
    accepting = [match, done] + counts
    dfa = DFA(cols, states, match, accepting, transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def length_bound_set_relation(alphabet: Alphabet, max_len: int) -> RelationAutomaton:
    """Unary relation of all strings of length at most ``max_len``."""
    cols = columns(alphabet, 1)
    transitions = {
        i: {(ch,): i + 1 for ch in alphabet.symbols} for i in range(max_len)
    }
    dfa = DFA(cols, range(max_len + 1), 0, range(max_len + 1), transitions)
    return RelationAutomaton(alphabet, 1, dfa)


def length_le_plus_relation(alphabet: Alphabet, slack: int) -> RelationAutomaton:
    """Binary relation ``{(x, y) | |x| <= |y| + slack}``."""
    cols = columns(alphabet, 2)
    # State: how far x has run beyond y (0 while y alive), or "ok" when y
    # outlives x.
    ok = "ok"
    states: list[object] = [ok] + list(range(slack + 1))
    transitions: dict[object, dict[object, object]] = {q: {} for q in states}
    for c in cols:
        x, y = c
        if x is not PAD and y is not PAD:
            transitions[0][c] = 0
        if x is PAD and y is not PAD:
            transitions[0][c] = ok
            transitions[ok][c] = ok
        if x is not PAD and y is PAD:
            for i in range(slack):
                transitions[i][c] = i + 1
    dfa = DFA(cols, states, 0, states, transitions)
    return RelationAutomaton(alphabet, 2, dfa)
