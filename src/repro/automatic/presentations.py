"""Automata presentations of the paper's atomic relations.

Each function returns the :class:`RelationAutomaton` of one atomic relation
of S, S_len, S_left or S_reg over a given alphabet.  Together these form an
*automatic presentation* of S_len (and hence of all its reducts), which is
what makes the decision procedures of Sections 5-7 executable.

Track convention: for binary relations the first track is the first
argument.  All relations are normalized minimal DFAs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.automata.dfa import DFA
from repro.automatic.convolution import PAD, columns
from repro.automatic.relation import RelationAutomaton
from repro.strings.alphabet import Alphabet


def equality(alphabet: Alphabet) -> RelationAutomaton:
    """``{(x, y) | x = y}``."""
    cols = columns(alphabet, 2)
    eq_cols = [c for c in cols if c[0] == c[1] and c[0] is not PAD]
    transitions = {0: {c: 0 for c in eq_cols}}
    dfa = DFA(cols, [0], 0, [0], transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def prefix(alphabet: Alphabet, strict: bool = False) -> RelationAutomaton:
    """The prefix order ``x <<= y`` (or ``x << y`` when ``strict``)."""
    cols = columns(alphabet, 2)
    transitions: dict[int, dict[object, int]] = {0: {}, 1: {}}
    for c in cols:
        a, b = c
        if a is not PAD and a == b:
            transitions[0][c] = 0
        if a is PAD and b is not PAD:
            transitions[0][c] = 1
            transitions[1][c] = 1
    accepting = [1] if strict else [0, 1]
    dfa = DFA(cols, [0, 1], 0, accepting, transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def extends_by_one(alphabet: Alphabet) -> RelationAutomaton:
    """``x < y``: ``y`` extends ``x`` by exactly one symbol."""
    cols = columns(alphabet, 2)
    transitions: dict[int, dict[object, int]] = {0: {}}
    for c in cols:
        a, b = c
        if a is not PAD and a == b:
            transitions[0][c] = 0
        if a is PAD and b is not PAD:
            transitions[0][c] = 1
    dfa = DFA(cols, [0, 1], 0, [1], transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def equal_length(alphabet: Alphabet) -> RelationAutomaton:
    """``el(x, y)``: ``|x| = |y|`` (no PAD column ever occurs)."""
    cols = columns(alphabet, 2)
    both = [c for c in cols if c[0] is not PAD and c[1] is not PAD]
    dfa = DFA(cols, [0], 0, [0], {0: {c: 0 for c in both}})
    return RelationAutomaton(alphabet, 2, dfa)


def length_le(alphabet: Alphabet, strict: bool = False) -> RelationAutomaton:
    """``|x| <= |y|`` (or ``<`` when ``strict``)."""
    cols = columns(alphabet, 2)
    transitions: dict[int, dict[object, int]] = {0: {}, 1: {}}
    for c in cols:
        a, b = c
        if a is not PAD and b is not PAD:
            transitions[0][c] = 0
        if a is PAD and b is not PAD:
            transitions[0][c] = 1
            transitions[1][c] = 1
    accepting = [1] if strict else [0, 1]
    dfa = DFA(cols, [0, 1], 0, accepting, transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def last_symbol(alphabet: Alphabet, a: str) -> RelationAutomaton:
    """The unary predicate ``L_a``: the last symbol of ``x`` is ``a``."""
    if a not in alphabet:
        raise ValueError(f"{a!r} not in {alphabet}")
    cols = columns(alphabet, 1)
    transitions: dict[int, dict[object, int]] = {0: {}, 1: {}}
    for c in cols:
        target = 1 if c[0] == a else 0
        transitions[0][c] = target
        transitions[1][c] = target
    dfa = DFA(cols, [0, 1], 0, [1], transitions)
    return RelationAutomaton(alphabet, 1, dfa)


def add_last_graph(alphabet: Alphabet, a: str) -> RelationAutomaton:
    """The graph of ``l_a``: ``{(x, x . a)}``."""
    if a not in alphabet:
        raise ValueError(f"{a!r} not in {alphabet}")
    cols = columns(alphabet, 2)
    transitions: dict[int, dict[object, int]] = {0: {}}
    for c in cols:
        x, y = c
        if x is not PAD and x == y:
            transitions[0][c] = 0
        if x is PAD and y == a:
            transitions[0][c] = 1
    dfa = DFA(cols, [0, 1], 0, [1], transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def add_first_graph(alphabet: Alphabet, a: str) -> RelationAutomaton:
    """The graph of ``f_a``: ``{(x, a . x)}`` (the paper's ``F_a``).

    Needs one symbol of memory: after reading column ``(x_i, y_i)`` the
    automaton remembers ``x_i``, to check ``y_{i+1} = x_i``.
    """
    if a not in alphabet:
        raise ValueError(f"{a!r} not in {alphabet}")
    cols = columns(alphabet, 2)
    start = "start"
    done = "done"
    states = [start, done] + list(alphabet.symbols)
    transitions: dict[object, dict[object, object]] = {q: {} for q in states}
    for c in cols:
        x, y = c
        # First column: y must equal a.
        if y == a:
            if x is PAD:
                transitions[start][c] = done  # x = epsilon, y = a
            else:
                transitions[start][c] = x  # remember x_0
        # Middle/last columns from memory state m: y must equal m.
        for m in alphabet.symbols:
            if y == m:
                if x is PAD:
                    transitions[m][c] = done  # final column
                else:
                    transitions[m][c] = x
    dfa = DFA(cols, states, start, [done], transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def trim_first_graph(alphabet: Alphabet, a: str) -> RelationAutomaton:
    """The graph of ``TRIM_a``: ``{(s, s - a)}`` with the paper's semantics.

    ``(s, s')`` with ``s = a . s'`` when ``s`` starts with ``a``; otherwise
    ``(s, epsilon)``.
    """
    # Case 1: s starts with a; then s' is s with the leading a removed,
    # i.e. (s, s') in graph iff (s', s) in graph(f_a). Swap the tracks.
    case1 = add_first_graph(alphabet, a).reorder([1, 0])
    # Case 2: s does not start with a (or is empty); s' = epsilon.
    cols = columns(alphabet, 2)
    transitions: dict[object, dict[object, object]] = {"q0": {}, "rest": {}}
    for c in cols:
        x, y = c
        if y is not PAD:
            continue  # second component must be epsilon: always padded
        if x is not PAD and x != a:
            transitions["q0"][c] = "rest"
        if x is not PAD:
            transitions["rest"][c] = "rest"
    dfa = DFA(cols, ["q0", "rest"], "q0", ["q0", "rest"], transitions)
    case2 = RelationAutomaton(alphabet, 2, dfa)
    # "q0" accepting covers s = epsilon -> s' = epsilon (empty word).
    return case1.union(case2)


def insert_at_graph(alphabet: Alphabet, a: str) -> RelationAutomaton:
    """Graph of the Section 8 extension: ``{(x, p, y) | p <<= x, y = p.a.(x-p)}``.

    Synchronized reading of ``(x, p, y)``: the three tracks agree while
    ``p`` lasts; at position ``|p|`` the ``y`` track shows ``a`` while the
    automaton memorizes the current ``x`` symbol; afterwards ``y`` replays
    ``x`` shifted by one (the same one-symbol memory as ``f_a``).

    Total-function semantics (matching the :class:`~repro.logic.terms.InsertAt`
    term): when ``p`` is *not* a prefix of ``x`` the value is epsilon, so
    the graph additionally contains ``{(x, p, eps) | not p <<= x}``.
    """
    if a not in alphabet:
        raise ValueError(f"{a!r} not in {alphabet}")
    cols = columns(alphabet, 3)
    eq, done = "eq", "done"
    states: list[object] = [eq, done] + list(alphabet.symbols)
    transitions: dict[object, dict[object, object]] = {q: {} for q in states}
    for c in cols:
        x, p, y = c
        # Phase 1: inside the common prefix p.
        if x is not PAD and x == p and x == y:
            transitions[eq][c] = eq
        # Insertion point: p has ended, y shows the inserted symbol.
        if p is PAD and y == a:
            if x is PAD:
                transitions[eq][c] = done  # p = x: append at the end
            elif x is not PAD:
                transitions[eq][c] = x  # memorize x's symbol
        # Phase 2: y replays x with one-symbol delay.
        for m in alphabet.symbols:
            if p is PAD and y == m:
                if x is PAD:
                    transitions[m][c] = done  # final shifted symbol
                else:
                    transitions[m][c] = x
    dfa = DFA(cols, states, eq, [done], transitions)
    case_prefix = RelationAutomaton(alphabet, 3, dfa)
    # Default branch: p not a prefix of x -> result epsilon.
    not_pref_px = prefix(alphabet).complement()  # tracks (p, x)
    case_default = (
        not_pref_px.reorder([1, 0])  # (x, p)
        .cylindrify(2)  # (x, p, y)
        .intersection(constant(alphabet, "").cylindrify(0).cylindrify(0))
    )
    return case_prefix.union(case_default)


def pattern_suffix(alphabet: Alphabet, language_dfa: DFA) -> RelationAutomaton:
    """The paper's ``P_L(x, y)``: ``x <<= y`` and ``y - x`` is in ``L``.

    ``language_dfa`` recognizes ``L`` over the plain character alphabet.
    For star-free ``L`` this is an S-presentation predicate (quantifier
    elimination signature of Section 4); for general regular ``L`` it is
    the defining predicate family of S_reg (Section 7).
    """
    cols = columns(alphabet, 2)
    # States: ("pre",) while x is being matched, then ("run", q) running L on
    # the remaining suffix of y.
    pre = ("pre",)
    n = language_dfa.num_states
    states: list[object] = [pre] + [("run", q) for q in range(n)]
    transitions: dict[object, dict[object, object]] = {q: {} for q in states}
    for c in cols:
        x, y = c
        if x is not PAD and x == y:
            transitions[pre][c] = pre
    for q, a, t in language_dfa.edges():
        c = (PAD, a)
        if q == language_dfa.start:
            transitions[pre][c] = ("run", t)
        transitions[("run", q)][c] = ("run", t)
    accepting: list[object] = [("run", q) for q in language_dfa.accepting_states()]
    if language_dfa.accepts(""):
        accepting.append(pre)  # x = y, suffix epsilon in L
    dfa = DFA(cols, states, pre, accepting, transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def member(alphabet: Alphabet, language_dfa: DFA) -> RelationAutomaton:
    """Unary membership ``x in L`` (i.e. ``P_L(epsilon, x)``)."""
    dfa = language_dfa.map_symbols(lambda a: (a,))
    return RelationAutomaton(alphabet, 1, dfa)


def lex_le(alphabet: Alphabet, strict: bool = False) -> RelationAutomaton:
    """Lexicographic order ``x <=_lex y`` induced by the alphabet order."""
    cols = columns(alphabet, 2)
    eq, lt = "eq", "lt"
    transitions: dict[object, dict[object, object]] = {eq: {}, lt: {}}
    for c in cols:
        a, b = c
        if a is not PAD and a == b:
            transitions[eq][c] = eq
        elif a is PAD and b is not PAD:
            transitions[eq][c] = lt  # x is a strict prefix of y
        elif a is not PAD and b is not PAD and alphabet.index(a) < alphabet.index(b):
            transitions[eq][c] = lt
        # Once strictly below, anything valid may follow.
        transitions[lt][c] = lt
    accepting = [lt] if strict else [eq, lt]
    dfa = DFA(cols, [eq, lt], eq, accepting, transitions)
    return RelationAutomaton(alphabet, 2, dfa)


def constant(alphabet: Alphabet, value: str) -> RelationAutomaton:
    """The unary relation ``{value}`` (``{epsilon}`` for the empty string)."""
    alphabet.check_string(value)
    return RelationAutomaton.from_tuples(alphabet, 1, [(value,)])


def lcp_graph(alphabet: Alphabet) -> RelationAutomaton:
    """The graph of the longest-common-prefix function: ``{(x, y, x ^ y)}``."""
    cols = columns(alphabet, 3)
    common, diverged = "common", "diverged"
    transitions: dict[object, dict[object, object]] = {common: {}, diverged: {}}
    for c in cols:
        x, y, z = c
        if x is not PAD and x == y and x == z:
            transitions[common][c] = common
        elif z is PAD and not (x is PAD and y is PAD):
            # Divergence point: x and y differ here (or one has ended).
            if x != y:
                transitions[common][c] = diverged
            transitions[diverged][c] = diverged
    dfa = DFA(cols, [common, diverged], common, [common, diverged], transitions)
    return RelationAutomaton(alphabet, 3, dfa)


#: Built basic presentations, least recently used first.  Bounded: a
#: ``constant`` or ``*_graph`` presentation is built per distinct literal,
#: and a service answering ad hoc queries sees unboundedly many.
_BASIC_CACHE: OrderedDict[tuple, RelationAutomaton] = OrderedDict()
_BASIC_CACHE_CAP = 256
_BASIC_LOCK = threading.Lock()


def _cached_basic(alphabet_symbols: tuple[str, ...], name: str, extra: object) -> RelationAutomaton:
    key = (alphabet_symbols, name, extra)
    with _BASIC_LOCK:
        built = _BASIC_CACHE.get(key)
        if built is not None:
            _BASIC_CACHE.move_to_end(key)
            return built
    alphabet = Alphabet(alphabet_symbols)
    builders = {
        "equality": lambda: equality(alphabet),
        "prefix": lambda: prefix(alphabet, strict=bool(extra)),
        "extends_by_one": lambda: extends_by_one(alphabet),
        "equal_length": lambda: equal_length(alphabet),
        "length_le": lambda: length_le(alphabet, strict=bool(extra)),
        "last_symbol": lambda: last_symbol(alphabet, str(extra)),
        "add_last_graph": lambda: add_last_graph(alphabet, str(extra)),
        "add_first_graph": lambda: add_first_graph(alphabet, str(extra)),
        "trim_first_graph": lambda: trim_first_graph(alphabet, str(extra)),
        "insert_at_graph": lambda: insert_at_graph(alphabet, str(extra)),
        "lex_le": lambda: lex_le(alphabet, strict=bool(extra)),
        "constant": lambda: constant(alphabet, str(extra)),
        "lcp_graph": lambda: lcp_graph(alphabet),
    }
    built = builders[name]()
    with _BASIC_LOCK:
        _BASIC_CACHE[key] = built
        while len(_BASIC_CACHE) > _BASIC_CACHE_CAP:
            _BASIC_CACHE.popitem(last=False)
    return built


def cached(alphabet: Alphabet, name: str, extra: object = None) -> RelationAutomaton:
    """Memoized access to the basic presentations (they never change)."""
    return _cached_basic(alphabet.symbols, name, extra)
