"""The pre-kernel dict-of-dicts automata pipeline, kept as a test oracle.

Before every automaton was stored as flat arrays, :class:`DFA` kept
arbitrary hashable states in dict-of-dicts transition tables, minimized
by Moore partition refinement, determinized NFAs with a dict-of-frozensets
subset construction, and combined automata with an eager pairwise
product.  That code lives on here, unchanged apart from dropping its
hook into the array form, for two reasons:

* ``tests/test_kernel.py`` checks the array automata against it on
  randomized inputs — an independent implementation of the same
  languages;
* ``benchmarks/bench_kernel.py`` and ``benchmarks/bench_abl_minimize.py``
  time the array automata *against* it; the speedup ratio is the
  machine-portable number the regression gate tracks.

:func:`to_reference` and :func:`from_reference` move an automaton
between the two forms.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import Optional

from repro.automata import dfa as array_dfa
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS

Symbol = Hashable
State = Hashable

#: Reserved state used internally as the dead (sink) state when completing.
_DEAD = ("__dead__",)


class DFA:
    """An immutable deterministic finite automaton.

    Parameters
    ----------
    alphabet:
        Iterable of symbols; the automaton's language is over exactly these.
    states:
        Iterable of states (hashables).
    start:
        The initial state (must be in ``states``).
    accepting:
        Iterable of accepting states.
    transitions:
        Mapping ``state -> {symbol -> state}``; may be partial.
    """

    __slots__ = (
        "alphabet",
        "states",
        "start",
        "accepting",
        "transitions",
        "_finite_cache",
        "_completed_cache",
        "_canonical_cache",
    )

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        start: State,
        accepting: Iterable[State],
        transitions: dict[State, dict[Symbol, State]],
    ):
        self.alphabet: frozenset[Symbol] = frozenset(alphabet)
        self.states: frozenset[State] = frozenset(states)
        self.start: State = start
        self.accepting: frozenset[State] = frozenset(accepting)
        self.transitions: dict[State, dict[Symbol, State]] = {
            q: dict(delta) for q, delta in transitions.items() if delta
        }
        # DFAs are immutable, so derived forms are memoized invalidation-
        # free: chained complement()/minimize()/product calls would
        # otherwise rebuild the same completed/canonical automaton once
        # per call (each a fresh O(|Q|·|Σ|) copy).
        self._finite_cache: Optional[bool] = None
        self._completed_cache: Optional["DFA"] = None
        self._canonical_cache: Optional["DFA"] = None
        if start not in self.states:
            raise ValueError(f"start state {start!r} not among states")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be a subset of states")

    # ------------------------------------------------------------------ core

    def step(self, state: State, symbol: Symbol) -> Optional[State]:
        """Target of the transition, or ``None`` (implicit dead state)."""
        return self.transitions.get(state, {}).get(symbol)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Run the automaton on ``word`` (any sequence of symbols)."""
        q: Optional[State] = self.start
        for sym in word:
            q = self.step(q, sym)
            if q is None:
                return False
        return q in self.accepting

    @property
    def num_states(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return (
            f"DFA(states={self.num_states}, alphabet={len(self.alphabet)}, "
            f"accepting={len(self.accepting)})"
        )

    # ------------------------------------------------------- transformations

    def canonical(self) -> "DFA":
        """Renumber states to ``0..n-1`` in BFS order from the start state.

        Unreachable states are dropped.  Two canonicalized, minimized DFAs
        over the same alphabet accept the same language iff they are
        structurally identical.  The result is memoized (DFAs are
        immutable) and is its own canonical form.
        """
        if self._canonical_cache is not None:
            return self._canonical_cache
        order: dict[State, int] = {self.start: 0}
        queue = deque([self.start])
        sym_order = sorted(self.alphabet, key=repr)
        while queue:
            q = queue.popleft()
            delta = self.transitions.get(q, {})
            for sym in sym_order:
                target = delta.get(sym)
                if target is not None and target not in order:
                    order[target] = len(order)
                    queue.append(target)
        transitions = {
            order[q]: {sym: order[t] for sym, t in delta.items() if t in order}
            for q, delta in self.transitions.items()
            if q in order
        }
        accepting = [order[q] for q in self.accepting if q in order]
        result = DFA(self.alphabet, range(len(order)), 0, accepting, transitions)
        result._canonical_cache = result
        self._canonical_cache = result
        return result

    def completed(self) -> "DFA":
        """Return an equivalent DFA with a total transition function.

        Memoized: chained boolean operations complete the same automaton
        repeatedly, and each completion is a full table copy.
        """
        if self._completed_cache is not None:
            return self._completed_cache
        if self._is_complete():
            self._completed_cache = self
            return self
        states = set(self.states) | {_DEAD}
        transitions: dict[State, dict[Symbol, State]] = {}
        for q in states:
            delta = dict(self.transitions.get(q, {}))
            for sym in self.alphabet:
                delta.setdefault(sym, _DEAD)
            transitions[q] = delta
        result = DFA(self.alphabet, states, self.start, self.accepting, transitions)
        result._completed_cache = result
        self._completed_cache = result
        return result

    def _is_complete(self) -> bool:
        return all(
            len(self.transitions.get(q, {})) == len(self.alphabet) for q in self.states
        )

    def complement(self) -> "DFA":
        """DFA for ``Sigma* \\ L`` (over this automaton's alphabet)."""
        total = self.completed()
        return DFA(
            total.alphabet,
            total.states,
            total.start,
            total.states - total.accepting,
            total.transitions,
        ).trim_unreachable()

    def trim_unreachable(self) -> "DFA":
        """Drop states unreachable from the start state."""
        return self.canonical()

    def trim(self) -> "DFA":
        """Keep only states that are both reachable and co-reachable.

        The resulting (possibly partial) DFA accepts the same language; its
        transition graph contains a cycle iff the language is infinite.
        """
        reachable = self._reachable_states()
        coreachable = self._coreachable_states()
        useful = reachable & coreachable
        if self.start not in useful:
            # Empty language: a single non-accepting state.
            return DFA(self.alphabet, [0], 0, [], {})
        transitions = {
            q: {sym: t for sym, t in delta.items() if t in useful}
            for q, delta in self.transitions.items()
            if q in useful
        }
        return DFA(self.alphabet, useful, self.start, self.accepting & useful, transitions)

    def _reachable_states(self) -> set[State]:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            for t in self.transitions.get(q, {}).values():
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return seen

    def _coreachable_states(self) -> set[State]:
        back: dict[State, set[State]] = {}
        for q, delta in self.transitions.items():
            for t in delta.values():
                back.setdefault(t, set()).add(q)
        seen = set(self.accepting)
        queue = deque(self.accepting)
        while queue:
            q = queue.popleft()
            for p in back.get(q, ()):  # predecessors
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    def minimize(self) -> "DFA":
        """Moore partition-refinement minimization (on the completed DFA)."""
        total = self.completed().canonical()
        states = sorted(total.states)  # dense ints after canonical()
        syms = sorted(total.alphabet, key=repr)
        # Initial partition: accepting vs non-accepting.
        block_of = {q: (1 if q in total.accepting else 0) for q in states}
        while True:
            # Each refinement round is O(n * |alphabet|); check the
            # cooperative deadline between rounds.
            checkpoint()
            signature = {
                q: (block_of[q], tuple(block_of[total.transitions[q][s]] for s in syms))
                for q in states
            }
            new_ids: dict[tuple, int] = {}
            new_block_of = {}
            for q in states:
                sig = signature[q]
                if sig not in new_ids:
                    new_ids[sig] = len(new_ids)
                new_block_of[q] = new_ids[sig]
            if len(new_ids) == len(set(block_of.values())):
                block_of = new_block_of
                break
            block_of = new_block_of
        n_blocks = len(set(block_of.values()))
        transitions: dict[State, dict[Symbol, State]] = {b: {} for b in range(n_blocks)}
        accepting = set()
        for q in states:
            b = block_of[q]
            for s in syms:
                transitions[b][s] = block_of[total.transitions[q][s]]
            if q in total.accepting:
                accepting.add(b)
        mini = DFA(total.alphabet, range(n_blocks), block_of[total.start], accepting, transitions)
        return mini.trim().canonical()

    def map_symbols(self, mapping) -> "DFA":
        """Relabel symbols through ``mapping`` (must be injective on alphabet)."""
        new_alpha = {mapping(s) for s in self.alphabet}
        if len(new_alpha) != len(self.alphabet):
            raise ValueError("symbol mapping must be injective")
        transitions = {
            q: {mapping(sym): t for sym, t in delta.items()}
            for q, delta in self.transitions.items()
        }
        return DFA(new_alpha, self.states, self.start, self.accepting, transitions)

    # --------------------------------------------------------- language info

    def is_empty(self) -> bool:
        """True iff the accepted language is empty."""
        return not self.trim().accepting

    def is_finite_language(self) -> bool:
        """True iff the accepted language is finite.

        Finite iff the trimmed automaton (reachable and co-reachable states
        only) has an acyclic transition graph.
        """
        if self._finite_cache is None:
            self._finite_cache = not _has_cycle(self.trim())
        return self._finite_cache

    def count_words(self) -> int:
        """Number of accepted words; raises ``ValueError`` if infinite."""
        trimmed = self.trim()
        if _has_cycle(trimmed):
            raise ValueError("language is infinite")
        order = _topological_order(trimmed)
        paths: dict[State, int] = {q: 0 for q in trimmed.states}
        paths[trimmed.start] = 1
        for q in order:
            for t in trimmed.transitions.get(q, {}).values():
                paths[t] += paths[q]
        return sum(paths[q] for q in trimmed.accepting)

    def count_words_of_length(self, n: int) -> int:
        """Number of accepted words of length exactly ``n``."""
        counts = {self.start: 1}
        for _ in range(n):
            nxt: dict[State, int] = {}
            for q, c in counts.items():
                for t in self.transitions.get(q, {}).values():
                    nxt[t] = nxt.get(t, 0) + c
            counts = nxt
        return sum(c for q, c in counts.items() if q in self.accepting)

    def iter_words(self, max_length: Optional[int] = None) -> Iterator[tuple[Symbol, ...]]:
        """Enumerate accepted words, shortest first.

        If ``max_length`` is ``None`` the language must be finite (the
        trimmed automaton bounds word lengths by its state count).
        """
        trimmed = self.trim()
        if max_length is None:
            if _has_cycle(trimmed):
                raise ValueError("language is infinite; pass max_length")
            max_length = trimmed.num_states  # longest simple path bound
        sym_order = sorted(trimmed.alphabet, key=repr)
        frontier: list[tuple[State, tuple[Symbol, ...]]] = [(trimmed.start, ())]
        for length in range(max_length + 1):
            for q, word in frontier:
                if q in trimmed.accepting:
                    yield word
            if length == max_length:
                break
            nxt = []
            for q, word in frontier:
                delta = trimmed.transitions.get(q, {})
                for sym in sym_order:
                    t = delta.get(sym)
                    if t is not None:
                        nxt.append((t, word + (sym,)))
            frontier = nxt

    def iter_strings(self, max_length: Optional[int] = None) -> Iterator[str]:
        """Like :meth:`iter_words` but joins character symbols into strings."""
        for word in self.iter_words(max_length):
            yield "".join(word)

    def shortest_word(self) -> Optional[tuple[Symbol, ...]]:
        """A shortest accepted word, or ``None`` if the language is empty."""
        for word in self.iter_words(max_length=self.num_states + 1):
            return word
        return None

    def language_up_to(self, n: int) -> set[str]:
        """All accepted strings of length at most ``n`` (character alphabets)."""
        return set(self.iter_strings(max_length=n))


def _has_cycle(dfa: DFA) -> bool:
    """Cycle detection (iterative DFS with colors) on a DFA's state graph."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {q: WHITE for q in dfa.states}
    for root in dfa.states:
        if color[root] != WHITE:
            continue
        stack: list[tuple[State, Iterator[State]]] = [
            (root, iter(set(dfa.transitions.get(root, {}).values())))
        ]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if color[t] == GRAY:
                    return True
                if color[t] == WHITE:
                    color[t] = GRAY
                    stack.append((t, iter(set(dfa.transitions.get(t, {}).values()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def _topological_order(dfa: DFA) -> list[State]:
    """Topological order of an acyclic DFA's state graph.

    In-degrees count *transitions* (multi-edges included), matching the
    per-transition decrements below.
    """
    indeg: dict[State, int] = {q: 0 for q in dfa.states}
    for q in dfa.states:
        for t in dfa.transitions.get(q, {}).values():
            indeg[t] += 1
    queue = deque(q for q in dfa.states if indeg[q] == 0)
    order = []
    while queue:
        q = queue.popleft()
        order.append(q)
        for t in dfa.transitions.get(q, {}).values():
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    if len(order) != len(dfa.states):
        raise ValueError("graph has a cycle")
    return order


def determinize(nfa) -> DFA:
    """Subset construction; the result is canonical and trimmed."""
    start = nfa.epsilon_closure(nfa.starts)
    seen: dict[frozenset[State], int] = {start: 0}
    transitions: dict[State, dict[Symbol, State]] = {}
    accepting: set[int] = set()
    queue = deque([start])
    if start & nfa.accepting:
        accepting.add(0)
    while queue:
        # Subset construction can be exponential; honor deadlines.
        checkpoint()
        subset = queue.popleft()
        sid = seen[subset]
        delta: dict[Symbol, State] = {}
        for sym in nfa.alphabet:
            target = nfa.epsilon_closure(nfa.move(subset, sym))
            if not target:
                continue
            if target not in seen:
                seen[target] = len(seen)
                queue.append(target)
                if target & nfa.accepting:
                    accepting.add(seen[target])
            delta[sym] = seen[target]
        if delta:
            transitions[sid] = delta
    return DFA(nfa.alphabet, range(len(seen)), 0, accepting, transitions)


def product(left: DFA, right: DFA, keep: Callable[[bool, bool], bool]) -> DFA:
    """Eager product construction over the union alphabet.

    ``keep(in_left, in_right)`` decides acceptance of a product state.
    Missing transitions are treated as moves to an (implicit) rejecting
    dead state, which the construction materializes as ``None`` components.
    """
    alphabet = left.alphabet | right.alphabet
    lt = left.completed()
    rt = right.completed()
    # Completed automata may still lack symbols absent from their own
    # alphabet; treat those as dead.
    start = (lt.start, rt.start)
    seen = {start: 0}
    transitions: dict[int, dict[object, int]] = {}
    accepting: set[int] = set()
    queue = deque([start])

    def is_acc(pair) -> bool:
        lq, rq = pair
        return keep(lq in lt.accepting, rq in rt.accepting)

    if is_acc(start):
        accepting.add(0)
    while queue:
        # Products are the engine's combinatorial blowup point; check the
        # cooperative deadline once per state expanded so a request with a
        # tight budget cannot disappear into an exponential construction.
        checkpoint()
        pair = queue.popleft()
        sid = seen[pair]
        lq, rq = pair
        delta: dict[object, int] = {}
        for sym in alphabet:
            ltarget = lt.step(lq, sym) if lq is not None else None
            rtarget = rt.step(rq, sym) if rq is not None else None
            target = (ltarget, rtarget)
            if ltarget is None and rtarget is None:
                continue
            if target not in seen:
                seen[target] = len(seen)
                queue.append(target)
                if is_acc(target):
                    accepting.add(seen[target])
            delta[sym] = seen[target]
        if delta:
            transitions[sid] = delta
    METRICS.inc("automata.products")
    METRICS.inc("automata.product_states", len(seen))
    return DFA(alphabet, range(len(seen)), 0, accepting, transitions)


def to_reference(automaton: array_dfa.DFA) -> DFA:
    """The dict-of-dicts form of an array DFA (same state numbers)."""
    transitions: dict[State, dict[Symbol, State]] = {}
    for q, sym, t in automaton.edges():
        transitions.setdefault(q, {})[sym] = t
    return DFA(
        automaton.alphabet,
        range(automaton.num_states),
        automaton.start,
        automaton.accepting_states(),
        transitions,
    )


def from_reference(reference: DFA) -> array_dfa.DFA:
    """The array form of a dict-of-dicts DFA."""
    return array_dfa.DFA(
        reference.alphabet,
        reference.states,
        reference.start,
        reference.accepting,
        reference.transitions,
    )
