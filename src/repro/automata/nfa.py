"""Nondeterministic finite automata with epsilon transitions.

Used as the intermediate form for Thompson construction (regexes) and for
the projection step of convolution automata (which is inherently
nondeterministic); :meth:`NFA.determinize` converts back to :class:`DFA`
by the subset construction, with NFA state sets held as int bitmasks.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Hashable, Iterable, Sequence
from typing import Optional

from repro.automata.dfa import DFA, table_for
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS

Symbol = Hashable
State = Hashable


class _Epsilon:
    """Singleton label for epsilon transitions."""

    _instance: Optional["_Epsilon"] = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EPSILON"


#: The epsilon transition label.
EPSILON = _Epsilon()


class NFA:
    """A nondeterministic finite automaton with epsilon moves.

    Parameters
    ----------
    alphabet:
        Symbols of the language (``EPSILON`` must not be listed).
    states, starts, accepting:
        State sets; multiple start states are allowed.
    transitions:
        Mapping ``state -> {label -> set of states}`` where a label is a
        symbol or ``EPSILON``.
    """

    __slots__ = ("alphabet", "states", "starts", "accepting", "transitions")

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        starts: Iterable[State],
        accepting: Iterable[State],
        transitions: dict[State, dict[Symbol, set[State]]],
    ):
        self.alphabet = frozenset(alphabet)
        if EPSILON in self.alphabet:
            raise ValueError("EPSILON may not be an alphabet symbol")
        self.states = frozenset(states)
        self.starts = frozenset(starts)
        self.accepting = frozenset(accepting)
        self.transitions = {
            q: {sym: set(targets) for sym, targets in delta.items() if targets}
            for q, delta in transitions.items()
        }

    @classmethod
    def of_dfa(cls, dfa: DFA) -> "NFA":
        """View a DFA as an NFA (same alphabet, states ``0..n-1``)."""
        transitions: dict[State, dict[Symbol, set[State]]] = {}
        for q, sym, t in dfa.edges():
            transitions.setdefault(q, {})[sym] = {t}
        return cls(
            dfa.alphabet,
            range(dfa.num_states),
            [dfa.start],
            dfa.accepting_states(),
            transitions,
        )

    # ------------------------------------------------------------------ runs

    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        """All states reachable from ``states`` via epsilon moves."""
        closure = set(states)
        queue = deque(closure)
        while queue:
            q = queue.popleft()
            for t in self.transitions.get(q, {}).get(EPSILON, ()):  # type: ignore[arg-type]
                if t not in closure:
                    closure.add(t)
                    queue.append(t)
        return frozenset(closure)

    def move(self, states: Iterable[State], symbol: Symbol) -> frozenset[State]:
        """One-symbol successor set (without closing under epsilon)."""
        out: set[State] = set()
        for q in states:
            out |= self.transitions.get(q, {}).get(symbol, set())
        return frozenset(out)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        current = self.epsilon_closure(self.starts)
        for sym in word:
            current = self.epsilon_closure(self.move(current, sym))
            if not current:
                return False
        return bool(current & self.accepting)

    # --------------------------------------------------------- constructions

    def determinize(self) -> DFA:
        """Subset construction over the reachable subsets.

        NFA state sets are int bitmasks (hash/compare in machine words,
        set union is ``|``); epsilon closures are precomputed per state.
        Subsets are numbered in BFS discovery order with symbols in table
        order, which is the canonical DFA numbering.
        """
        METRICS.inc("kernel.determinizations")
        table = table_for(self.alphabet)
        k = len(table)
        states = sorted(self.states, key=repr)
        state_id = {q: i for i, q in enumerate(states)}
        n = len(states)

        # Per-state move masks (sparse: only labels the NFA actually has).
        move: list[dict[int, int]] = [{} for _ in range(n)]
        eps_direct = [0] * n
        for q, delta in self.transitions.items():
            qi = state_id[q]
            for label, targets in delta.items():
                mask = 0
                for t in targets:
                    mask |= 1 << state_id[t]
                if label is EPSILON:
                    eps_direct[qi] |= mask
                else:
                    s = table.index(label)
                    if s >= 0:
                        move[qi][s] = move[qi].get(s, 0) | mask

        # Epsilon closures per state, to fixpoint.
        closure = [eps_direct[i] | (1 << i) for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                mask = closure[i]
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    mask |= closure[low.bit_length() - 1]
                if mask != closure[i]:
                    closure[i] = mask
                    changed = True

        acc_mask = 0
        for q in self.accepting:
            acc_mask |= 1 << state_id[q]

        start_mask = 0
        for q in self.starts:
            start_mask |= closure[state_id[q]]

        seen: dict[int, int] = {start_mask: 0}
        accepting = bytearray([1 if start_mask & acc_mask else 0])
        flat = array("i")
        queue = deque([start_mask])
        dead_row = array("i", [-1]) * k
        while queue:
            # Subset construction can be exponential; honor deadlines.
            checkpoint()
            subset = queue.popleft()
            row = array("i", dead_row)
            for s in range(k):
                target = 0
                rest = subset
                while rest:
                    low = rest & -rest
                    rest ^= low
                    target |= move[low.bit_length() - 1].get(s, 0)
                if not target:
                    continue
                closed = 0
                rest = target
                while rest:
                    low = rest & -rest
                    rest ^= low
                    closed |= closure[low.bit_length() - 1]
                sid = seen.get(closed)
                if sid is None:
                    sid = len(seen)
                    seen[closed] = sid
                    queue.append(closed)
                    accepting.append(1 if closed & acc_mask else 0)
                row[s] = sid
            flat.extend(row)
        return DFA._make(table, accepting, flat)

    def to_min_dfa(self) -> DFA:
        """Determinize then minimize (the usual pipeline)."""
        return self.determinize().minimize()

    def reversed(self) -> "NFA":
        """NFA for the reversal of the language."""
        transitions: dict[State, dict[Symbol, set[State]]] = {}
        for q, delta in self.transitions.items():
            for sym, targets in delta.items():
                for t in targets:
                    transitions.setdefault(t, {}).setdefault(sym, set()).add(q)
        return NFA(self.alphabet, self.states, self.accepting, self.starts, transitions)

    def __repr__(self) -> str:
        return f"NFA(states={len(self.states)}, alphabet={len(self.alphabet)})"
