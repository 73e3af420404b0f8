"""Buchi-Elgot-Trakhtenbrot: MSO over strings -> finite automata.

A formula with free position variables ``p1..pm`` and free set variables
``X1..Xn`` defines a language over the extended alphabet ``Sigma x
{0,1}^(m+n)``: each extra bit track records where a variable points /
which positions a set contains.  Compilation is structural:

* atoms -> small hand-built DFAs;
* boolean connectives -> products and complements (within the *valid*
  language: every position-variable track carries exactly one 1);
* ``exists`` -> drop the variable's track (NFA projection + subset
  construction).

This gives the classical theorem "MSO-definable = regular", which the
paper uses twice: MSO provides the hard queries of Proposition 5, and the
FO[<] fragment characterizes the star-free languages definable over S.
"""

from __future__ import annotations

from repro.automata import kernel
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import EvaluationError
from repro.mso.formulas import (
    ExistsPos,
    ExistsSet,
    InSet,
    Label,
    Less,
    MsoAnd,
    MsoFormula,
    MsoNot,
    MsoOr,
    PosEq,
    Succ,
)
from repro.strings.alphabet import Alphabet

# Extended symbols are (char, bits) with bits a tuple aligned to the sorted
# tuple of (kind, name) variable keys; kind "p" (position) sorts before "s"
# (set) only by the tuple ordering of names -- we simply sort the pairs.

VarKey = tuple[str, str]  # ("p"|"s", name)


def _ext_symbols(alphabet: Alphabet, n_tracks: int):
    import itertools

    out = []
    for ch in alphabet.symbols:
        for bits in itertools.product((0, 1), repeat=n_tracks):
            out.append((ch, bits))
    return out


def _valid_dfa(alphabet: Alphabet, keys: tuple[VarKey, ...]) -> DFA:
    """Words where every position-variable track has exactly one 1."""
    symbols = _ext_symbols(alphabet, len(keys))
    pos_tracks = [i for i, (kind, _name) in enumerate(keys) if kind == "p"]
    # State: frozenset of position tracks already seen.
    import itertools as it

    states = [frozenset(s) for r in range(len(pos_tracks) + 1) for s in it.combinations(pos_tracks, r)]
    transitions: dict[object, dict[object, object]] = {}
    for state in states:
        delta = {}
        for sym in symbols:
            _ch, bits = sym
            ones = {i for i in pos_tracks if bits[i] == 1}
            if ones & state:
                continue  # a position track fired twice
            delta[sym] = state | ones
        transitions[state] = delta
    full = frozenset(pos_tracks)
    return DFA(symbols, states, frozenset(), [full], transitions)


class MsoCompiler:
    """Compiles MSO formulas to DFAs over the extended alphabet."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def compile(self, formula: MsoFormula) -> tuple[DFA, tuple[VarKey, ...]]:
        """Return (dfa, variable keys in track order) for ``formula``."""
        keys = self._keys(formula)
        dfa = self._build(formula, keys)
        return dfa, keys

    def compile_sentence(self, formula: MsoFormula) -> DFA:
        """Compile a sentence to a plain DFA over the alphabet."""
        dfa, keys = self.compile(formula)
        if keys:
            raise EvaluationError(f"not a sentence; free variables {keys}")
        return dfa.map_symbols(lambda sym: sym[0]).minimize()

    def _keys(self, f: MsoFormula) -> tuple[VarKey, ...]:
        return tuple(
            sorted(
                {("p", v) for v in f.free_position_vars()}
                | {("s", v) for v in f.free_set_vars()}
            )
        )

    # ------------------------------------------------------------ recursion

    def _build(self, f: MsoFormula, keys: tuple[VarKey, ...]) -> DFA:
        index = {k: i for i, k in enumerate(keys)}
        symbols = _ext_symbols(self.alphabet, len(keys))
        if isinstance(f, Label):
            i = index[("p", f.var)]
            return self._single_track_dfa(symbols, lambda sym: sym[1][i] == 1 and sym[0] == f.symbol, {i})
        if isinstance(f, InSet):
            p = index[("p", f.pos)]
            s = index[("s", f.set_var)]
            return self._single_track_dfa(
                symbols, lambda sym: sym[1][p] == 1 and sym[1][s] == 1, {p}
            )
        if isinstance(f, PosEq):
            a, b = index[("p", f.left)], index[("p", f.right)]
            return self._single_track_dfa(
                symbols, lambda sym: sym[1][a] == 1 and sym[1][b] == 1, {a, b}
            )
        if isinstance(f, (Less, Succ)):
            return self._order_dfa(f, keys, symbols, index)
        if isinstance(f, MsoNot):
            # ¬f within the valid words: one fused kernel pipeline
            # (complement ∧ valid, minimized) — no dict intermediates.
            inner = self._cylindrified(f.inner, keys)
            return kernel.complement_within(inner, _valid_dfa(self.alphabet, keys))
        if isinstance(f, MsoAnd):
            parts = [self._cylindrified(p, keys) for p in f.parts]
            return kernel.intersect_all_minimized(parts)
        if isinstance(f, MsoOr):
            parts = [self._cylindrified(p, keys) for p in f.parts]
            return kernel.union_all_within(parts, _valid_dfa(self.alphabet, keys))
        if isinstance(f, (ExistsPos, ExistsSet)):
            kind = "p" if isinstance(f, ExistsPos) else "s"
            inner_keys = tuple(sorted(set(keys) | {(kind, f.var)}))
            inner = self._build(f.body, inner_keys)
            drop = inner_keys.index((kind, f.var))
            return self._project(inner, drop, keys)
        raise EvaluationError(f"unknown MSO node {f!r}")

    def _single_track_dfa(self, symbols, predicate, needed_tracks: set[int]) -> DFA:
        """Accepts words containing a position where ``predicate`` holds,
        with exactly-one-1 discipline handled by the valid filter later.

        For atoms anchored at position variables the standard construction:
        the atom holds iff the (unique) position flagged on those tracks
        satisfies the predicate, so: scan for a flagged column satisfying
        it, reject if a flagged column violates it.
        """
        transitions: dict[object, dict[object, object]] = {0: {}, 1: {}}
        for sym in symbols:
            _ch, bits = sym
            flagged = any(bits[t] == 1 for t in needed_tracks)
            if not flagged:
                transitions[0][sym] = 0
                transitions[1][sym] = 1
            elif predicate(sym):
                transitions[0][sym] = 1
                # After acceptance more flags would violate validity; the
                # valid filter rejects those words anyway, so loop safely
                # only on unflagged symbols (handled above).
            # flagged but predicate false from state 0: no transition (reject).
        return DFA(symbols, [0, 1], 0, [1], transitions)

    def _order_dfa(self, f, keys, symbols, index) -> DFA:
        a = index[("p", f.left)]
        b = index[("p", f.right)]
        # States: 0 = neither seen; 1 = left seen (right must come later,
        # immediately for Succ); 2 = done.
        transitions: dict[object, dict[object, object]] = {0: {}, 1: {}, 2: {}}
        strict_succ = isinstance(f, Succ)
        for sym in symbols:
            _ch, bits = sym
            la, lb = bits[a] == 1, bits[b] == 1
            if not la and not lb:
                transitions[0][sym] = 0
                transitions[2][sym] = 2
                if not strict_succ:
                    transitions[1][sym] = 1
            elif la and not lb:
                transitions[0][sym] = 1
            elif lb and not la:
                transitions[1][sym] = 2
            # la and lb simultaneously: x < y impossible, no transition.
        dfa = DFA(symbols, [0, 1, 2], 0, [2], transitions)
        return dfa

    def _cylindrified(self, f: MsoFormula, keys: tuple[VarKey, ...]) -> DFA:
        """Build ``f`` then add the tracks of ``keys`` it does not use."""
        own = self._keys(f)
        inner = self._build(f, own)
        if own == keys:
            return inner
        own_index = {k: i for i, k in enumerate(own)}
        positions = [own_index.get(k) for k in keys]

        # Expand symbols: each target symbol maps to the source symbol
        # obtained by keeping only the tracks f uses.
        target_symbols = _ext_symbols(self.alphabet, len(keys))
        expansions: dict[object, list[object]] = {}
        for sym in target_symbols:
            ch, bits = sym
            reduced = (ch, tuple(bits[i] for i, k in enumerate(keys) if k in own_index))
            expansions.setdefault(reduced, []).append(sym)
        transitions: dict[int, dict[object, int]] = {}
        for q, reduced, t in inner.edges():
            for sym in expansions.get(reduced, ()):
                transitions.setdefault(q, {})[sym] = t
        return DFA(
            target_symbols,
            range(inner.num_states),
            inner.start,
            inner.accepting_states(),
            transitions,
        )

    def _project(self, dfa: DFA, drop: int, keys: tuple[VarKey, ...]) -> DFA:
        """Remove track ``drop`` (NFA projection + determinize).

        Returns the minimal DFA directly: the bitmask subset construction
        feeds the Hopcroft pass in one chain.
        """
        target_symbols = _ext_symbols(self.alphabet, len(keys))
        transitions: dict[object, dict[object, set[object]]] = {}
        for q, sym, t in dfa.edges():
            ch, bits = sym
            reduced = (ch, bits[:drop] + bits[drop + 1:])
            transitions.setdefault(q, {}).setdefault(reduced, set()).add(t)
        nfa = NFA(
            target_symbols,
            range(dfa.num_states),
            [dfa.start],
            dfa.accepting_states(),
            transitions,
        )
        return nfa.to_min_dfa()


def mso_to_dfa(formula: MsoFormula, alphabet: Alphabet) -> DFA:
    """Compile an MSO *sentence* to a minimal DFA over ``alphabet``."""
    return MsoCompiler(alphabet).compile_sentence(formula)
