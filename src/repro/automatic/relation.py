"""Relations over ``Sigma*`` represented as automata on convolution words.

:class:`RelationAutomaton` is the workhorse of the library's exact
semantics: a ``k``-ary relation of strings is stored as a DFA over the
column alphabet of arity ``k``, and first-order connectives become automata
operations:

========================  =========================================
logic                     automata
========================  =========================================
conjunction               product (intersection)
disjunction               product (union)
negation                  complement within the valid-padding set
existential quantifier    track projection + pad saturation
variable reuse/reorder    track permutation, cylindrification
========================  =========================================

Projection is the only subtle step: removing a track can strand transitions
whose columns carried data *only* on the removed track (these occur in a
suffix of the word, after every other track has been padded).  Such suffixes
must be folded into acceptance — :meth:`RelationAutomaton.project` closes
the accepting set under reachability via removed-track-only columns before
deleting the track.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.automata import kernel
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.ops import equivalent as dfa_equivalent
from repro.automatic.convolution import PAD, columns, convolve, deconvolve, valid_pad_dfa
from repro.engine.metrics import METRICS
from repro.errors import ArityError
from repro.strings.alphabet import Alphabet


class RelationAutomaton:
    """A ``k``-ary string relation recognized by a convolution automaton.

    Instances are immutable; every operation returns a fresh relation whose
    language is normalized (intersected with the valid-padding set and
    minimized), so equal relations have structurally identical minimal DFAs.
    """

    __slots__ = ("alphabet", "arity", "dfa")

    def __init__(self, alphabet: Alphabet, arity: int, dfa: DFA, *, normalized: bool = False):
        self.alphabet = alphabet
        self.arity = arity
        if normalized:
            self.dfa = dfa
        else:
            # Normalization is the hottest chain in the automata backend:
            # one lazy pipeline (dfa ∧ valid-padding) plus one Hopcroft
            # pass.  The valid-padding DFA is cached per (alphabet, arity).
            valid = valid_pad_dfa(alphabet, arity)
            METRICS.inc("automata.minimizations")
            self.dfa = kernel.product_minimized(dfa, valid, "and")
        METRICS.inc("automata.relations_built")
        METRICS.inc("automata.relation_states", self.dfa.num_states)

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_tuples(
        cls, alphabet: Alphabet, arity: int, tuples: Iterable[Sequence[str]]
    ) -> "RelationAutomaton":
        """Finite relation from explicit tuples (trie over convolution words)."""
        root = 0
        nxt = 1
        transitions: dict[int, dict[object, int]] = {}
        accepting: set[int] = set()
        for tup in tuples:
            if len(tup) != arity:
                raise ArityError(f"tuple {tup!r} has arity {len(tup)}, expected {arity}")
            for s in tup:
                alphabet.check_string(s)
            q = root
            for col in convolve(tuple(tup)):
                delta = transitions.setdefault(q, {})
                if col not in delta:
                    delta[col] = nxt
                    nxt += 1
                q = delta[col]
            accepting.add(q)
        dfa = DFA(columns(alphabet, arity), range(nxt), root, accepting, transitions)
        return cls(alphabet, arity, dfa.minimize(), normalized=True)

    @classmethod
    def empty(cls, alphabet: Alphabet, arity: int) -> "RelationAutomaton":
        """The empty ``k``-ary relation."""
        dfa = DFA(columns(alphabet, arity), [0], 0, [], {})
        return cls(alphabet, arity, dfa, normalized=True)

    @classmethod
    def universe(cls, alphabet: Alphabet, arity: int) -> "RelationAutomaton":
        """The full relation ``(Sigma*)^k``."""
        dfa = valid_pad_dfa(alphabet, arity).minimize()
        return cls(alphabet, arity, dfa, normalized=True)

    @classmethod
    def true_relation(cls, alphabet: Alphabet) -> "RelationAutomaton":
        """Arity-0 relation representing *true* (accepts the empty word)."""
        dfa = DFA([], [0], 0, [0], {})
        return cls(alphabet, 0, dfa, normalized=True)

    @classmethod
    def false_relation(cls, alphabet: Alphabet) -> "RelationAutomaton":
        """Arity-0 relation representing *false*."""
        dfa = DFA([], [0], 0, [], {})
        return cls(alphabet, 0, dfa, normalized=True)

    # ----------------------------------------------------------------- basics

    def contains(self, tup: Sequence[str]) -> bool:
        """Membership test for a concrete tuple of strings."""
        if len(tup) != self.arity:
            raise ArityError(f"tuple {tup!r} has arity {len(tup)}, expected {self.arity}")
        return self.dfa.accepts(convolve(tuple(tup)))

    def as_bool(self) -> bool:
        """Truth value of an arity-0 relation."""
        if self.arity != 0:
            raise ArityError("as_bool() requires arity 0")
        return self.dfa.accepts(())

    def is_empty(self) -> bool:
        return self.dfa.is_empty()

    def is_finite(self) -> bool:
        """True iff the relation contains finitely many tuples."""
        return self.dfa.is_finite_language()

    def count(self) -> int:
        """Number of tuples; raises ``ValueError`` if infinite."""
        return self.dfa.count_words()

    def tuples(self, limit: Optional[int] = None) -> Iterator[tuple[str, ...]]:
        """Enumerate tuples (shortest convolutions first).

        For infinite relations a ``limit`` must be supplied.
        """
        if limit is None:
            words = self.dfa.iter_words()
        else:
            words = self.dfa.iter_words(max_length=None) if self.is_finite() else None
            if words is None:
                # Infinite: enumerate by growing convolution length.
                words = self._words_up_to_limit(limit)
        produced = 0
        for w in words:
            yield deconvolve(w, self.arity)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def _words_up_to_limit(self, limit: int) -> Iterator[tuple]:
        length = 0
        produced = 0
        while produced < limit:
            found_this_len = False
            for w in self.dfa.iter_words(max_length=length):
                if len(w) == length:
                    found_this_len = True
                    yield w
                    produced += 1
                    if produced >= limit:
                        return
            length += 1
            if length > self.dfa.num_states and not found_this_len and self.dfa.is_finite_language():
                return

    def set_of_tuples(self) -> frozenset[tuple[str, ...]]:
        """The relation as a frozenset; raises ``ValueError`` if infinite."""
        if not self.is_finite():
            raise ValueError("relation is infinite")
        return frozenset(self.tuples())

    def equivalent(self, other: "RelationAutomaton") -> bool:
        """Extensional equality of two relations of the same arity."""
        self._check_compatible(other)
        return dfa_equivalent(self.dfa, other.dfa)

    def _check_compatible(self, other: "RelationAutomaton") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("relations over different alphabets")
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __repr__(self) -> str:
        return (
            f"RelationAutomaton(arity={self.arity}, states={self.dfa.num_states}, "
            f"alphabet={self.alphabet})"
        )

    # ------------------------------------------------------------ boolean ops

    def intersection(self, other: "RelationAutomaton") -> "RelationAutomaton":
        self._check_compatible(other)
        METRICS.inc("automata.intersections")
        METRICS.inc("automata.minimizations")
        dfa = kernel.product_minimized(self.dfa, other.dfa, "and")
        return RelationAutomaton(self.alphabet, self.arity, dfa, normalized=True)

    def union(self, other: "RelationAutomaton") -> "RelationAutomaton":
        self._check_compatible(other)
        METRICS.inc("automata.unions")
        METRICS.inc("automata.minimizations")
        dfa = kernel.product_minimized(self.dfa, other.dfa, "or")
        return RelationAutomaton(self.alphabet, self.arity, dfa, normalized=True)

    def difference(self, other: "RelationAutomaton") -> "RelationAutomaton":
        self._check_compatible(other)
        METRICS.inc("automata.minimizations")
        dfa = kernel.product_minimized(self.dfa, other.dfa, "diff")
        return RelationAutomaton(self.alphabet, self.arity, dfa, normalized=True)

    @classmethod
    def intersect_all(
        cls, relations: Sequence["RelationAutomaton"]
    ) -> "RelationAutomaton":
        """N-ary conjunction: one lazy product pipeline, one minimization.

        Folding pairwise would minimize (and materialize) every
        intermediate; the kernel explores the reachable n-ary product
        directly.
        """
        first = relations[0]
        for other in relations[1:]:
            first._check_compatible(other)
        if len(relations) == 1:
            return first
        METRICS.inc("automata.intersections", len(relations) - 1)
        METRICS.inc("automata.minimizations")
        dfa = kernel.intersect_all_minimized([r.dfa for r in relations])
        return cls(first.alphabet, first.arity, dfa, normalized=True)

    @classmethod
    def union_all(
        cls, relations: Sequence["RelationAutomaton"]
    ) -> "RelationAutomaton":
        """N-ary disjunction: one lazy product pipeline, one minimization."""
        first = relations[0]
        for other in relations[1:]:
            first._check_compatible(other)
        if len(relations) == 1:
            return first
        METRICS.inc("automata.unions", len(relations) - 1)
        METRICS.inc("automata.minimizations")
        dfa = kernel.union_all_minimized([r.dfa for r in relations])
        return cls(first.alphabet, first.arity, dfa, normalized=True)

    def complement(self) -> "RelationAutomaton":
        """Complement within ``(Sigma*)^k`` (valid convolutions only)."""
        METRICS.inc("automata.complements")
        comp = self.dfa.complement()
        # The raw complement contains invalid padding words; re-normalize.
        return RelationAutomaton(self.alphabet, self.arity, comp)

    # -------------------------------------------------------- track surgery

    def project(self, track: int) -> "RelationAutomaton":
        """Existential projection: remove ``track`` (0-based).

        Implements ``exists x_track . R`` by (1) closing acceptance under
        suffixes that carry data only on the removed track, (2) deleting the
        track from every column, (3) determinizing and re-normalizing.
        """
        if not 0 <= track < self.arity:
            raise ArityError(f"track {track} out of range for arity {self.arity}")
        dfa = self.dfa
        edges = list(dfa.edges())
        # Step 1: states that can reach acceptance via columns non-PAD only
        # on `track` become accepting.
        only_track_cols = {
            col
            for col in dfa.alphabet
            if col[track] is not PAD
            and all(col[i] is PAD for i in range(self.arity) if i != track)
        }
        back: dict[int, set[int]] = {}
        for q, col, t in edges:
            if col in only_track_cols:
                back.setdefault(t, set()).add(q)
        new_accepting = set(dfa.accepting_states())
        queue = deque(new_accepting)
        while queue:
            q = queue.popleft()
            for p in back.get(q, ()):
                if p not in new_accepting:
                    new_accepting.add(p)
                    queue.append(p)
        # Step 2: delete the track; transitions on only-track columns vanish
        # (their job is now done by the enlarged accepting set).
        new_arity = self.arity - 1
        transitions: dict[int, dict[object, set[int]]] = {}
        for q, col, t in edges:
            reduced = col[:track] + col[track + 1:]
            if all(x is PAD for x in reduced):
                continue
            transitions.setdefault(q, {}).setdefault(reduced, set()).add(t)
        nfa = NFA(
            columns(self.alphabet, new_arity),
            range(dfa.num_states),
            [dfa.start],
            new_accepting,
            transitions,
        )
        METRICS.inc("automata.projections")
        METRICS.inc("automata.determinizations")
        METRICS.inc("automata.minimizations")
        return RelationAutomaton(self.alphabet, new_arity, nfa.to_min_dfa())

    def cylindrify(self, position: int) -> "RelationAutomaton":
        """Insert a fresh unconstrained track at ``position`` (0-based).

        The new track may hold any string, including one longer than all
        existing tracks (handled by an accepting extension state reading
        columns that are PAD everywhere except the new track).
        """
        if not 0 <= position <= self.arity:
            raise ArityError(f"position {position} out of range for arity {self.arity}")
        dfa = self.dfa
        new_arity = self.arity + 1
        fill = tuple(self.alphabet.symbols) + (PAD,)
        ext_state = -1  # never a state of `dfa`
        transitions: dict[int, dict[object, int]] = {}
        for q, col, t in dfa.edges():
            new_delta = transitions.setdefault(q, {})
            for s in fill:
                new_delta[col[:position] + (s,) + col[position:]] = t
        # Suffix extension: after the original word ends (accepting state),
        # the new track may continue alone.
        ext_cols = [
            tuple(PAD if i != position else s for i in range(new_arity))
            for s in self.alphabet.symbols
        ]
        accepting = dfa.accepting_states()
        for q in accepting:
            delta = transitions.setdefault(q, {})
            for col in ext_cols:
                delta[col] = ext_state
        transitions[ext_state] = {col: ext_state for col in ext_cols}
        new_dfa = DFA(
            columns(self.alphabet, new_arity),
            [*range(dfa.num_states), ext_state],
            dfa.start,
            [*accepting, ext_state],
            transitions,
        )
        METRICS.inc("automata.cylindrifications")
        return RelationAutomaton(self.alphabet, new_arity, new_dfa)

    def reorder(self, permutation: Sequence[int]) -> "RelationAutomaton":
        """Permute tracks: new track ``i`` is old track ``permutation[i]``."""
        if sorted(permutation) != list(range(self.arity)):
            raise ArityError(f"{permutation!r} is not a permutation of 0..{self.arity - 1}")
        perm = tuple(permutation)

        def remap(col):
            return tuple(col[perm[i]] for i in range(self.arity))

        dfa = self.dfa.map_symbols(remap)
        return RelationAutomaton(self.alphabet, self.arity, dfa, normalized=True)

    def join(
        self,
        other: "RelationAutomaton",
        positions: Sequence[tuple[int, int]],
    ) -> "RelationAutomaton":
        """Relational natural join: pair up tracks and merge.

        ``positions`` lists ``(my_track, other_track)`` pairs to equate;
        the result's tracks are all of ``self``'s followed by ``other``'s
        *non-joined* tracks, in order.  A convenience composition of
        cylindrification, equality constraints and projection.
        """
        self._check_alphabet(other)
        joined_other = sorted(o for _m, o in positions)
        if len(set(joined_other)) != len(joined_other):
            raise ArityError("each track may be joined at most once")
        # Widen self with other's tracks appended.
        widened = self
        for _ in range(other.arity):
            widened = widened.cylindrify(widened.arity)
        aligned_other = other
        for _ in range(self.arity):
            aligned_other = aligned_other.cylindrify(0)
        combined = widened.intersection(aligned_other)
        for mine, theirs in positions:
            combined = combined.duplicate_constrain(mine, self.arity + theirs)
        # Project away the joined copies (right-hand side), highest first.
        for theirs in sorted(joined_other, reverse=True):
            combined = combined.project(self.arity + theirs)
        return combined

    def _check_alphabet(self, other: "RelationAutomaton") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("relations over different alphabets")

    def duplicate_constrain(self, track_a: int, track_b: int) -> "RelationAutomaton":
        """Constrain two tracks to be equal (used for repeated variables)."""
        dfa = self.dfa
        eq_cols = {
            col
            for col in dfa.alphabet
            if col[track_a] == col[track_b]
            or (col[track_a] is PAD and col[track_b] is PAD)
        }
        transitions: dict[int, dict[object, int]] = {}
        for q, col, t in dfa.edges():
            if col in eq_cols:
                transitions.setdefault(q, {})[col] = t
        constrained = DFA(
            dfa.alphabet,
            range(dfa.num_states),
            dfa.start,
            dfa.accepting_states(),
            transitions,
        )
        return RelationAutomaton(self.alphabet, self.arity, constrained)
