"""Database instances over ``Sigma*``: finite relations of strings.

Implements the paper's Section 2 notions: active domain ``adom(D)``, the
**width** of a database (the largest subset of the active domain pairwise
comparable by prefix — Proposition 5's parameter), and the width-1
re-encoding every database admits.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence

from repro.automatic.relation import RelationAutomaton
from repro.database.schema import Schema
from repro.errors import ArityError
from repro.strings import is_strict_prefix, prefix_closure
from repro.strings.alphabet import Alphabet


class Database:
    """An instance of a :class:`Schema` over strings of a fixed alphabet.

    Relations are immutable frozensets of string tuples.

    Examples
    --------
    >>> from repro.strings import BINARY
    >>> db = Database(BINARY, {"R": {("01",), ("0110",)}})
    >>> sorted(db.adom)
    ['01', '0110']
    """

    __slots__ = (
        "alphabet",
        "schema",
        "_relations",
        "_adom",
        "_fingerprint",
        "_prefix_closure",
        "_prefix_closure_size",
        "_max_string_length",
        "_total_string_length",
        "_version",
        # The plan cache remembers the snapshots it validated weakly.
        "__weakref__",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        relations: Mapping[str, Iterable[Sequence[str]]],
        schema: Schema | None = None,
    ):
        self.alphabet = alphabet
        # Lazily filled by repro.engine.cache.database_fingerprint (or
        # seeded with a chained version fingerprint by repro.delta).
        self._fingerprint: str | None = None
        rels: dict[str, frozenset[tuple[str, ...]]] = {}
        arities: dict[str, int] = {}
        for name, tuples in relations.items():
            normalized = set()
            for tup in tuples:
                if isinstance(tup, str):
                    tup = (tup,)
                tup = tuple(tup)
                for s in tup:
                    alphabet.check_string(s)
                normalized.add(tup)
            if normalized:
                lengths = {len(t) for t in normalized}
                if len(lengths) != 1:
                    raise ArityError(f"relation {name!r} has mixed arities {lengths}")
                arities[name] = lengths.pop()
            rels[name] = frozenset(normalized)
        if schema is None:
            # Infer arity 1 for empty relations.
            for name in rels:
                arities.setdefault(name, 1)
            schema = Schema(arities)
        else:
            for name, tuples in rels.items():
                if name not in schema:
                    raise KeyError(f"relation {name!r} not in schema {schema}")
                if tuples and arities[name] != schema.arity(name):
                    raise ArityError(
                        f"relation {name!r} has arity {arities[name]}, "
                        f"schema says {schema.arity(name)}"
                    )
            for name in schema.relation_names:
                rels.setdefault(name, frozenset())
        self.schema = schema
        self._relations = rels
        adom: set[str] = set()
        for tuples in rels.values():
            for tup in tuples:
                adom.update(tup)
        self._adom = frozenset(adom)
        self._prefix_closure: frozenset[str] | None = None
        self._prefix_closure_size: int | None = None
        self._max_string_length: int | None = None
        self._total_string_length: int | None = None
        # (store, version number) for a snapshot a repro.delta store made.
        self._version = None

    # ------------------------------------------------------------- accessors

    def relation(self, name: str) -> frozenset[tuple[str, ...]]:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"relation {name!r} not in database") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return self.schema.relation_names

    @property
    def adom(self) -> frozenset[str]:
        """The active domain: every string appearing in some tuple."""
        return self._adom

    def adom_prefix_closure(self) -> frozenset[str]:
        """``prefix(adom(D))`` — the domain of prefix-restricted quantifiers.

        Memoized per instance: snapshots are immutable, and both the
        gamma expansions and the planner's cost estimates ask repeatedly.
        """
        if self._prefix_closure is None:
            self._prefix_closure = prefix_closure(self._adom)
            self._prefix_closure_size = len(self._prefix_closure)
        return self._prefix_closure

    def adom_prefix_closure_size(self) -> int:
        """``|prefix(adom(D))|`` without materializing the closure.

        The planner's cost model only needs the cardinality; counting
        trie nodes over the sorted active domain (one new node per
        character past the longest-common-prefix with the previous
        string) avoids constructing and hashing every prefix string.
        """
        if self._prefix_closure_size is None:
            if not self._adom:
                self._prefix_closure_size = 0
                return 0
            count = 1  # the empty string
            prev = ""
            for s in sorted(self._adom):
                lcp = 0
                limit = min(len(prev), len(s))
                while lcp < limit and prev[lcp] == s[lcp]:
                    lcp += 1
                count += len(s) - lcp
                prev = s
            self._prefix_closure_size = count
        return self._prefix_closure_size

    @property
    def max_string_length(self) -> int:
        """Length of the longest active-domain string (-1 if empty)."""
        if self._max_string_length is None:
            self._max_string_length = max(
                (len(s) for s in self._adom), default=-1
            )
        return self._max_string_length

    def total_string_length(self) -> int:
        """Summed length of every string in every tuple (memoized)."""
        if self._total_string_length is None:
            self._total_string_length = sum(
                len(s)
                for rows in self._relations.values()
                for row in rows
                for s in row
            )
        return self._total_string_length

    @property
    def size(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(t) for t in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.schema == other.schema
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (self.alphabet, self.schema, tuple(sorted(self._relations.items())))
        )

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(t)}" for n, t in sorted(self._relations.items()))
        return f"Database({sizes}; |adom|={len(self._adom)})"

    # ------------------------------------------------------------- modifiers

    def with_relation(self, name: str, tuples: Iterable[Sequence[str]]) -> "Database":
        """A new database with one relation replaced/added (schema re-inferred)."""
        rels: dict[str, Iterable[Sequence[str]]] = dict(self._relations)
        rels[name] = [tuple(t) for t in tuples]
        return Database(self.alphabet, rels)

    @classmethod
    def _evolved(
        cls,
        alphabet: Alphabet,
        schema: Schema,
        relations: dict[str, frozenset[tuple[str, ...]]],
        adom: frozenset[str],
        fingerprint: str | None = None,
        version: tuple | None = None,
        prefix_closure_size: int | None = None,
        max_string_length: int | None = None,
        total_string_length: int | None = None,
    ) -> "Database":
        """Trusted constructor for the delta layer (:mod:`repro.delta`).

        Skips per-tuple validation and the O(database) active-domain
        recomputation — the caller passes pre-validated relation
        frozensets (unchanged ones shared with the parent snapshot) and
        an incrementally maintained ``adom``, which is what makes
        snapshot evolution O(|delta|) instead of O(|database|).
        ``fingerprint`` seeds the cache-key memo with the version-chain
        fingerprint so no layer ever rehashes the full instance;
        ``version`` is the ``(store, version number)`` of the
        :class:`~repro.delta.VersionedDatabase` making this snapshot, the
        link by which it reaches its own history.  The statistics seed
        the planner's memos when the store derived them from the delta.
        """
        self = cls.__new__(cls)
        self.alphabet = alphabet
        self.schema = schema
        self._relations = relations
        self._adom = adom
        self._fingerprint = fingerprint
        self._prefix_closure = None
        self._prefix_closure_size = prefix_closure_size
        self._max_string_length = max_string_length
        self._total_string_length = total_string_length
        self._version = version
        return self

    # ---------------------------------------------------------------- width

    def width(self) -> int:
        """The paper's width: the longest prefix-chain inside ``adom(D)``.

        Computed by dynamic programming over strings ordered by length.
        """
        if not self._adom:
            return 0
        chain: dict[str, int] = {}
        for s in sorted(self._adom, key=len):
            best = 0
            for p in chain:  # all strictly shorter processed strings
                if is_strict_prefix(p, s) and chain[p] > best:
                    best = chain[p]
            chain[s] = best + 1
        return max(chain.values())

    def width_one_encoding(self) -> tuple["Database", dict[str, str]]:
        """Re-encode onto a prefix-antichain (the paper's width-1 transform).

        Every database is isomorphic w.r.t. the SC-predicates to a width-1
        database (Section 5.2).  Strings are re-coded symbol-by-symbol in a
        self-delimiting binary code over the first two alphabet symbols:
        each symbol becomes its index in binary with every bit followed by
        ``0``, and the code ends with ``11`` — no code word is a prefix of
        another.

        Returns the re-encoded database and the encoding map.
        """
        if len(self.alphabet) < 2:
            raise ValueError("width-1 encoding needs at least two alphabet symbols")
        zero, one = self.alphabet.symbols[0], self.alphabet.symbols[1]
        bits_per_symbol = max(1, math.ceil(math.log2(len(self.alphabet))))

        @functools.lru_cache(maxsize=None)
        def encode(s: str) -> str:
            out = []
            for ch in s:
                index = self.alphabet.index(ch)
                for bit_pos in range(bits_per_symbol - 1, -1, -1):
                    bit = (index >> bit_pos) & 1
                    out.append(one if bit else zero)
                    out.append(zero)
            out.append(one)
            out.append(one)
            return "".join(out)

        mapping = {s: encode(s) for s in self._adom}
        rels = {
            name: [tuple(mapping[s] for s in tup) for tup in tuples]
            for name, tuples in self._relations.items()
        }
        return Database(self.alphabet, rels, schema=self.schema), mapping

    # ------------------------------------------------------------- automata

    def relation_automaton(self, name: str) -> RelationAutomaton:
        """The finite relation as a convolution automaton (for the engine)."""
        tuples = self.relation(name)
        arity = self.schema.arity(name)
        return RelationAutomaton.from_tuples(self.alphabet, arity, tuples)
