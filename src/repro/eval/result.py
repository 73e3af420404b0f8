"""Query results: possibly-infinite relations with named columns."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from typing import Optional, Union

from repro.automatic.relation import RelationAutomaton
from repro.errors import ArityError, UnsafeQueryError


class QueryResult:
    """The output of a query: a relation over the free variables.

    The restricted-domain engines (direct, algebra, sharded) compute a
    finite relation by construction and hand over its ``rows`` (a
    frozenset; ``relation`` is ``None``).  The automata engine hands over
    a ``relation`` automaton (``rows`` is ``None``), available as a
    regular set even when infinite; the paper's *state-safety* question
    "is ``phi(D)`` finite?" is :meth:`is_finite`.  The readers behave
    alike on both; rows come out of :meth:`tuples` sorted.  A finite
    answer is sorted once: :meth:`sorted_rows` memoizes the list on the
    result, so a cached result carries it (and its cache's cap bounds it).
    """

    __slots__ = ("variables", "rows", "relation", "_sorted")

    def __init__(
        self,
        variables: Sequence[str],
        answer: Union[RelationAutomaton, Iterable[tuple[str, ...]]],
    ):
        self.variables = tuple(variables)
        if isinstance(answer, RelationAutomaton):
            self.rows, self.relation = None, answer
        else:
            self.rows, self.relation = frozenset(answer), None
        self._sorted: Optional[list[tuple[str, ...]]] = None

    def __getstate__(self):
        # The memoized sort is derived data: pickles (warm-start spills)
        # carry the answer only.
        return None, {
            "variables": self.variables,
            "rows": self.rows,
            "relation": self.relation,
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._sorted = None

    def is_finite(self) -> bool:
        """True iff the query is safe on this database (finite output)."""
        return self.rows is not None or self.relation.is_finite()

    def count(self) -> int:
        """Number of output tuples; raises ``UnsafeQueryError`` if infinite."""
        if self.rows is not None:
            return len(self.rows)
        if not self.is_finite():
            raise UnsafeQueryError("query output is infinite")
        return self.relation.count()

    def sorted_rows(self) -> list[tuple[str, ...]]:
        """All output tuples in sorted order; raises ``UnsafeQueryError``
        if infinite.  Sorted on the first call and memoized: the list is
        shared by every caller, who must not mutate it."""
        rows = self._sorted
        if rows is None:
            rows = self._sorted = sorted(self.as_set())
        return rows

    @property
    def sorted_memo(self) -> Optional[list[tuple[str, ...]]]:
        """The memoized :meth:`sorted_rows` list, or ``None`` before the
        first call (never sorts)."""
        return self._sorted

    def tuples(self, limit: Optional[int] = None) -> Iterator[tuple[str, ...]]:
        """Iterate output tuples (must pass ``limit`` if infinite)."""
        if self.rows is not None:
            return islice(self.sorted_rows(), limit)
        if limit is None and not self.is_finite():
            raise UnsafeQueryError(
                "query output is infinite; pass limit= to sample it"
            )
        return self.relation.tuples(limit=limit)

    def as_set(self) -> frozenset[tuple[str, ...]]:
        """All output tuples; raises ``UnsafeQueryError`` if infinite."""
        if self.rows is not None:
            return self.rows
        if not self.is_finite():
            raise UnsafeQueryError("query output is infinite")
        return self.relation.set_of_tuples()

    def contains(self, tup: Sequence[str]) -> bool:
        if self.rows is None:
            return self.relation.contains(tup)
        if len(tup) != len(self.variables):
            raise ArityError(
                f"tuple {tup!r} has arity {len(tup)}, "
                f"expected {len(self.variables)}"
            )
        return tuple(tup) in self.rows

    def as_bool(self) -> bool:
        """Truth value (for Boolean queries / sentences)."""
        if self.rows is None:
            return self.relation.as_bool()
        if self.variables:
            raise ArityError("as_bool() requires arity 0")
        return bool(self.rows)

    def __repr__(self) -> str:
        shape = "finite" if self.is_finite() else "infinite"
        return f"QueryResult(vars={self.variables}, {shape})"
