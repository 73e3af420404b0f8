"""Database schemas: named relations with fixed arities (paper Section 2)."""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ArityError


class Schema:
    """A collection of relation names with positive arities.

    Examples
    --------
    >>> sc = Schema({"R": 1, "E": 2})
    >>> sc.arity("E")
    2
    """

    __slots__ = ("_arities", "_hash")

    def __init__(self, arities: Mapping[str, int]):
        for name, arity in arities.items():
            if not name or not name[0].isalpha():
                raise ValueError(f"bad relation name {name!r}")
            if arity <= 0:
                raise ArityError(f"relation {name!r} must have positive arity, got {arity}")
        self._arities = dict(arities)
        # Schemas key many caches (closures, translations, plan-cache
        # probes), so the hash is computed once; pickling rebuilds it,
        # since string hashes differ between processes.
        self._hash = hash(tuple(sorted(self._arities.items())))

    def __reduce__(self):
        return (Schema, (self._arities,))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise KeyError(f"relation {name!r} not in schema {self}") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._arities))

    def __contains__(self, name: object) -> bool:
        return name in self._arities

    def is_unary(self) -> bool:
        """True iff every relation is unary (Proposition 3's setting)."""
        return all(a == 1 for a in self._arities.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._arities == other._arities

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in sorted(self._arities.items()))
        return f"Schema({inner})"
