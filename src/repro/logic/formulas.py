"""First-order formulas of the string calculi RC(SC, M).

A formula is built from

* *structure atoms* (:class:`Atom`): the interpreted predicates of S,
  S_len, S_left, S_reg — prefix, equal-length, last-symbol, the regular
  pattern predicates, lexicographic order, equality;
* *database atoms* (:class:`RelAtom`): schema relations;
* boolean connectives; and
* quantifiers carrying a :class:`QuantKind` — the paper distinguishes
  *natural* quantification over all of ``Sigma*`` from the restricted kinds
  used by its collapse theorems (active-domain, prefix-restricted
  [Proposition 2], length-restricted [Proposition 4]).

Predicate names used by :class:`Atom`:

==============  =====  ==========================================  =========
name            arity  meaning                                     structure
==============  =====  ==========================================  =========
``eq``          2      ``x = y``                                   all
``prefix``      2      ``x <<= y``                                 all
``sprefix``     2      ``x << y``                                  all
``ext1``        2      ``y`` extends ``x`` by one symbol           all
``last``        1      last symbol is ``param``                    all
``el``          2      ``|x| = |y|``                               S_len
``len_le``      2      ``|x| <= |y|``                              S_len
``len_lt``      2      ``|x| < |y|``                               S_len
``lex_le``      2      lexicographic                               all
``lex_lt``      2      strict lexicographic                        all
``matches``     1      ``x`` in the language of regex ``param``    see note
``psuffix``     2      ``P_L``: ``x <<= y`` and ``y - x`` in L     see note
==============  =====  ==========================================  =========

Note: ``matches``/``psuffix`` with a *star-free* parameter language belong
to S's definable predicates; with a general regular parameter they are
S_reg's defining predicates (Section 7).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.errors import ArityError
from repro.logic.terms import Param, Term, Var


class QuantKind(enum.Enum):
    """How a quantifier ranges (paper Sections 5.1-5.2).

    NATURAL
        over all of ``Sigma*`` — the default first-order semantics.
    ADOM
        over the active domain of the database.
    PREFIX
        over prefixes of active-domain strings and of the free variables,
        allowing a bounded right-extension (the paper's ``exists x in
        ext-dom`` of Proposition 2).
    LENGTH
        over all strings no longer than the longest active-domain / free
        string, plus a bounded slack (Proposition 4's length-restricted
        quantifiers).
    """

    NATURAL = "natural"
    ADOM = "adom"
    PREFIX = "prefix"
    LENGTH = "length"


class Formula:
    """Base class of formulas; subclasses are frozen dataclasses."""

    def free_variables(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, mapping: dict[str, Term]) -> "Formula":
        """Capture-avoiding substitution of terms for free variables."""
        raise NotImplementedError

    def children(self) -> tuple["Formula", ...]:
        return ()

    def relation_names(self) -> frozenset[str]:
        """Names of all schema relations used in the formula."""
        names: set[str] = set()
        for f in self.walk():
            if isinstance(f, RelAtom):
                names.add(f.name)
        return frozenset(names)

    def database_dependent(self) -> bool:
        """Does evaluation depend on the database instance?

        True when the formula mentions a schema relation *or* contains a
        restricted quantifier — ADOM, PREFIX, and LENGTH quantifiers all
        derive their range from the active domain ``adom(D)``, so only
        relation-free formulas whose quantifiers are all NATURAL denote
        the same relation over every database.
        """
        for f in self.walk():
            if isinstance(f, RelAtom):
                return True
            if isinstance(f, (Exists, Forall)) and f.kind is not QuantKind.NATURAL:
                return True
        return False

    def walk(self) -> Iterator["Formula"]:
        """All subformulas (pre-order)."""
        yield self
        for c in self.children():
            yield from c.walk()

    def atoms(self) -> Iterator["Formula"]:
        for f in self.walk():
            if isinstance(f, (Atom, RelAtom)):
                yield f

    def quantifier_rank(self) -> int:
        if isinstance(self, (Exists, Forall)):
            return 1 + self.body.quantifier_rank()
        return max((c.quantifier_rank() for c in self.children()), default=0)

    def quantifier_kinds(self) -> frozenset[QuantKind]:
        kinds = set()
        for f in self.walk():
            if isinstance(f, (Exists, Forall)):
                kinds.add(f.kind)
        return frozenset(kinds)

    # Connective sugar -----------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Or((Not(self), other))


@dataclass(frozen=True)
class TrueF(Formula):
    """The formula *true*."""

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return self

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    """The formula *false*."""

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return self

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom(Formula):
    """An interpreted (structure) atom.

    ``param`` carries the symbol of ``last`` or the regex text of
    ``matches`` / ``psuffix``; it is part of the predicate, not an argument.
    In a query template a pattern is a :class:`~repro.logic.terms.Param`
    slot instead of regex text.
    """

    pred: str
    args: tuple[Term, ...]
    param: Union[str, Param, None] = None

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.args:
            out |= t.variables()
        return out

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return Atom(self.pred, tuple(t.substitute(mapping) for t in self.args), self.param)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.args)
        if isinstance(self.param, Param):
            return f"{self.pred}({inner}, {self.param})"
        if self.param is not None:
            if self.pred == "last":
                return f"last({inner}, '{self.param}')"
            return f'{self.pred}({inner}, "{self.param}")'
        return f"{self.pred}({inner})"


@dataclass(frozen=True)
class RelAtom(Formula):
    """A database (schema) relation atom ``R(t_1, ..., t_k)``."""

    name: str
    args: tuple[Term, ...]

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.args:
            out |= t.variables()
        return out

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return RelAtom(self.name, tuple(t.substitute(mapping) for t in self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def free_variables(self) -> frozenset[str]:
        return self.inner.free_variables()

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return Not(self.inner.substitute(mapping))

    def children(self) -> tuple[Formula, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"!{_paren(self.inner)}"


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 1:
            raise ValueError("And needs at least one conjunct")

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.free_variables()
        return out

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return And(tuple(p.substitute(mapping) for p in self.parts))

    def children(self) -> tuple[Formula, ...]:
        return self.parts

    def __str__(self) -> str:
        return " & ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 1:
            raise ValueError("Or needs at least one disjunct")

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.free_variables()
        return out

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        return Or(tuple(p.substitute(mapping) for p in self.parts))

    def children(self) -> tuple[Formula, ...]:
        return self.parts

    def __str__(self) -> str:
        return " | ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula
    kind: QuantKind = QuantKind.NATURAL

    def free_variables(self) -> frozenset[str]:
        return self.body.free_variables() - {self.var}

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        mapping = {k: v for k, v in mapping.items() if k != self.var}
        if not mapping:
            return self
        clash = {v for t in mapping.values() for v in t.variables()}
        if self.var in clash:
            fresh = fresh_variable(self.var, clash | self.body.free_variables())
            body = self.body.substitute({self.var: Var(fresh)})
            return Exists(fresh, body.substitute(mapping), self.kind)
        return Exists(self.var, self.body.substitute(mapping), self.kind)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def __str__(self) -> str:
        kind = "" if self.kind is QuantKind.NATURAL else f" {self.kind.value}"
        return f"exists{kind} {self.var}: {_paren(self.body)}"


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula
    kind: QuantKind = QuantKind.NATURAL

    def free_variables(self) -> frozenset[str]:
        return self.body.free_variables() - {self.var}

    def substitute(self, mapping: dict[str, Term]) -> Formula:
        mapping = {k: v for k, v in mapping.items() if k != self.var}
        if not mapping:
            return self
        clash = {v for t in mapping.values() for v in t.variables()}
        if self.var in clash:
            fresh = fresh_variable(self.var, clash | self.body.free_variables())
            body = self.body.substitute({self.var: Var(fresh)})
            return Forall(fresh, body.substitute(mapping), self.kind)
        return Forall(self.var, self.body.substitute(mapping), self.kind)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def __str__(self) -> str:
        kind = "" if self.kind is QuantKind.NATURAL else f" {self.kind.value}"
        return f"forall{kind} {self.var}: {_paren(self.body)}"


def _paren(f: Formula) -> str:
    if isinstance(f, (Atom, RelAtom, TrueF, FalseF, Not)):
        return str(f)
    return f"({f})"


def fresh_variable(base: str, used: frozenset[str] | set[str]) -> str:
    """A variable name derived from ``base`` that avoids ``used``."""
    if base not in used:
        return base
    for i in itertools.count():
        candidate = f"{base}_{i}"
        if candidate not in used:
            return candidate
    raise AssertionError("unreachable")


#: Arities of the interpreted predicates (checked at construction sites).
PRED_ARITIES = {
    "eq": 2,
    "prefix": 2,
    "sprefix": 2,
    "ext1": 2,
    "last": 1,
    "el": 2,
    "len_le": 2,
    "len_lt": 2,
    "lex_le": 2,
    "lex_lt": 2,
    "matches": 1,
    "psuffix": 2,
}


def check_atom(atom: Atom) -> Atom:
    """Validate predicate name/arity; returns the atom for chaining."""
    if atom.pred not in PRED_ARITIES:
        raise ArityError(f"unknown interpreted predicate {atom.pred!r}")
    expected = PRED_ARITIES[atom.pred]
    if len(atom.args) != expected:
        raise ArityError(
            f"predicate {atom.pred!r} expects {expected} arguments, got {len(atom.args)}"
        )
    if atom.pred in ("last", "matches", "psuffix") and atom.param is None:
        raise ArityError(f"predicate {atom.pred!r} requires a parameter")
    return atom
