"""Terms of the string calculi.

A term denotes a string: a variable, the empty-string constant, a string
literal, or the application of one of the paper's string *functions*
(``l_a`` add-last, ``f_a`` add-first, ``TRIM_a`` trim-first, ``^`` longest
common prefix).  Terms are immutable and hashable.

Which function symbols are legal depends on the structure (e.g. ``f_a`` and
``TRIM_a`` belong to S_left only); that check lives in
:mod:`repro.structures`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class Term:
    """Base class for terms; subclasses are frozen dataclasses."""

    def variables(self) -> frozenset[str]:
        """Names of the variables occurring in this term."""
        raise NotImplementedError

    def substitute(self, mapping: dict[str, "Term"]) -> "Term":
        """Replace variables by terms according to ``mapping``."""
        raise NotImplementedError

    def evaluate(self, assignment: dict[str, str]) -> str:
        """Concrete value of the term under a variable assignment."""
        raise NotImplementedError

    def is_ground(self) -> bool:
        return not self.variables()


@dataclass(frozen=True)
class Var(Term):
    """A string variable."""

    name: str

    def variables(self) -> frozenset[str]:
        return frozenset([self.name])

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return mapping.get(self.name, self)

    def evaluate(self, assignment: dict[str, str]) -> str:
        try:
            return assignment[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StrConst(Term):
    """A string literal (the empty literal is the constant ``epsilon``)."""

    value: str

    def variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return self

    def evaluate(self, assignment: dict[str, str]) -> str:
        return self.value

    def __str__(self) -> str:
        return "eps" if not self.value else f"'{self.value}'"


#: The empty-string constant (the paper's ``epsilon``).
EPS = StrConst("")


@dataclass(frozen=True)
class Param(Term):
    """Slot ``index`` of a query template: a string literal lifted out of
    the query text (:func:`repro.logic.literals.lift_literals`), bound to
    a value only at run time.

    Evaluation reads the bound value from the assignment under
    :attr:`key`, a name no parsed variable can take, so a condition
    checker binds a template's values by extending its row assignment.
    """

    index: int

    @property
    def key(self) -> str:
        return f"?{self.index}"

    def variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return self

    def evaluate(self, assignment: dict[str, str]) -> str:
        try:
            return assignment[self.key]
        except KeyError:
            raise KeyError(f"unbound template slot {self.key}") from None

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class AddLast(Term):
    """``l_a(t) = t . a`` (appends symbol ``symbol``)."""

    inner: Term
    symbol: str

    def variables(self) -> frozenset[str]:
        return self.inner.variables()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return AddLast(self.inner.substitute(mapping), self.symbol)

    def evaluate(self, assignment: dict[str, str]) -> str:
        return self.inner.evaluate(assignment) + self.symbol

    def __str__(self) -> str:
        return f"add_last({self.inner}, '{self.symbol}')"


@dataclass(frozen=True)
class AddFirst(Term):
    """``f_a(t) = a . t`` (prepends symbol ``symbol``; S_left only)."""

    inner: Term
    symbol: str

    def variables(self) -> frozenset[str]:
        return self.inner.variables()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return AddFirst(self.inner.substitute(mapping), self.symbol)

    def evaluate(self, assignment: dict[str, str]) -> str:
        return self.symbol + self.inner.evaluate(assignment)

    def __str__(self) -> str:
        return f"add_first({self.inner}, '{self.symbol}')"


@dataclass(frozen=True)
class TrimFirst(Term):
    """``TRIM_a(t)``: drop one leading ``symbol``, else epsilon (S_left only)."""

    inner: Term
    symbol: str

    def variables(self) -> frozenset[str]:
        return self.inner.variables()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return TrimFirst(self.inner.substitute(mapping), self.symbol)

    def evaluate(self, assignment: dict[str, str]) -> str:
        value = self.inner.evaluate(assignment)
        if value.startswith(self.symbol) and value:
            return value[1:]
        return ""

    def __str__(self) -> str:
        return f"trim_first({self.inner}, '{self.symbol}')"


@dataclass(frozen=True)
class InsertAt(Term):
    """``insert_a(t, p)``: insert ``symbol`` into ``t`` right after prefix ``p``.

    The paper's Section 8 future-work operation ("inserting characters at
    arbitrary position in a string x, specified by a prefix of x").  Total
    semantics: if ``p`` is a prefix of ``t`` (so ``t = p . z``) the value
    is ``p . symbol . z``; otherwise epsilon.  With ``p = eps`` this is
    ``f_a``; with ``p = t`` it is ``l_a`` — so the extension S_insert
    subsumes both S_left's and S's function vocabulary.
    """

    inner: Term
    position: Term
    symbol: str

    def variables(self) -> frozenset[str]:
        return self.inner.variables() | self.position.variables()

    def substitute(self, mapping: dict[str, "Term"]) -> "Term":
        return InsertAt(
            self.inner.substitute(mapping),
            self.position.substitute(mapping),
            self.symbol,
        )

    def evaluate(self, assignment: dict[str, str]) -> str:
        value = self.inner.evaluate(assignment)
        position = self.position.evaluate(assignment)
        if value.startswith(position):
            return position + self.symbol + value[len(position):]
        return ""

    def __str__(self) -> str:
        return f"insert_at({self.inner}, {self.position}, '{self.symbol}')"


@dataclass(frozen=True)
class Lcp(Term):
    """``t1 ^ t2``: the longest common prefix of two terms."""

    left: Term
    right: Term

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def substitute(self, mapping: dict[str, Term]) -> Term:
        return Lcp(self.left.substitute(mapping), self.right.substitute(mapping))

    def evaluate(self, assignment: dict[str, str]) -> str:
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        i = 0
        n = min(len(a), len(b))
        while i < n and a[i] == b[i]:
            i += 1
        return a[:i]

    def __str__(self) -> str:
        return f"lcp({self.left}, {self.right})"


TermLike = Union[Term, str]


def as_term(value: TermLike) -> Term:
    """Coerce a Python string (variable name) or Term into a Term.

    Strings are interpreted as *variable names*; use :class:`StrConst` (or
    the parser's quoted literals) for string constants.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot interpret {value!r} as a term")
