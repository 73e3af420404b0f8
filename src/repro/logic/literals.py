"""Query templates: a query's string literals lifted into parameter slots.

The paper treats a query's string constants as data — they join
``adom(D) ∪ {ε}`` in the base of the ``gamma`` bound — and SQL LIKE /
SIMILAR TO patterns are likewise values the query supplies.  Two queries
that differ only in those values share every decision that does not
read them: the planner's engine choice, the compiled algebra plan, the
generated codegen closure.  This module splits a query into the part
those decisions depend on and the part they do not:

* :func:`lift_literals` — ``formula -> (template, values)``: every
  :class:`~repro.logic.terms.StrConst` term and the pattern of every
  ``matches`` / ``psuffix`` atom becomes a
  :class:`~repro.logic.terms.Param` slot; ``last``'s symbol, graph
  symbols, predicate names and relation names stay part of the shape;
* :func:`bind` — the inverse, ``bind(*lift_literals(f)) == f``.

The planner plans every query as its template
(:meth:`repro.engine.planner.Planner.plan`), so the library and the
service run literals the same way; a template lifts to itself.

Slots are numbered in the walk order of the *canonicalized* formula
(:mod:`repro.logic.canonical`, whose commutative children are ordered
by shape first), so every spelling that canonicalizes alike gets the
same template fingerprint and its values in the same order::

    lift_literals(parse_formula("R(x) & '01' <<= x"))
        == (R(x) & prefix(?0, x), ('01',))
"""

from __future__ import annotations

from typing import Callable

from repro.logic.canonical import PATTERN_PREDS, canonical_slot_order
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    TrueF,
)
from repro.logic.terms import (
    AddFirst,
    AddLast,
    InsertAt,
    Lcp,
    Param,
    StrConst,
    Term,
    TrimFirst,
    Var,
)

__all__ = ["bind", "lift_literals", "template_slots"]

#: Rewrites one literal — its string or its ``Param`` slot — into another.
Leaf = Callable[[object], object]


def _map_term(t: Term, leaf: Leaf) -> Term:
    if isinstance(t, (StrConst, Param)):
        out = leaf(t.value if isinstance(t, StrConst) else t)
        return StrConst(out) if isinstance(out, str) else out
    if isinstance(t, Var):
        return t
    if isinstance(t, (AddLast, AddFirst, TrimFirst)):
        return type(t)(_map_term(t.inner, leaf), t.symbol)
    if isinstance(t, Lcp):
        return Lcp(_map_term(t.left, leaf), _map_term(t.right, leaf))
    if isinstance(t, InsertAt):
        return InsertAt(
            _map_term(t.inner, leaf), _map_term(t.position, leaf), t.symbol
        )
    raise TypeError(f"unknown term node {t!r}")


def _map_literals(f: Formula, leaf: Leaf) -> Formula:
    """Rebuild ``f`` with ``leaf`` applied to every literal, in walk order:
    pre-order over subformulas, an atom's arguments left to right, then
    its pattern — or any other atom ``param`` that is a slot, such as the
    value of a ``graph_const`` that :func:`~repro.logic.transform.
    flatten_terms` made of a slot."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        args = tuple(_map_term(t, leaf) for t in f.args)
        param = f.param
        if isinstance(param, Param) or (
            f.pred in PATTERN_PREDS and param is not None
        ):
            param = leaf(param)
        return Atom(f.pred, args, param)
    if isinstance(f, RelAtom):
        return RelAtom(f.name, tuple(_map_term(t, leaf) for t in f.args))
    if isinstance(f, Not):
        return Not(_map_literals(f.inner, leaf))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_map_literals(p, leaf) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _map_literals(f.body, leaf), f.kind)
    raise TypeError(f"unknown formula node {f!r}")


def lift_literals(formula: Formula) -> tuple[Formula, tuple[str, ...]]:
    """Split ``formula`` into a template and the values of its slots."""
    raw: list[str] = []

    def number(value):
        if isinstance(value, Param):
            return value  # already a template: nothing left to lift
        raw.append(value)
        return Param(len(raw) - 1)

    numbered = _map_literals(formula, number)
    if not raw:
        return formula, ()
    order = canonical_slot_order(numbered, tuple(raw))
    if order == tuple(range(len(raw))):
        return numbered, tuple(raw)
    rank = {slot: i for i, slot in enumerate(order)}
    template = _map_literals(numbered, lambda p: Param(rank[p.index]))
    return template, tuple(raw[slot] for slot in order)


def bind(template: Formula, values: tuple[str, ...]) -> Formula:
    """The concrete query: ``template`` with slot ``i`` set to ``values[i]``."""
    if not values:
        return template
    return _map_literals(
        template, lambda p: values[p.index] if isinstance(p, Param) else p
    )


def template_slots(formula: Formula) -> frozenset[int]:
    """Indices of the slots ``formula`` mentions."""
    found: set[int] = set()

    def note(leaf):
        if isinstance(leaf, Param):
            found.add(leaf.index)
        return leaf

    _map_literals(formula, note)
    return frozenset(found)
