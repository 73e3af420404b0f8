"""Formula transformations.

* :func:`to_nnf` — negation normal form;
* :func:`flatten_terms` — replace function terms inside atoms by fresh,
  existentially quantified variables constrained through *graph atoms*
  (``graph_add_last``/``graph_add_first``/``graph_trim_first``/``graph_lcp``)
  — the shape the automata engine consumes, since graphs of the paper's
  functions are synchronized-rational while general term nesting is not
  directly an automaton;
* :func:`restrict_quantifiers` — retarget NATURAL quantifiers to one of the
  restricted kinds (the executable form of the collapse theorems: Theorem 1
  and Proposition 4 license this for S and S_len respectively);
* :func:`guard_existentials` — turn ``exists x`` into ``exists adom x``
  where a positive relation atom of the body's conjunction already holds
  ``x`` to the active domain;
* :func:`active_domain_formula` — check the paper's "active-domain formula"
  property (all quantifiers are ADOM).
"""

from __future__ import annotations

import itertools

from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    QuantKind,
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

#: Graph-atom predicate names introduced by :func:`flatten_terms`.
GRAPH_PREDS = {
    "graph_add_last",
    "graph_add_first",
    "graph_trim_first",
    "graph_lcp",
    "graph_const",
    "graph_insert_at",
}


def to_nnf(formula: Formula) -> Formula:
    """Push negations to the atoms (de Morgan + quantifier duality)."""
    return _nnf(formula, positive=True)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, (Atom, RelAtom)):
        return f if positive else Not(f)
    if isinstance(f, TrueF):
        return f if positive else FalseF()
    if isinstance(f, FalseF):
        return f if positive else TrueF()
    if isinstance(f, Not):
        return _nnf(f.inner, not positive)
    if isinstance(f, And):
        parts = tuple(_nnf(p, positive) for p in f.parts)
        return And(parts) if positive else Or(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, positive) for p in f.parts)
        return Or(parts) if positive else And(parts)
    if isinstance(f, Exists):
        body = _nnf(f.body, positive)
        return Exists(f.var, body, f.kind) if positive else Forall(f.var, body, f.kind)
    if isinstance(f, Forall):
        body = _nnf(f.body, positive)
        return Forall(f.var, body, f.kind) if positive else Exists(f.var, body, f.kind)
    raise TypeError(f"unknown formula node {f!r}")


class _FreshNames:
    """Generates variable names avoiding a fixed set."""

    def __init__(self, avoid: set[str]):
        self.avoid = set(avoid)
        self.counter = itertools.count()

    def fresh(self, hint: str = "t") -> str:
        while True:
            name = f"_{hint}{next(self.counter)}"
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def all_variable_names(formula: Formula) -> set[str]:
    """Every variable name occurring (free or bound) in the formula."""
    names: set[str] = set()
    for f in formula.walk():
        if isinstance(f, (Atom, RelAtom)):
            for t in f.args:
                names |= t.variables()
        elif isinstance(f, (Exists, Forall)):
            names.add(f.var)
    return names


def flatten_terms(formula: Formula) -> Formula:
    """Rewrite so that every atom's arguments are plain variables.

    Function applications become fresh existentially quantified variables
    tied down by graph atoms; string constants become fresh variables tied
    by ``graph_const`` atoms (param = the literal).  The result is logically
    equivalent (functions are total, so the existentials are uniquely
    witnessed).

    The fresh quantifiers are NATURAL; the automata engine resolves them
    exactly, and the direct engine computes the witness deterministically.
    """
    fresh = _FreshNames(all_variable_names(formula))
    return _flatten(formula, fresh)


def _flatten(f: Formula, fresh: _FreshNames) -> Formula:
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, RelAtom)):
        new_args: list[Term] = []
        bindings: list[tuple[str, Formula]] = []
        for t in f.args:
            var, defs = _flatten_term(t, fresh)
            new_args.append(var)
            bindings.extend(defs)
        if isinstance(f, Atom):
            core: Formula = Atom(f.pred, tuple(new_args), f.param)
        else:
            core = RelAtom(f.name, tuple(new_args))
        for name, definition in reversed(bindings):
            core = Exists(name, And((definition, core)), QuantKind.NATURAL)
        return core
    if isinstance(f, Not):
        return Not(_flatten(f.inner, fresh))
    if isinstance(f, And):
        return And(tuple(_flatten(p, fresh) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_flatten(p, fresh) for p in f.parts))
    if isinstance(f, Exists):
        return Exists(f.var, _flatten(f.body, fresh), f.kind)
    if isinstance(f, Forall):
        return Forall(f.var, _flatten(f.body, fresh), f.kind)
    raise TypeError(f"unknown formula node {f!r}")


def _flatten_term(t: Term, fresh: _FreshNames) -> tuple[Term, list[tuple[str, Formula]]]:
    """Return a variable (or keep a var) plus definitions binding it."""
    if isinstance(t, Var):
        return t, []
    if isinstance(t, (StrConst, Param)):
        value = t.value if isinstance(t, StrConst) else t
        name = fresh.fresh("c")
        return Var(name), [(name, Atom("graph_const", (Var(name),), value))]
    if isinstance(t, AddLast):
        inner, defs = _flatten_term(t.inner, fresh)
        name = fresh.fresh("al")
        defs.append((name, Atom("graph_add_last", (inner, Var(name)), t.symbol)))
        return Var(name), defs
    if isinstance(t, AddFirst):
        inner, defs = _flatten_term(t.inner, fresh)
        name = fresh.fresh("af")
        defs.append((name, Atom("graph_add_first", (inner, Var(name)), t.symbol)))
        return Var(name), defs
    if isinstance(t, TrimFirst):
        inner, defs = _flatten_term(t.inner, fresh)
        name = fresh.fresh("tf")
        defs.append((name, Atom("graph_trim_first", (inner, Var(name)), t.symbol)))
        return Var(name), defs
    if isinstance(t, Lcp):
        left, defs_l = _flatten_term(t.left, fresh)
        right, defs_r = _flatten_term(t.right, fresh)
        name = fresh.fresh("g")
        defs = defs_l + defs_r
        defs.append((name, Atom("graph_lcp", (left, right, Var(name)))))
        return Var(name), defs
    if isinstance(t, InsertAt):
        inner, defs_i = _flatten_term(t.inner, fresh)
        position, defs_p = _flatten_term(t.position, fresh)
        name = fresh.fresh("ins")
        defs = defs_i + defs_p
        defs.append(
            (name, Atom("graph_insert_at", (inner, position, Var(name)), t.symbol))
        )
        return Var(name), defs
    raise TypeError(f"unknown term node {t!r}")


def fold_literal_graphs(formula: Formula) -> Formula:
    """Undo :func:`flatten_terms` for literals that feed interpreted atoms.

    ``exists c (graph_const(c, "w") & A)`` with ``A`` an interpreted atom
    becomes ``A["w"/c]`` — e.g. ``prefix('w', x)`` — so a condition over
    string constants stays quantifier-free and is checked as a plain
    string test instead of through an automaton.  Literals under database
    atoms or function graphs keep their ``graph_const`` binding.
    """
    if isinstance(formula, (Atom, RelAtom, TrueF, FalseF)):
        return formula
    if isinstance(formula, Not):
        return Not(fold_literal_graphs(formula.inner))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(fold_literal_graphs(p) for p in formula.parts))
    body = fold_literal_graphs(formula.body)
    if (
        isinstance(formula, Exists)
        and formula.kind is QuantKind.NATURAL
        and isinstance(body, And)
        and len(body.parts) == 2
    ):
        graph, core = body.parts
        if (
            isinstance(graph, Atom)
            and graph.pred == "graph_const"
            and graph.args == (Var(formula.var),)
            and isinstance(core, Atom)
        ):
            value = graph.param
            literal = value if isinstance(value, Param) else StrConst(value or "")
            return core.substitute({formula.var: literal})
    return type(formula)(formula.var, body, formula.kind)


def restrict_quantifiers(formula: Formula, kind: QuantKind) -> Formula:
    """Replace every NATURAL quantifier's kind by ``kind``.

    This is the executable counterpart of the paper's collapse results:
    over S, ``kind=PREFIX`` preserves semantics (Proposition 2 / Theorem 1);
    over S_len, ``kind=LENGTH`` does (Proposition 4).  Quantifiers already
    restricted are left alone.
    """
    if isinstance(formula, (Atom, RelAtom, TrueF, FalseF)):
        return formula
    if isinstance(formula, Not):
        return Not(restrict_quantifiers(formula.inner, kind))
    if isinstance(formula, And):
        return And(tuple(restrict_quantifiers(p, kind) for p in formula.parts))
    if isinstance(formula, Or):
        return Or(tuple(restrict_quantifiers(p, kind) for p in formula.parts))
    if isinstance(formula, Exists):
        new_kind = kind if formula.kind is QuantKind.NATURAL else formula.kind
        return Exists(formula.var, restrict_quantifiers(formula.body, kind), new_kind)
    if isinstance(formula, Forall):
        new_kind = kind if formula.kind is QuantKind.NATURAL else formula.kind
        return Forall(formula.var, restrict_quantifiers(formula.body, kind), new_kind)
    raise TypeError(f"unknown formula node {formula!r}")


def guard_existentials(formula: Formula) -> Formula:
    """Rewrite ``exists x: phi`` to ``exists adom x: phi`` wherever ``x``
    is a bare argument of a positive relation atom among ``phi``'s
    top-level conjuncts.

    Sound at every position (it is an equivalence of the subformula):
    ``R(..., x, ...)`` already forces ``x`` into ``adom(D)``, so the
    natural and the active-domain quantifier see the same witnesses.  A
    range-restricted natural quantifier thereby leaves the automata-only
    regime for the algebra and direct engines.
    """
    if isinstance(formula, (Atom, RelAtom, TrueF, FalseF)):
        return formula
    if isinstance(formula, Not):
        return Not(guard_existentials(formula.inner))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(guard_existentials(p) for p in formula.parts))
    body = guard_existentials(formula.body)
    kind = formula.kind
    if isinstance(formula, Exists) and kind is QuantKind.NATURAL:
        conjuncts = body.parts if isinstance(body, And) else (body,)
        if any(
            isinstance(c, RelAtom) and Var(formula.var) in c.args
            for c in conjuncts
        ):
            kind = QuantKind.ADOM
    return type(formula)(formula.var, body, kind)


def is_active_domain_formula(formula: Formula) -> bool:
    """True iff every quantifier is ADOM (the paper's active-domain form)."""
    return all(
        f.kind is QuantKind.ADOM
        for f in formula.walk()
        if isinstance(f, (Exists, Forall))
    )


def has_natural_quantifier(formula: Formula) -> bool:
    return any(
        f.kind is QuantKind.NATURAL
        for f in formula.walk()
        if isinstance(f, (Exists, Forall))
    )
