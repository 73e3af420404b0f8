"""Canonical formula forms: one identity for alpha-equivalent queries.

Two formulas that differ only in bound-variable names, or in the order of
commutative conjuncts/disjuncts, denote the same query — but ``str()``-based
cache keys treat them as distinct, so every cache in the evaluation stack
(compiled automata, algebra subplans, prepared-query plans) used to pay the
full compilation cost again for each spelling.  This module provides the
shared normalization pass that collapses those spellings:

* :func:`canonical_serialization` — a stable, name-independent rendering:
  bound variables become de-Bruijn-style binder distances, commutative
  :class:`~repro.logic.formulas.And`/:class:`~repro.logic.formulas.Or`
  children are rendered in sorted order — by their shape first (string
  literals and pattern parameters masked), the literals only breaking
  ties, so queries that differ only in their constants order their
  children alike.  A template slot renders as ``param(i)``.  Free
  variables keep their names (they are the query's output columns, so
  renaming them would change the answer's schema).
* :func:`canonical_fingerprint` — a SHA-1 hex digest of the serialization;
  this is what :func:`repro.engine.cache.formula_key` keys every cache on,
  so alpha-equivalent and conjunct-permuted (sub)formulas share entries.
* :func:`canonicalize` — an actual :class:`~repro.logic.formulas.Formula`
  in canonical shape: commutative children sorted, every binder renamed to
  a positional ``_c<i>`` name.  The planner canonicalizes each query at
  plan time, so downstream structural memos (e.g. the algebra executor's
  subplan memo) unify equivalent queries without knowing about alpha
  equivalence at all.

Both directions are semantics-preserving: renaming bound variables is
alpha-conversion, and conjunction/disjunction are commutative in every
engine (boolean evaluation, automaton intersection/union, join order).

Properties (pinned by ``tests/test_canonical.py``)::

    canonical_fingerprint(f1) == canonical_fingerprint(f2)
        for alpha-equivalent or conjunct-permuted f1, f2
    canonicalize(canonicalize(f)) == canonicalize(f)          # idempotent
    canonical_fingerprint(canonicalize(f)) == canonical_fingerprint(f)
    canonicalize(f).free_variables() == f.free_variables()
"""

from __future__ import annotations

import functools
import hashlib
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

__all__ = [
    "canonical_fingerprint",
    "canonical_slot_order",
    "canonical_serialization",
    "canonicalize",
]

#: Prefix of the positional bound-variable names :func:`canonicalize`
#: assigns (suffixed to dodge any free variable that shares the name).
CANONICAL_PREFIX = "_c"


# ------------------------------------------------------------- serialization


def _term_repr(
    t: Term, env: dict[str, int], depth: int, values=None
) -> tuple[str, str, tuple[int, ...]]:
    """Name-independent rendering of a term under binder environment ``env``.

    ``env`` maps bound-variable names to the depth of their binder;
    ``depth`` is the current binder depth, so ``depth - env[name]`` is the
    de-Bruijn distance — identical for alpha-equivalent formulas.
    Returns the *masked* rendering, in which every literal and template
    slot reads alike (the query's shape), the full one, and the indices
    of the template slots met, left to right; ``values`` renders slot
    ``i`` as the literal ``values[i]``.
    """
    if isinstance(t, Var):
        name = f"@{depth - env[t.name]}" if t.name in env else f"${t.name}"
        return name, name, ()
    if isinstance(t, (StrConst, Param)):
        return "lit", _literal_repr(t, values), _slots(t)
    if isinstance(t, (AddLast, AddFirst, TrimFirst)):
        head = f"{_TERM_TAGS[type(t)]}[{t.symbol}]("
        m, f, slots = _term_repr(t.inner, env, depth, values)
        return f"{head}{m})", f"{head}{f})", slots
    if isinstance(t, (Lcp, InsertAt)):
        if isinstance(t, Lcp):
            head, a, b = "lcp(", t.left, t.right
        else:
            head, a, b = f"insert_at[{t.symbol}](", t.inner, t.position
        (ma, fa, sa), (mb, fb, sb) = (
            _term_repr(u, env, depth, values) for u in (a, b)
        )
        return f"{head}{ma},{mb})", f"{head}{fa},{fb})", sa + sb
    raise TypeError(f"unknown term node {t!r}")


_TERM_TAGS = {AddLast: "add_last", AddFirst: "add_first", TrimFirst: "trim_first"}


def _slots(leaf) -> tuple[int, ...]:
    return (leaf.index,) if isinstance(leaf, Param) else ()


def _literal_repr(t, values) -> str:
    """A string literal or template slot: ``lit('w')`` / ``param(i)``."""
    if isinstance(t, Param):
        if values is None:
            return f"param({t.index})"
        return f"lit({values[t.index]!r})"
    return f"lit({t.value!r})"


#: Predicates whose ``param`` is a pattern — a literal the query supplies
#: (lifted into a template slot), unlike ``last``'s symbol, which is shape.
PATTERN_PREDS = frozenset({"matches", "psuffix"})


def _param_repr(f: Atom, values) -> tuple[str, str]:
    if isinstance(f.param, Param):
        return "lit", _literal_repr(f.param, values)
    full = repr(f.param)
    return ("lit" if f.pred in PATTERN_PREDS else full), full


def _render(
    f: Formula, env: dict[str, int], depth: int, values=None
) -> tuple[str, str, tuple[int, ...]]:
    """The masked and the full serialization of ``f`` and its slots, in
    the order of the full one (see :func:`_term_repr`).

    Commutative children are ordered by shape first, literals breaking
    ties — so one query shape orders alike whatever its constants are.
    """
    if isinstance(f, (Atom, RelAtom)):
        args = [_term_repr(t, env, depth, values) for t in f.args]
        masked = ",".join(a[0] for a in args)
        full = ",".join(a[1] for a in args)
        slots = tuple(i for a in args for i in a[2])
        if isinstance(f, RelAtom):
            return f"rel:{f.name}({masked})", f"rel:{f.name}({full})", slots
        pm, pf = _param_repr(f, values)
        return (
            f"atom:{f.pred}[{pm}]({masked})",
            f"atom:{f.pred}[{pf}]({full})",
            slots + _slots(f.param),
        )
    if isinstance(f, (TrueF, FalseF)):
        text = "true" if isinstance(f, TrueF) else "false"
        return text, text, ()
    if isinstance(f, Not):
        m, full, slots = _render(f.inner, env, depth, values)
        return f"not({m})", f"not({full})", slots
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        parts = sorted(_render(p, env, depth, values) for p in f.parts)
        masked = ";".join(p[0] for p in parts)
        full = ";".join(p[1] for p in parts)
        slots = tuple(i for p in parts for i in p[2])
        return f"{tag}({masked})", f"{tag}({full})", slots
    if isinstance(f, (Exists, Forall)):
        tag = "exists" if isinstance(f, Exists) else "forall"
        inner_env = dict(env)
        inner_env[f.var] = depth
        m, full, slots = _render(f.body, inner_env, depth + 1, values)
        head = f"{tag}:{f.kind.value}("
        return f"{head}{m})", f"{head}{full})", slots
    raise TypeError(f"unknown formula node {f!r}")


def canonical_slot_order(
    formula: Formula, values: tuple[str, ...]
) -> tuple[int, ...]:
    """The slot indices of a template in canonical walk order, with slot
    ``i`` read as the literal ``values[i]`` (the order
    :func:`repro.logic.literals.lift_literals` numbers slots in)."""
    return _render(formula, {}, 0, values)[2]


@functools.lru_cache(maxsize=8192)
def canonical_serialization(formula: Formula) -> str:
    """The stable structural rendering (see module docstring)."""
    return _render(formula, {}, 0)[1]


@functools.lru_cache(maxsize=8192)
def canonical_fingerprint(formula: Formula) -> str:
    """SHA-1 hex digest of :func:`canonical_serialization`.

    Equal for alpha-equivalent and conjunct/disjunct-permuted formulas;
    this is the formula component of every evaluation-stack cache key
    (:func:`repro.engine.cache.formula_key`).
    """
    return hashlib.sha1(canonical_serialization(formula).encode()).hexdigest()


# ------------------------------------------------------------ canonical form


def _sort_children(f: Formula, env: dict[str, int], depth: int) -> Formula:
    """Recursively order commutative children by their serialization."""
    if isinstance(f, (TrueF, FalseF, Atom, RelAtom)):
        return f
    if isinstance(f, Not):
        return Not(_sort_children(f.inner, env, depth))
    if isinstance(f, (And, Or)):
        parts = tuple(_sort_children(p, env, depth) for p in f.parts)
        parts = tuple(sorted(parts, key=lambda p: _render(p, env, depth)))
        return And(parts) if isinstance(f, And) else Or(parts)
    if isinstance(f, (Exists, Forall)):
        inner_env = dict(env)
        inner_env[f.var] = depth
        body = _sort_children(f.body, inner_env, depth + 1)
        ctor = Exists if isinstance(f, Exists) else Forall
        return ctor(f.var, body, f.kind)
    raise TypeError(f"unknown formula node {f!r}")


def _rename_term(t: Term, mapping: dict[str, str]) -> Term:
    return t.substitute({old: Var(new) for old, new in mapping.items()})


def _rename_binders(
    f: Formula, mapping: dict[str, str], names, avoid: frozenset[str]
) -> Formula:
    """Give every binder the next positional name (pre-order traversal)."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_rename_term(t, mapping) for t in f.args), f.param)
    if isinstance(f, RelAtom):
        return RelAtom(f.name, tuple(_rename_term(t, mapping) for t in f.args))
    if isinstance(f, Not):
        return Not(_rename_binders(f.inner, mapping, names, avoid))
    if isinstance(f, (And, Or)):
        parts = tuple(_rename_binders(p, mapping, names, avoid) for p in f.parts)
        return And(parts) if isinstance(f, And) else Or(parts)
    if isinstance(f, (Exists, Forall)):
        fresh = next(names)
        while fresh in avoid:
            fresh = next(names)
        inner = dict(mapping)
        inner[f.var] = fresh
        body = _rename_binders(f.body, inner, names, avoid)
        ctor = Exists if isinstance(f, Exists) else Forall
        return ctor(fresh, body, f.kind)
    raise TypeError(f"unknown formula node {f!r}")


@functools.lru_cache(maxsize=8192)
def canonicalize(formula: Formula) -> Formula:
    """The canonical alpha-variant: sorted commutative children, binders
    renamed to positional ``_c<i>`` names (free variables untouched).

    Children are sorted *before* renaming, against the name-independent
    serialization, so the result is stable: canonicalizing twice is the
    identity, and any two alpha-equivalent/permuted inputs canonicalize to
    structurally equal formulas.
    """
    free = formula.free_variables()
    sorted_tree = _sort_children(formula, {}, 0)
    names = (f"{CANONICAL_PREFIX}{i}" for i in itertools.count())
    return _rename_binders(sorted_tree, {}, names, free)
