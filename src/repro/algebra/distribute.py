"""Distributivity analysis: when does a query scatter over shards?

The shard coordinator (:mod:`repro.shard`) evaluates a query ``Q`` on a
horizontally partitioned database ``D = D_1 ∪ ... ∪ D_n`` by running
``Q`` shard-local and unioning at the root.  That is only sound when

.. math::  Q(D) \\;=\\; Q(D_1) \\cup \\dots \\cup Q(D_n)

— i.e. when ``Q`` *distributes over horizontal partitioning*.  This
module decides that question conservatively, with two independent
certificates (either suffices):

**Plan-shape certificate** (algebra-eligible queries).  Compile the
query to its optimized RA(M) plan (:func:`repro.algebra.optimize.
compile_for_execution`) and require every operator to be *row-local*:
``BaseRel``/``EpsilonRel`` at the leaves and ``Select`` (database-free
condition), ``Project``, ``Union`` and the per-tuple string operators
(``PrefixOp``, ``AddLastOp``, ``AddFirstOp``, ``TrimFirstOp``,
``InsertAtOp``, ``DownOp``) above them.  Each such operator commutes
with union of its input relations, so the whole plan does by induction.
``Product``/``Join`` need tuple pairs from *different* shards and
``Difference`` can subtract a tuple whose witness lives elsewhere —
plans containing them do not distribute and force the single-shard
fallback.

**Guarded-formula certificate** (the direct engine's regime, where no
algebra plan exists).  In NNF the query must be a conjunction with
exactly one *positive* relation atom over bare variables — the
**anchor**, which localizes every output tuple to the shard that stores
it — while every other conjunct is database-free and only quantifies
with *guard-rooted* PREFIX quantifiers:

* ``exists prefix y: (y <<= t & ...)`` — some conjunct bounds ``y`` by
  a prefix of an anchored variable ``t``;
* ``forall prefix y: (!(y <<= t) | ...)`` — some disjunct discharges
  every ``y`` that is *not* a prefix of an anchored ``t``.

Soundness: a PREFIX quantifier ranges over ``prefix(adom(D))`` (plus
slack extensions), which *shrinks* on a shard — but every prefix of a
locally stored anchor string is in the local closure, and the guard
makes all other candidates irrelevant (witnesses must be prefixes of
``t``; non-prefixes satisfy the universal vacuously).  So the condition
evaluates identically on the shard and on the whole database for every
locally anchored tuple.  ADOM and LENGTH quantifiers are rejected:
their domains draw on strings from *other* shards with no guard to
localize them.

:func:`analyze` also recognizes **routable** queries under by-relation
partitioning: when every relation the optimized plan reads lives whole
on one shard, any plan shape (joins included) evaluates there unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.database.instance import Database
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
from repro.logic.terms import Var
from repro.logic.transform import to_nnf
from repro.structures.base import StringStructure

__all__ = [
    "Decomposition",
    "analyze",
    "guarded_certificate",
    "plan_shape_certificate",
]


#: Plan operators that commute with union of their input relations: the
#: leaves plus everything that maps each input row to output rows
#: independently of the rest of the relation (and of the database).
_ROW_LOCAL_OPS = frozenset({
    "BaseRel",
    "EpsilonRel",
    "Select",
    "Project",
    "Union",
    "PrefixOp",
    "AddLastOp",
    "AddFirstOp",
    "TrimFirstOp",
    "InsertAtOp",
    "DownOp",
})


@dataclass(frozen=True)
class Decomposition:
    """The analysis verdict the shard coordinator executes.

    ``mode`` is ``"scatter"`` (run on every shard, union at the root),
    ``"route"`` (every referenced relation lives whole on one shard —
    run there alone) or ``"single"`` (no certificate: fall back to one
    worker holding the full database).  ``certificate`` names the proof
    that applied (``"plan-shape"`` / ``"guarded-formula"`` / ``None``)
    and ``reason`` is the one-line justification EXPLAIN shows.
    """

    mode: str                      # "scatter" | "route" | "single"
    certificate: Optional[str]
    reason: str
    merge: str = "union-dedup"
    #: For "route": the shard index owning every referenced relation.
    shard: Optional[int] = None
    #: Relations the certificate saw (plan leaves or the anchor atom).
    relations: tuple[str, ...] = field(default=())

    @property
    def distributes(self) -> bool:
        return self.mode != "single"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "certificate": self.certificate,
            "reason": self.reason,
            "merge": self.merge,
            "shard": self.shard,
            "relations": list(self.relations),
        }


# ----------------------------------------------------- plan-shape certificate


def plan_shape_certificate(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int,
) -> tuple[bool, tuple[str, ...], str]:
    """``(ok, plan_relations, reason)`` for the optimized-plan analysis.

    Only meaningful for algebra-eligible queries (the caller checks);
    the plans come from :func:`~repro.algebra.optimize.compile_for_execution`'s
    ``algebra.plans`` memo, so planning twice costs one dict lookup.
    """
    from repro.algebra.compile import CompileError
    from repro.algebra.optimize import compile_for_execution

    try:
        optimized = compile_for_execution(
            formula, structure, database.schema, slack=slack
        ).fin
    except CompileError as exc:
        return False, (), f"query does not compile to RA(M): {exc}"
    nodes = list(optimized.nodes())
    relations = tuple(sorted({
        node.name for node in nodes if type(node).__name__ == "BaseRel"
    }))
    for node in nodes:
        kind = type(node).__name__
        if kind not in _ROW_LOCAL_OPS:
            return False, relations, (
                f"optimized plan contains {kind}: needs tuples from more "
                "than one shard"
            )
    return True, relations, (
        "every plan operator is row-local (commutes with union of its "
        "inputs)"
    )


# ------------------------------------------------ guarded-formula certificate


def _bare_var(term) -> Optional[str]:
    return term.name if isinstance(term, Var) else None


def _prefix_guard_target(atom: Formula) -> Optional[tuple[str, str]]:
    """``(bound_var, root_var)`` when ``atom`` is ``y <<= t`` / ``y << t``
    / ``y = t`` over bare variables, else ``None``."""
    if not isinstance(atom, Atom) or atom.pred not in ("prefix", "sprefix", "eq"):
        return None
    if len(atom.args) != 2:
        return None
    y, t = _bare_var(atom.args[0]), _bare_var(atom.args[1])
    if y is None or t is None:
        return None
    return y, t


def _condition_guarded(f: Formula, rooted: frozenset[str]) -> tuple[bool, str]:
    """Is the database-free condition ``f`` guard-rooted in ``rooted``?"""
    if isinstance(f, (TrueF, FalseF, Atom)):
        return True, ""
    if isinstance(f, RelAtom):
        return False, f"condition mentions database relation {f.name!r}"
    if isinstance(f, Not):
        return _condition_guarded(f.inner, rooted)
    if isinstance(f, (And, Or)):
        for p in f.parts:
            ok, why = _condition_guarded(p, rooted)
            if not ok:
                return ok, why
        return True, ""
    if isinstance(f, (Exists, Forall)):
        if f.kind is QuantKind.NATURAL:
            # Sigma* does not depend on the database at all — no shard
            # can change the quantifier's range.
            return _condition_guarded(f.body, rooted)
        if f.kind is not QuantKind.PREFIX:
            return False, (
                f"{f.kind.value} quantifier ranges over the whole "
                "database's strings; no guard can localize it to a shard"
            )
        guard_found = False
        if isinstance(f, Exists):
            # exists prefix y: needs a conjunct  y <<= t  with t rooted.
            parts = f.body.parts if isinstance(f.body, And) else (f.body,)
            for p in parts:
                target = _prefix_guard_target(p)
                if target and target[0] == f.var and target[1] in rooted:
                    guard_found = True
        else:
            # forall prefix y: needs a disjunct  !(y <<= t)  with t rooted.
            parts = f.body.parts if isinstance(f.body, Or) else (f.body,)
            for p in parts:
                if isinstance(p, Not):
                    target = _prefix_guard_target(p.inner)
                    if target and target[0] == f.var and target[1] in rooted:
                        guard_found = True
        if not guard_found:
            q = "exists" if isinstance(f, Exists) else "forall"
            need = "a conjunct" if isinstance(f, Exists) else "a disjunct"
            op = "y <<= t" if isinstance(f, Exists) else "!(y <<= t)"
            return False, (
                f"{q} prefix {f.var} is unguarded: needs {need} "
                f"`{op.replace('y', f.var)}` with t anchored"
            )
        return _condition_guarded(f.body, rooted | {f.var})
    return False, f"cannot analyze condition node {type(f).__name__}"


def guarded_certificate(formula: Formula) -> tuple[bool, Optional[str], str]:
    """``(ok, anchor_relation, reason)`` for the guarded-fragment analysis.

    See the module docstring for the fragment and its soundness argument.
    """
    nnf = to_nnf(formula)
    parts = nnf.parts if isinstance(nnf, And) else (nnf,)
    anchors = [p for p in parts if isinstance(p, RelAtom)]
    if len(anchors) != 1:
        if not anchors:
            return False, None, (
                "no positive relation atom anchors the output to a shard"
            )
        return False, None, (
            f"{len(anchors)} relation atoms: a join may pair tuples from "
            "different shards"
        )
    anchor = anchors[0]
    anchor_vars = frozenset(
        t.name for t in anchor.args if isinstance(t, Var)
    )
    if any(not isinstance(t, Var) for t in anchor.args):
        return False, None, (
            f"anchor {anchor.name} has non-variable arguments: the "
            "output value need not be stored on the anchoring shard"
        )
    free = formula.free_variables()
    if not free <= anchor_vars:
        loose = sorted(free - anchor_vars)
        return False, None, (
            f"free variable(s) {loose} not bound by the anchor atom"
        )
    for p in parts:
        if p is anchor:
            continue
        if any(isinstance(sub, RelAtom) for sub in p.walk()):
            return False, None, (
                "a second database atom occurs outside the anchor "
                "conjunct"
            )
        ok, why = _condition_guarded(p, anchor_vars)
        if not ok:
            return False, None, why
    return True, anchor.name, (
        f"single anchor {anchor.name} with guard-rooted prefix conditions"
    )


# ------------------------------------------------------------------- analyze


def analyze(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int,
    relation_shards: Optional[dict[str, int]] = None,
) -> Decomposition:
    """Decide how (whether) the query decomposes over shards.

    ``relation_shards`` maps relation names to owning shard indices when
    the database is partitioned by relation (each relation whole on one
    shard); leave it ``None`` for hash-by-tuple partitioning.  The
    caller is responsible for the backend-level eligibility gate
    (anchored output, no NATURAL quantifiers at the top level).
    """
    from repro.engine.planner import algebra_eligible

    relations = tuple(sorted(formula.relation_names()))
    if not relations:
        if not formula.database_dependent():
            # Truly database-free (no relations, all quantifiers
            # NATURAL): every shard computes the same answer, so
            # scattering only duplicates work.  Route it to one worker.
            return Decomposition(
                mode="route",
                certificate="guarded-formula",
                reason="database-free query: any single shard answers it",
                shard=0,
                relations=(),
            )
        # Relation-free but a restricted quantifier remains: ADOM,
        # PREFIX, and LENGTH domains all derive from adom(D), and a
        # partition's active domain is a strict subset of the whole
        # database's — a single shard could answer differently.
        return Decomposition(
            mode="single",
            certificate=None,
            reason=(
                "relation-free but database-dependent: restricted "
                "quantifier domains draw on the whole database's "
                "active domain, which no single partition holds"
            ),
        )

    plan_relations: tuple[str, ...] = relations
    plan_ok = False
    plan_why = "not an algebra-eligible query"
    if algebra_eligible(formula, structure):
        plan_ok, plan_relations, plan_why = plan_shape_certificate(
            formula, structure, database, slack
        )
        if not plan_relations:
            plan_relations = relations

    # By-relation partitioning: if one shard owns every relation the
    # plan reads (or, failing a plan, every relation the formula
    # mentions), the query evaluates there unchanged — even join shapes.
    if relation_shards is not None:
        owners = {
            relation_shards.get(name) for name in (plan_relations or relations)
        }
        if len(owners) == 1 and None not in owners:
            (owner,) = owners
            return Decomposition(
                mode="route",
                certificate="plan-shape" if plan_ok else "guarded-formula",
                reason=(
                    f"all referenced relations live on shard {owner} "
                    "(by-relation partitioning)"
                ),
                shard=owner,
                relations=plan_relations or relations,
            )

    # Both partitioning schemes produce a horizontal partition of every
    # relation (by-relation is the degenerate case: all rows of a
    # relation on one shard, none elsewhere), so the scatter
    # certificates apply to either scheme.
    if plan_ok:
        return Decomposition(
            mode="scatter",
            certificate="plan-shape",
            reason=plan_why,
            relations=plan_relations,
        )
    guarded_ok, anchor, guarded_why = guarded_certificate(formula)
    if guarded_ok:
        return Decomposition(
            mode="scatter",
            certificate="guarded-formula",
            reason=guarded_why,
            relations=(anchor,) if anchor else (),
        )
    return Decomposition(
        mode="single",
        certificate=None,
        reason=f"{plan_why}; {guarded_why}",
    )
