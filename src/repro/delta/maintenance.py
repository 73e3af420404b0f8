"""Incremental cache maintenance across database versions (ΔQ rules).

The delta store (:mod:`repro.delta.store`) records every applied delta
in the :class:`~repro.delta.store.DatabaseVersion` it makes, and links
each snapshot to its store; :func:`~repro.delta.store.lineage` walks
from a snapshot to its retained ancestors.  This module is the
*consumer* side: given a cache miss on a store-made snapshot, it tries
to answer from work done on an ancestor version instead of recomputing
from scratch.  Three mechanisms, ordered from cheapest to most involved:

**Result promotion** (:func:`promote_result`) — for the ``automata``
subformula cache and the whole-result cache of
:func:`repro.engine.explain.execute_plan` (the ``result:<engine>``
stages of the direct, algebra and sharded backends, whose entries are
rows).  A (sub)formula's value is a function of the relations it
mentions plus — when it has restricted (ADOM/PREFIX/LENGTH) quantifiers
— the active domain.  If the deltas from an ancestor to the queried
version touch **neither**, the ancestor's cached entry is copied to the
child key verbatim.  In particular a delta that only touches relation
``S`` leaves every automaton for subformulas over ``R`` valid, and
database-*independent* subformula automata (keyed without a
fingerprint) were never invalidated in the first place — the automata
layer survives deltas; only the product with the changed relations is
redone.

**Subplan recording** — full runs of a plan forced onto the algebra
engine on a store-made snapshot record every relation the compiled
closure materializes (one per fused
stage, :mod:`repro.algebra.codegen`) in a bounded cache keyed by
``(structure and template binding, plan node, version fingerprint)``.

**ΔQ plan maintenance** (:func:`maintain_algebra_result`) — on the next
version, each operator's new output is derived from its recorded rows
plus the child deltas of its inputs, using the classic incremental
view-maintenance rules for select / project / join / union / difference
(and exact rules for the paper's column-appending string operators,
which embed their input row in every output row and are therefore
injective).  Only tuples in the delta's "blast radius" are re-examined;
subtrees whose base relations are untouched promote wholesale.  The
rules are exact — the differential Hypothesis suite
(``tests/test_property_delta.py``) compares every maintained answer
against a from-scratch evaluation of the final state.

Walks stop after :data:`~repro.delta.store.MAX_CHAIN` deltas, at the
base version, or at the first ancestor the store has pruned — each a
conservative miss (a full run), never a wrong answer.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

from repro.algebra.optimize import (
    _is_semi_join,
    _rebuild,
    _Shim,
    compile_for_execution,
)
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    InsertAtOp,
    Join,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    _get_checker,
)
from repro.database.instance import Database
from repro.delta.store import MAX_CHAIN, DatabaseVersion, lineage
from repro.engine.cache import BoundedCache, database_fingerprint
from repro.engine.cache import register_memo, registered
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.logic.formulas import Formula, QuantKind
from repro.structures.base import StringStructure

__all__ = [
    "maintain_algebra_result",
    "promote_result",
    "subplan_recorder",
]

Row = tuple[str, ...]
Rows = frozenset

_EMPTY: Rows = frozenset()

#: Appending operators: output = input row + one derived column, so the
#: input row is recoverable from every output row (injective per input).
_APPENDERS = (PrefixOp, AddLastOp, AddFirstOp, TrimFirstOp, InsertAtOp, DownOp)


# -------------------------------------------------------- result promotion


def promote_result(
    cache: BoundedCache,
    key: tuple,
    formula: Formula,
    database: Database,
    metric: str = "delta.result_promotions",
) -> Optional[Any]:
    """Copy an ancestor version's cached entry to ``key`` when still valid.

    ``key`` is a :func:`repro.engine.cache.formula_key` tuple whose
    ``key[4]`` is ``database``'s fingerprint.  Walking ``database``'s
    versions toward the root, the ancestor entry is reusable as long as
    no walked delta touches a relation ``formula`` mentions and — when
    the formula has restricted quantifiers, whose domains derive from
    ``adom(D)`` — no walked delta changed the active domain.  Returns
    the promoted value (also stored under ``key``) or ``None``.
    """
    if key[4] is None:
        return None
    versions = lineage(database)
    child = next(versions, None)
    if child is None:
        return None
    relations = formula.relation_names()
    adom_sensitive = any(
        kind is not QuantKind.NATURAL for kind in formula.quantifier_kinds()
    )
    for _ in range(MAX_CHAIN):
        if child.delta is None:
            return None
        if adom_sensitive and child.adom_changed:
            return None
        if child.delta.touched & relations:
            return None
        child = next(versions, None)
        if child is None:
            return None
        value = cache.peek(key[:4] + (child.fingerprint,) + key[5:])
        if value is not None:
            cache.put(key, value)
            METRICS.inc(metric)
            return value
    return None


# ------------------------------------------------------- subplan recording


#: Per-operator output rows, keyed ``((structure name, alphabet,
#: params), plan node, fingerprint)`` — plan nodes are frozen
#: dataclasses, hashable by structure, and a template plan's rows depend
#: on the values bound to its slots.  Its own cache (read with ``peek``),
#: so recorded intermediates never evict compiled automata and never
#: distort the ``cache.*`` hit-rate stats.
_SUBPLANS = registered("delta.subplans", 4096)


def _structure_key(structure: StringStructure, params: tuple = ()) -> tuple:
    return (structure.name, structure.alphabet.symbols, params)


def subplan_recorder(
    structure: StringStructure, database: Database, params: tuple = ()
) -> Optional[Callable[[Plan, Rows], None]]:
    """A recorder for a closure run with ``params`` (:meth:`repro.algebra.
    codegen.GeneratedPipeline.run`), or ``None`` when ``database`` is not
    a retained delta-store version (recording would be pure overhead for
    never-mutated databases, and no walk reaches a pruned version)."""
    if next(lineage(database), None) is None:
        return None
    skey = _structure_key(structure, params)
    fingerprint = database_fingerprint(database)

    def record(node: Plan, rows: Rows) -> None:
        _SUBPLANS.put((skey, node, fingerprint), rows)

    return record


# ----------------------------------------------------- ΔQ plan maintenance


@functools.lru_cache(maxsize=4096)
def _base_names(node: Plan) -> frozenset:
    """Per-node base-relation names (plans are shared DAGs)."""
    return frozenset(n.name for n in node.walk() if isinstance(n, BaseRel))


register_memo("delta.maintenance._base_names", _base_names)


class _Bail(Exception):
    """An operator shape the maintenance rules do not cover — fall back
    to a full run (never a wrong answer, just no incremental win)."""


def maintain_algebra_result(
    plan, database: Database
) -> Optional[tuple[tuple[str, ...], Rows]]:
    """Maintain a whole algebra result across the version chain, or ``None``.

    Called by the algebra backend for a forced plan on a whole-result
    cache miss that promotion could not answer.  Walks
    ``database``'s versions to the nearest ancestor whose root subplan
    rows were recorded, then applies each walked delta through the plan
    tree with the ΔQ rules, storing every operator's rows at each
    intermediate version (so the *next* delta starts from here).
    Returns ``(columns, rows)`` on success; ``None`` means "run it from
    scratch" (no recorded ancestor, a schema-changing delta in the
    chain, or an operator the rules do not cover).
    """
    versions = lineage(database)
    child = next(versions, None)
    if child is None or child.delta is None:
        return None
    plans = compile_for_execution(
        plan.formula, plan.structure, database.schema, slack=plan.slack
    )
    optimized = plans.fin
    skey = _structure_key(plan.structure, plan.params)
    chain: list[tuple[DatabaseVersion, DatabaseVersion]] = []
    for _ in range(MAX_CHAIN):
        parent = next(versions, None)
        # No delta: the base version.  A schema change: the compiled
        # plan reads relations the parent snapshot predates.
        if child.delta is None or child.schema_changed or parent is None:
            METRICS.inc("delta.algebra_fallbacks")
            return None
        chain.append((parent, child))
        if _SUBPLANS.peek((skey, optimized, parent.fingerprint)) is not None:
            break
        child = parent
    else:
        METRICS.inc("delta.algebra_fallbacks")
        return None
    try:
        for parent, child in reversed(chain):
            _apply_delta(optimized, parent, child, plan.structure, plan.params)
    except _Bail:
        METRICS.inc("delta.algebra_fallbacks")
        return None
    rows = _SUBPLANS.peek((skey, optimized, database_fingerprint(database)))
    if rows is None:  # evicted mid-walk under memory pressure
        METRICS.inc("delta.algebra_fallbacks")
        return None
    METRICS.inc("delta.algebra_maintained")
    return plans.compiled.columns, rows


def _apply_delta(
    root: Plan,
    parent: DatabaseVersion,
    child: DatabaseVersion,
    structure: StringStructure,
    params: tuple = (),
) -> Rows:
    """Propagate ``child``'s delta bottom-up through ``root``.

    Every visited node's ``(new, added, removed)`` is exact:
    ``added = new - old`` and ``removed = old - new`` as sets.  New rows
    are stored under the child fingerprint; rows the parent's run never
    recorded (an operator fused inside a closure stage, or store
    eviction) are recovered by evaluating that node with
    ``Plan.evaluate`` on the pinned parent snapshot, over its children's
    recorded or recovered rows, and recorded for the parent in turn.
    """
    delta = child.delta
    skey = _structure_key(structure, params)
    memo: dict[Plan, tuple[Rows, Rows, Rows]] = {}

    def old_rows(node: Plan) -> Rows:
        key = (skey, node, parent.fingerprint)
        rows = _SUBPLANS.peek(key)
        if rows is not None:
            METRICS.inc("delta.subplan_hits")
            return rows
        METRICS.inc("delta.subplan_misses")
        shimmed = _rebuild(
            node, [_Shim(old_rows(c), c.arity) for c in node.children()]
        )
        rows = shimmed.evaluate(parent.database, structure, params)
        _SUBPLANS.put(key, rows)
        return rows

    def settle(node: Plan, new: Rows, added: Rows, removed: Rows):
        result = (new, added, removed)
        memo[node] = result
        _SUBPLANS.put((skey, node, child.fingerprint), new)
        return result

    def keep(node: Plan):
        # Inputs unchanged: the node's rows carry over verbatim.
        return settle(node, old_rows(node), _EMPTY, _EMPTY)

    def maint(node: Plan):
        hit = memo.get(node)
        if hit is not None:
            return hit
        checkpoint()
        if isinstance(node, BaseRel):
            return settle(
                node,
                child.database.relation(node.name),
                delta.inserted(node.name),
                delta.deleted(node.name),
            )
        if not (_base_names(node) & delta.touched):
            return keep(node)
        if isinstance(node, Select) and isinstance(node.child, Product):
            return _filtered_cross(node)
        if _is_semi_join(node):
            return _semi_join(node)
        if isinstance(node, Select):
            return _select(node)
        if isinstance(node, Project):
            return _project(node)
        if isinstance(node, Join):
            return _join(node)
        if isinstance(node, Union):
            return _union(node)
        if isinstance(node, Difference):
            return _difference(node)
        if isinstance(node, Product):
            return _product(node)
        if isinstance(node, _APPENDERS):
            return _append(node)
        if isinstance(node, EpsilonRel):  # constant; unreachable (no names)
            return keep(node)
        raise _Bail(f"no maintenance rule for {type(node).__name__}")

    # -- per-operator ΔQ rules -------------------------------------------

    def _select(node: Select):
        cn, ca, cr = maint(node.child)
        if not ca and not cr:
            return keep(node)
        check = _get_checker(node.condition, structure).bind(params)
        added = frozenset(r for r in ca if check(r))
        removed = frozenset(r for r in cr if check(r))
        return settle(node, (old_rows(node) - removed) | added, added, removed)

    def _project(node: Project):
        cn, ca, cr = maint(node.child)
        if not ca and not cr:
            return keep(node)
        old = old_rows(node)
        indices = node.indices
        added = frozenset(
            tuple(r[i] for i in indices) for r in ca
        ) - old
        candidates = {tuple(r[i] for i in indices) for r in cr}
        if candidates:
            # A projection disappears only when *every* supporting child
            # row is gone: discharge candidates still supported by the
            # new child rows (one linear scan, early exit).
            for r in cn:
                p = tuple(r[i] for i in indices)
                if p in candidates:
                    candidates.discard(p)
                    if not candidates:
                        break
        removed = frozenset(candidates)
        return settle(node, (old - removed) | added, added, removed)

    def _semi_join(node: Project):
        join: Join = node.child  # type: ignore[assignment]
        ln, la, lr = maint(join.left)
        rn, ra, rr = maint(join.right)
        if not (la or lr or ra or rr):
            return keep(node)
        # The semi-join is linear in its inputs, so recompute it from the
        # children's new rows (never materializing the join) and diff.
        keys = {tuple(r[j] for _, j in join.pairs) for r in rn}
        new = frozenset(
            tuple(l[i] for i in node.indices)
            for l in ln
            if tuple(l[i] for i, _ in join.pairs) in keys
        )
        old = old_rows(node)
        return settle(node, new, new - old, old - new)

    def _join(node: Join):
        ln, la, lr = maint(node.left)
        rn, ra, rr = maint(node.right)
        if not (la or lr or ra or rr):
            return keep(node)
        old = old_rows(node)
        k = node.left.arity
        removed = (
            frozenset(row for row in old if row[:k] in lr or row[k:] in rr)
            if (lr or rr)
            else _EMPTY
        )
        check = (
            _get_checker(node.residual, structure).bind(params)
            if node.residual is not None
            else None
        )
        out: set[Row] = set()
        _join_into(out, la, rn, node.pairs, check)  # ΔL ⋈ new R
        _join_into(out, ln, ra, node.pairs, check)  # new L ⋈ ΔR
        added = frozenset(out)
        return settle(node, (old - removed) | added, added, removed)

    def _union(node: Union):
        ln, la, lr = maint(node.left)
        rn, ra, rr = maint(node.right)
        if not (la or lr or ra or rr):
            return keep(node)
        old = old_rows(node)
        added = frozenset(r for r in (la | ra) if r not in old)
        removed = frozenset(
            r for r in (lr | rr) if r not in ln and r not in rn
        )
        return settle(node, (old - removed) | added, added, removed)

    def _difference(node: Difference):
        ln, la, lr = maint(node.left)
        rn, ra, rr = maint(node.right)
        if not (la or lr or ra or rr):
            return keep(node)
        old = old_rows(node)
        added: set[Row] = set()
        removed: set[Row] = set()
        for r in la | lr | ra | rr:  # membership can only change here
            now = r in ln and r not in rn
            was = r in old
            if now and not was:
                added.add(r)
            elif was and not now:
                removed.add(r)
        return settle(
            node,
            (old - frozenset(removed)) | frozenset(added),
            frozenset(added),
            frozenset(removed),
        )

    def _product(node: Product):
        ln, la, lr = maint(node.left)
        rn, ra, rr = maint(node.right)
        if not (la or lr or ra or rr):
            return keep(node)
        old = old_rows(node)
        k = node.left.arity
        removed = (
            frozenset(row for row in old if row[:k] in lr or row[k:] in rr)
            if (lr or rr)
            else _EMPTY
        )
        out: set[Row] = set()
        for l in la:
            for r in rn:
                out.add(l + r)
        if ra:
            for l in ln - la:
                for r in ra:
                    out.add(l + r)
        added = frozenset(out)
        return settle(node, (old - removed) | added, added, removed)

    def _filtered_cross(node: Select):
        prod: Product = node.child  # type: ignore[assignment]
        ln, la, lr = maint(prod.left)
        rn, ra, rr = maint(prod.right)
        if not (la or lr or ra or rr):
            return keep(node)
        old = old_rows(node)
        k = prod.left.arity
        removed = (
            frozenset(row for row in old if row[:k] in lr or row[k:] in rr)
            if (lr or rr)
            else _EMPTY
        )
        # Only delta x new and old x delta pairs pass the (possibly
        # automaton-backed) condition check — the O(|L|*|R|) re-filter
        # the full run would pay is avoided.
        check = _get_checker(node.condition, structure).bind(params)
        out: set[Row] = set()
        tick = 0
        for l in la:
            for r in rn:
                tick += 1
                if not tick & 255:
                    checkpoint()
                row = l + r
                if check(row):
                    out.add(row)
        if ra:
            for l in ln - la:
                for r in ra:
                    tick += 1
                    if not tick & 255:
                        checkpoint()
                    row = l + r
                    if check(row):
                        out.add(row)
        added = frozenset(out)
        return settle(node, (old - removed) | added, added, removed)

    def _append(node: Plan):
        cn, ca, cr = maint(node.children()[0])
        if not ca and not cr:
            return keep(node)
        # Appending operators keep the input row in every output row, so
        # deltas map through exactly: outputs of removed inputs vanish,
        # outputs of added inputs are new.
        added = _apply_operator(node, ca)
        removed = _apply_operator(node, cr)
        return settle(node, (old_rows(node) - removed) | added, added, removed)

    def _apply_operator(node: Plan, rows: Rows) -> Rows:
        if not rows:
            return _EMPTY
        shim = _rebuild(node, [_Shim(rows, node.children()[0].arity)])
        return shim.evaluate(child.database, structure, params)

    new_root, _, _ = maint(root)
    return new_root


def _join_into(
    out: set,
    lrows: Rows,
    rrows: Rows,
    pairs: tuple[tuple[int, int], ...],
    check,
) -> None:
    """Hash-join ``lrows ⋈ rrows`` into ``out`` (the residual ``check``,
    a bound predicate, applied)."""
    if not lrows or not rrows:
        return
    table: dict[Row, list[Row]] = {}
    for r in rrows:
        table.setdefault(tuple(r[j] for _, j in pairs), []).append(r)
    tick = 0
    for l in lrows:
        matches = table.get(tuple(l[i] for i, _ in pairs))
        if not matches:
            continue
        for r in matches:
            tick += 1
            if not tick & 255:
                checkpoint()
            row = l + r
            if check is None or check(row):
                out.add(row)
