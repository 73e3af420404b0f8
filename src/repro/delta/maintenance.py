"""Incremental cache maintenance across database versions (ΔQ rules).

The delta store (:mod:`repro.delta.store`) records every applied delta
as a :class:`Transition` in a process-wide registry.  This module is the
*consumer* side: given a cache miss keyed by a child version's
fingerprint, it tries to answer from work done on an ancestor version
instead of recomputing from scratch.  Three mechanisms, ordered from
cheapest to most involved:

**Result promotion** (:func:`promote_result`) — for the ``automata``
subformula cache and the whole-result cache of
:func:`repro.engine.explain.execute_plan` (the ``result:<engine>``
stages of the direct, algebra and sharded backends, whose entries are
rows).  A (sub)formula's value is a function of the relations it
mentions plus — when it has restricted (ADOM/PREFIX/LENGTH) quantifiers
— the active domain.  If the transition chain from an ancestor to the
queried version touches **neither**, the ancestor's cached entry is
copied to the child key verbatim.  In particular a delta that only
touches relation ``S`` leaves every automaton for subformulas over ``R``
valid, and database-*independent* subformula automata (keyed without a
fingerprint) were never invalidated in the first place — the automata
layer survives deltas; only the product with the changed relations is
redone.

**Subplan recording** — full algebra runs on a version-tracked database
record every physical operator's output rows in a bounded store keyed by
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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.algebra.exec import AlgebraExecutor, _is_semi_join, compile_for_execution
from repro.algebra.optimize import _rebuild, _Shim
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
from repro.delta.store import MAX_CHAIN, Delta
from repro.engine.cache import AutomatonCache, database_fingerprint
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.logic.formulas import Formula, QuantKind
from repro.structures.base import StringStructure

__all__ = [
    "Transition",
    "maintain_algebra_result",
    "promote_result",
    "record_transition",
    "subplan_recorder",
    "track_version",
    "transition_for",
]

Row = tuple[str, ...]
Rows = frozenset

_EMPTY: Rows = frozenset()

#: Appending operators: output = input row + one derived column, so the
#: input row is recoverable from every output row (injective per input).
_APPENDERS = (PrefixOp, AddLastOp, AddFirstOp, TrimFirstOp, InsertAtOp, DownOp)


@dataclass(frozen=True)
class Transition:
    """One applied delta: parent version -> child version."""

    parent_fingerprint: str
    child_fingerprint: str
    delta: Delta
    parent_db: Database
    child_db: Database
    adom_changed: bool
    schema_changed: bool


# ------------------------------------------------------------- the registry


_LOCK = threading.RLock()
#: child fingerprint -> the transition that produced it (LRU-bounded).
_TRANSITIONS: OrderedDict[str, Transition] = OrderedDict()
_TRANSITIONS_CAP = 256
#: Fingerprints of versions managed by some VersionedDatabase — the
#: algebra backend only pays for subplan recording on tracked databases.
_TRACKED: OrderedDict[str, None] = OrderedDict()
_TRACKED_CAP = 1024


def record_transition(transition: Transition) -> None:
    """Register an applied delta (called by the delta store)."""
    with _LOCK:
        _TRANSITIONS[transition.child_fingerprint] = transition
        while len(_TRANSITIONS) > _TRANSITIONS_CAP:
            _TRANSITIONS.popitem(last=False)
    track_version(transition.parent_fingerprint)
    track_version(transition.child_fingerprint)


def transition_for(fingerprint: str) -> Optional[Transition]:
    """The transition that produced version ``fingerprint``, if recorded."""
    with _LOCK:
        return _TRANSITIONS.get(fingerprint)


def track_version(fingerprint: str) -> None:
    """Mark ``fingerprint`` as a delta-store version (enables recording)."""
    with _LOCK:
        _TRACKED[fingerprint] = None
        _TRACKED.move_to_end(fingerprint)
        while len(_TRACKED) > _TRACKED_CAP:
            _TRACKED.popitem(last=False)


def is_tracked(fingerprint: str) -> bool:
    with _LOCK:
        return fingerprint in _TRACKED


def reset() -> None:
    """Drop all transitions, tracking, and recorded subplan rows (tests)."""
    with _LOCK:
        _TRANSITIONS.clear()
        _TRACKED.clear()
        _STORE.clear()
        _NAMES.clear()


# -------------------------------------------------------- result promotion


def promote_result(
    cache: AutomatonCache,
    key: tuple,
    formula: Formula,
    metric: str = "delta.result_promotions",
) -> Optional[Any]:
    """Copy an ancestor version's cached entry to ``key`` when still valid.

    ``key`` is a :func:`repro.engine.cache.formula_key` tuple whose
    ``key[4]`` is the queried version's fingerprint.  Walking the
    transition chain toward the root, the ancestor entry is reusable as
    long as no walked delta touches a relation ``formula`` mentions and
    — when the formula has restricted quantifiers, whose domains derive
    from ``adom(D)`` — no walked delta changed the active domain.
    Returns the promoted value (also stored under ``key``) or ``None``.
    """
    with _LOCK:
        if not _TRANSITIONS:
            return None
    fingerprint = key[4]
    if fingerprint is None:
        return None
    relations = formula.relation_names()
    adom_sensitive = any(
        kind is not QuantKind.NATURAL for kind in formula.quantifier_kinds()
    )
    cursor = fingerprint
    for _ in range(MAX_CHAIN):
        transition = transition_for(cursor)
        if transition is None:
            return None
        if adom_sensitive and transition.adom_changed:
            return None
        if transition.delta.touched & relations:
            return None
        cursor = transition.parent_fingerprint
        value = cache.peek(key[:4] + (cursor,) + key[5:])
        if value is not None:
            cache.put(key, value)
            METRICS.inc(metric)
            return value
    return None


# ------------------------------------------------------- subplan recording


class _RowStore:
    """A small thread-safe LRU of per-operator output rows.

    Keys are ``((structure name, alphabet, params), plan node,
    fingerprint)`` — plan nodes are frozen dataclasses, hashable by
    structure, and a template plan's rows depend on the values bound to
    its slots.  Kept separate from the automaton cache so recorded
    intermediates never evict compiled automata and never distort the
    cache hit-rate stats.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._data: OrderedDict[tuple, Rows] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[Rows]:
        with self._lock:
            rows = self._data.get(key)
            if rows is not None:
                self._data.move_to_end(key)
            return rows

    def put(self, key: tuple, rows: Rows) -> None:
        with self._lock:
            self._data[key] = rows
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_STORE = _RowStore()


def _structure_key(structure: StringStructure, params: tuple = ()) -> tuple:
    return (structure.name, structure.alphabet.symbols, params)


def _recorder_into(
    structure: StringStructure, fingerprint: str, params: tuple = ()
) -> Callable[[Plan, Rows], None]:
    skey = _structure_key(structure, params)

    def record(node: Plan, rows: Rows) -> None:
        _STORE.put((skey, node, fingerprint), rows)

    return record


def subplan_recorder(
    structure: StringStructure, database: Database, params: tuple = ()
) -> Optional[Callable[[Plan, Rows], None]]:
    """A recorder for :class:`~repro.algebra.exec.AlgebraExecutor` running
    with ``params``, or ``None`` when ``database`` is not a delta-store
    version (recording would be pure overhead for never-mutated
    databases)."""
    with _LOCK:
        if not _TRACKED:
            return None
    fingerprint = database_fingerprint(database)
    if not is_tracked(fingerprint):
        return None
    return _recorder_into(structure, fingerprint, params)


# ----------------------------------------------------- ΔQ plan maintenance


#: Per-node base-relation names (bounded memo; plans are shared DAGs).
_NAMES: dict[Plan, frozenset] = {}


def _base_names(node: Plan) -> frozenset:
    names = _NAMES.get(node)
    if names is None:
        names = frozenset(
            n.name for n in node.walk() if isinstance(n, BaseRel)
        )
        if len(_NAMES) > 4096:
            _NAMES.clear()
        _NAMES[node] = names
    return names


class _Bail(Exception):
    """An operator shape the maintenance rules do not cover — fall back
    to a full run (never a wrong answer, just no incremental win)."""


def maintain_algebra_result(
    plan, database: Database
) -> Optional[tuple[tuple[str, ...], Rows]]:
    """Maintain a whole algebra result across the version chain, or ``None``.

    Called by the algebra backend's interpreted strategy on a
    whole-result cache miss that promotion could not answer.  Finds
    the nearest ancestor version whose root subplan rows were recorded,
    then applies each recorded transition's deltas through the plan tree
    with the ΔQ rules, storing every operator's rows at each intermediate
    version (so the *next* delta starts from here).  Returns
    ``(columns, rows)`` on success; ``None`` means "run it from scratch"
    (no recorded ancestor, a schema-changing delta in the chain, or an
    operator the rules do not cover).
    """
    with _LOCK:
        if not _TRANSITIONS:
            return None
    fingerprint = database_fingerprint(database)
    if transition_for(fingerprint) is None:
        return None
    compiled, optimized = compile_for_execution(
        plan.formula, plan.structure, database.schema, slack=plan.slack
    )
    skey = _structure_key(plan.structure, plan.params)
    chain: list[Transition] = []
    cursor = fingerprint
    for _ in range(MAX_CHAIN):
        transition = transition_for(cursor)
        if transition is None:
            METRICS.inc("delta.algebra_fallbacks")
            return None
        if transition.schema_changed:
            # The compiled plan reads the child schema's relations; the
            # parent snapshot predates them.  Re-run from scratch.
            METRICS.inc("delta.algebra_fallbacks")
            return None
        chain.append(transition)
        cursor = transition.parent_fingerprint
        if _STORE.get((skey, optimized, cursor)) is not None:
            break
    else:
        METRICS.inc("delta.algebra_fallbacks")
        return None
    try:
        for transition in reversed(chain):
            _apply_transition(optimized, transition, plan.structure, plan.params)
    except _Bail:
        METRICS.inc("delta.algebra_fallbacks")
        return None
    rows = _STORE.get((skey, optimized, fingerprint))
    if rows is None:  # evicted mid-walk under memory pressure
        METRICS.inc("delta.algebra_fallbacks")
        return None
    METRICS.inc("delta.algebra_maintained")
    return compiled.columns, rows


def _apply_transition(
    root: Plan, t: Transition, structure: StringStructure, params: tuple = ()
) -> Rows:
    """Propagate one transition's deltas bottom-up through ``root``.

    Every visited node's ``(new, added, removed)`` is exact:
    ``added = new - old`` and ``removed = old - new`` as sets.  New rows
    are stored under the child fingerprint; rows an ancestor never
    recorded (store eviction) are recovered by evaluating that subplan
    on the pinned parent snapshot.
    """
    skey = _structure_key(structure, params)
    memo: dict[Plan, tuple[Rows, Rows, Rows]] = {}
    fallback: list[Optional[AlgebraExecutor]] = [None]

    def old_rows(node: Plan) -> Rows:
        rows = _STORE.get((skey, node, t.parent_fingerprint))
        if rows is not None:
            METRICS.inc("delta.subplan_hits")
            return rows
        METRICS.inc("delta.subplan_misses")
        if fallback[0] is None:
            fallback[0] = AlgebraExecutor(
                structure,
                t.parent_db,
                recorder=_recorder_into(structure, t.parent_fingerprint, params),
                params=params,
            )
        rows, _stats = fallback[0].run(node)
        return rows

    def settle(node: Plan, new: Rows, added: Rows, removed: Rows):
        result = (new, added, removed)
        memo[node] = result
        _STORE.put((skey, node, t.child_fingerprint), new)
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
                t.child_db.relation(node.name),
                t.delta.inserted(node.name),
                t.delta.deleted(node.name),
            )
        if not (_base_names(node) & t.delta.touched):
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
        checker = _get_checker(node.condition, structure)
        added = frozenset(r for r in ca if checker.check(r, params))
        removed = frozenset(r for r in cr if checker.check(r, params))
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
        checker = (
            _get_checker(node.residual, structure)
            if node.residual is not None
            else None
        )
        out: set[Row] = set()
        _join_into(out, la, rn, node.pairs, checker, params)  # ΔL ⋈ new R
        _join_into(out, ln, ra, node.pairs, checker, params)  # new L ⋈ ΔR
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
        checker = _get_checker(node.condition, structure)
        out: set[Row] = set()
        tick = 0
        for l in la:
            for r in rn:
                tick += 1
                if not tick & 255:
                    checkpoint()
                row = l + r
                if checker.check(row, params):
                    out.add(row)
        if ra:
            for l in ln - la:
                for r in ra:
                    tick += 1
                    if not tick & 255:
                        checkpoint()
                    row = l + r
                    if checker.check(row, params):
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
        return shim.evaluate(t.child_db, structure, params)

    new_root, _, _ = maint(root)
    return new_root


def _join_into(
    out: set,
    lrows: Rows,
    rrows: Rows,
    pairs: tuple[tuple[int, int], ...],
    checker,
    params: tuple = (),
) -> None:
    """Hash-join ``lrows ⋈ rrows`` into ``out`` (residual check applied)."""
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
            if checker is None or checker.check(row, params):
                out.add(row)
