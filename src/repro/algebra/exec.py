"""Set-at-a-time physical executor for algebra plans (the "algebra" engine).

:func:`repro.algebra.optimize.optimize_for_execution` rewrites a compiled
plan into an execution-oriented logical form (hash-join fusion, selection
and projection pushdown); this module runs that form set-at-a-time:

* :class:`~repro.algebra.plan.Join` nodes execute as **hash equi-joins**
  (build on the smaller input's key columns, probe the other side),
* ``Exists``-shaped projections — ``project[I](join)`` with ``I`` inside
  the left input and no residual condition — execute as **hash
  semi-joins** that never materialize the joined rows,
* ``Difference`` executes as a **hash anti-join** over the built right
  side,
* repeated subplans are **memoized** per database fingerprint (the
  compiler emits the same ``gamma``-bound subplan many times; the key
  reuses :func:`repro.engine.cache.database_fingerprint`), and

every operator reports rows/wall-time into an :class:`OpStats` tree that
EXPLAIN renders, increments the ``algebra.*`` METRICS counters, and
polls :func:`repro.engine.deadline.checkpoint` so service timeouts cover
long joins.

The entry point used by the planner is :func:`run_algebra`; tests and
benchmarks can drive :class:`AlgebraExecutor` directly on a plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.compile import CompiledQuery, CompileError, compile_query
from repro.algebra.optimize import _rebuild, _Shim, optimize_for_execution
from repro.algebra.plan import (
    Difference,
    Join,
    Plan,
    Product,
    Project,
    Select,
    Union,
    _get_checker,
)
from repro.database.instance import Database
from repro.engine.cache import database_fingerprint, registered
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.logic.formulas import Formula
from repro.structures.base import StringStructure

_TICK_MASK = 255

Row = tuple[str, ...]
Rows = frozenset


@dataclass
class OpStats:
    """Per-operator execution statistics (one EXPLAIN tree node)."""

    label: str
    kind: str
    rows: int
    seconds: float
    memo_hit: bool = False
    children: list["OpStats"] = field(default_factory=list)

    def total_rows(self) -> int:
        """Largest row count anywhere in this subtree (peak intermediate)."""
        return max([self.rows] + [c.total_rows() for c in self.children])

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "rows": self.rows,
            "seconds": self.seconds,
            "memo_hit": self.memo_hit,
            "children": [c.to_dict() for c in self.children],
        }


def _is_semi_join(plan: Plan) -> bool:
    """``project[I](join)`` with ``I`` ⊆ left columns and no residual —
    only the left rows matter, so probing can skip row construction."""
    return (
        isinstance(plan, Project)
        and isinstance(plan.child, Join)
        and plan.child.residual is None
        and all(i < plan.child.left.arity for i in plan.indices)
    )


class AlgebraExecutor:
    """Executes optimized plans against one database, memoizing subplans.

    The memo maps ``(subplan, database fingerprint)`` to its rows, so an
    executor reused across runs (the planner keeps one per query) only
    pays for each distinct subplan once per database state.

    ``recorder``, when given, is called as ``recorder(node, rows)`` for
    every operator the executor materializes — the delta-maintenance
    layer (:mod:`repro.delta.maintenance`) uses it to snapshot subplan
    rows on delta-store snapshots so the *next* version's run can be
    maintained incrementally instead of recomputed.

    ``params`` are the values bound to a template plan's slots
    (:class:`~repro.algebra.plan.ParamRel` leaves and ``Param`` terms in
    conditions); one executor serves one binding.
    """

    def __init__(
        self,
        structure: StringStructure,
        database: Database,
        recorder=None,
        params: tuple[str, ...] = (),
    ):
        self.structure = structure
        self.database = database
        self.params = params
        self._db_key = database_fingerprint(database)
        self._memo: dict[tuple[Plan, str], Rows] = {}
        self._recorder = recorder

    def run(self, plan: Plan) -> tuple[Rows, OpStats]:
        """Evaluate ``plan``; returns the rows and the operator stats tree."""
        return self._execute(plan)

    # ------------------------------------------------------------- internal

    def _execute(self, node: Plan) -> tuple[Rows, OpStats]:
        memo_key = (node, self._db_key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            METRICS.inc("algebra.memo_hits")
            stats = OpStats(
                label=self._label(node),
                kind=self._kind(node),
                rows=len(cached),
                seconds=0.0,
                memo_hit=True,
            )
            return cached, stats

        checkpoint()
        if _is_semi_join(node):
            rows, stats = self._semi_join(node)  # type: ignore[arg-type]
        elif isinstance(node, Join):
            rows, stats = self._hash_join(node)
        elif isinstance(node, Difference):
            rows, stats = self._anti_join(node)
        else:
            rows, stats = self._generic(node)

        self._memo[memo_key] = rows
        if self._recorder is not None:
            self._recorder(node, rows)
        return rows, stats

    def _semi_join(self, node: Project) -> tuple[Rows, OpStats]:
        join: Join = node.child  # type: ignore[assignment]
        lrows, lstats = self._execute(join.left)
        rrows, rstats = self._execute(join.right)
        start = time.perf_counter()
        METRICS.inc("algebra.joins")
        keys = set()
        tick = 0
        for r in rrows:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            keys.add(tuple(r[j] for _, j in join.pairs))
        out = set()
        for l in lrows:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            if tuple(l[i] for i, _ in join.pairs) in keys:
                out.add(tuple(l[i] for i in node.indices))
        METRICS.inc("algebra.rows_probed", len(lrows))
        rows = frozenset(out)
        stats = OpStats(
            label=self._label(node),
            kind="SemiJoin",
            rows=len(rows),
            seconds=time.perf_counter() - start,
            children=[lstats, rstats],
        )
        return rows, stats

    def _hash_join(self, node: Join) -> tuple[Rows, OpStats]:
        lrows, lstats = self._execute(node.left)
        rrows, rstats = self._execute(node.right)
        start = time.perf_counter()
        METRICS.inc("algebra.joins")
        check = (
            _get_checker(node.residual, self.structure).bind(self.params)
            if node.residual is not None
            else None
        )
        # Build on the smaller side, probe with the larger one.
        build_right = len(rrows) <= len(lrows)
        table: dict[Row, list[Row]] = {}
        tick = 0
        if build_right:
            build, probe = rrows, lrows
            bkey = lambda r: tuple(r[j] for _, j in node.pairs)
            pkey = lambda l: tuple(l[i] for i, _ in node.pairs)
        else:
            build, probe = lrows, rrows
            bkey = lambda l: tuple(l[i] for i, _ in node.pairs)
            pkey = lambda r: tuple(r[j] for _, j in node.pairs)
        for row in build:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            table.setdefault(bkey(row), []).append(row)
        out = set()
        for row in probe:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            matches = table.get(pkey(row))
            if not matches:
                continue
            for other in matches:
                joined = row + other if build_right else other + row
                if check is None or check(joined):
                    out.add(joined)
        METRICS.inc("algebra.rows_probed", len(probe))
        rows = frozenset(out)
        stats = OpStats(
            label=self._label(node),
            kind="HashJoin",
            rows=len(rows),
            seconds=time.perf_counter() - start,
            children=[lstats, rstats],
        )
        return rows, stats

    def _anti_join(self, node: Difference) -> tuple[Rows, OpStats]:
        lrows, lstats = self._execute(node.left)
        rrows, rstats = self._execute(node.right)
        start = time.perf_counter()
        METRICS.inc("algebra.rows_probed", len(lrows))
        rows = lrows - rrows  # hash anti-join: probe left against right's set
        stats = OpStats(
            label=self._label(node),
            kind="AntiJoin",
            rows=len(rows),
            seconds=time.perf_counter() - start,
            children=[lstats, rstats],
        )
        return rows, stats

    def _generic(self, node: Plan) -> tuple[Rows, OpStats]:
        """Any other operator: children via the memo, node via its own
        ``evaluate`` (the streamed ``Select(Product)`` path included)."""
        child_results = [self._execute(c) for c in node.children()]
        start = time.perf_counter()
        shimmed = _rebuild(
            node, [_Shim(rows, c.arity)
                   for (rows, _), c in zip(child_results, node.children())]
        )
        rows = shimmed.evaluate(self.database, self.structure, self.params)
        stats = OpStats(
            label=self._label(node),
            kind=self._kind(node),
            rows=len(rows),
            seconds=time.perf_counter() - start,
            children=[s for _, s in child_results],
        )
        return rows, stats

    @staticmethod
    def _kind(node: Plan) -> str:
        if _is_semi_join(node):
            return "SemiJoin"
        if isinstance(node, Join):
            return "HashJoin"
        if isinstance(node, Difference):
            return "AntiJoin"
        if isinstance(node, Select) and isinstance(node.child, Product):
            return "FilteredCross"
        return type(node).__name__

    @staticmethod
    def _label(node: Plan) -> str:
        text = str(node)
        return text if len(text) <= 120 else text[:117] + "..."


# Compiled-and-optimized plans: compiling is pure in the
# formula/structure/schema/slack, so repeated queries (the service layer's
# common case) skip the compiler and rewrite fixpoint entirely.
_PLANS = registered("algebra.plans", 128)


def compile_for_execution(
    formula: Formula,
    structure: StringStructure,
    schema,
    slack: int = 1,
) -> tuple[CompiledQuery, Plan]:
    """Compile + ``optimize_for_execution``, with a module-level cache.

    Returns the original :class:`CompiledQuery` (for its output columns)
    and the fused physical plan.  Keyed on the canonical fingerprint
    (:mod:`repro.logic.canonical`), so alpha-equivalent and
    conjunct-reordered spellings share the compiled plan — sound because
    alpha-equivalent formulas have identical free variables, hence
    identical output columns, and execution depends only on the plan.
    """
    from repro.logic.canonical import canonical_fingerprint

    key = (
        canonical_fingerprint(formula),
        structure.name,
        structure.alphabet.symbols,
        slack,
        schema,
    )
    hit = _PLANS.get(key)
    if hit is not None:
        return hit
    try:
        compiled = compile_query(formula, structure, schema, slack=slack)
        optimized = optimize_for_execution(compiled.plan)
    except CompileError:
        # Outside Theorem 4's collapsed fragment: fall back to the RANF
        # translation (repro.algebra.ranf) and execute its *finite* half.
        # Everything keyed off this function — codegen pipelines, delta
        # maintenance, sharded scatter — therefore computes/maintains
        # exactly the finite half; the planner only routes formulas here
        # whose finite half is provably the whole answer, and the algebra
        # backend runs the pair's "infinite" check itself via run_ranf.
        from repro.algebra.ranf import translate_ranf

        pair = translate_ranf(formula, structure, schema, slack=slack)
        compiled, optimized = pair.compiled, pair.fin_optimized
    _PLANS.put(key, (compiled, optimized))
    return (compiled, optimized)


def run_algebra(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int = 1,
    recorder=None,
    params: tuple[str, ...] = (),
) -> tuple[tuple[str, ...], Rows, OpStats]:
    """Evaluate a RANF-translatable query with the set-at-a-time executor.

    Returns ``(output columns, rows, operator stats)``.  Queries outside
    the collapsed fragment run the RANF translation's finite half (see
    :func:`compile_for_execution`); :class:`~repro.algebra.compile.CompileError`
    is raised when even the translation bails (the planner checks
    eligibility before calling this).  ``recorder`` is forwarded to
    :class:`AlgebraExecutor`, as are ``params``, the values of a template
    ``formula``'s slots (a concrete ``formula`` brings its own).
    """
    compiled, optimized = compile_for_execution(
        formula, structure, database.schema, slack=slack
    )
    executor = AlgebraExecutor(
        structure, database, recorder=recorder, params=params or compiled.params
    )
    rows, stats = executor.run(optimized)
    return compiled.columns, rows, stats
