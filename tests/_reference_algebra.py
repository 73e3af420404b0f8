"""The operator-at-a-time algebra interpreter, kept as a test oracle.

Before the algebra engine compiled every plan into one closure
(:mod:`repro.algebra.codegen`), :class:`AlgebraExecutor` ran optimized
RA(M) plans set-at-a-time: hash equi-joins building on the smaller
input, hash semi-joins for ``Exists``-shaped projections, anti-joins for
``Difference``, every other operator through its own ``Plan.evaluate``,
and a per-database memo of subplan rows.  Every operator reports rows
and wall time into an :class:`OpStats` tree.  It lives on here as an
independent implementation of the same plans:

* the engine, RANF, delta and compiler property suites hold the closure
  against it (:func:`checked_rows`) as well as against the automata
  engine;
* ``benchmarks/bench_codegen.py`` times the closure against it.

:func:`reference_run` evaluates a query's execution plans — the RANF
pair's ``inf`` half first — the way the engine's closure does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.codegen import get_pipeline
from repro.algebra.optimize import (
    _is_semi_join,
    _rebuild,
    _Shim,
    compile_for_execution,
)
from repro.algebra.plan import (
    Difference,
    Join,
    Plan,
    Product,
    Project,
    Select,
    _get_checker,
)
from repro.database.instance import Database
from repro.engine.cache import database_fingerprint
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.structures.base import StringStructure

_TICK_MASK = 255

Row = tuple[str, ...]
Rows = frozenset


@dataclass
class OpStats:
    """Per-operator execution statistics, one node per operator run."""

    label: str
    kind: str
    rows: int
    seconds: float
    memo_hit: bool = False
    children: list["OpStats"] = field(default_factory=list)


class AlgebraExecutor:
    """Executes optimized plans against one database, memoizing subplans.

    The memo maps ``(subplan, database fingerprint)`` to its rows, so an
    executor reused across runs only pays for each distinct subplan once
    per database state; ``memo_hits`` counts the answers it served.

    ``params`` are the values bound to a template plan's slots
    (:class:`~repro.algebra.plan.ParamRel` leaves and ``Param`` terms in
    conditions); one executor serves one binding.
    """

    def __init__(
        self,
        structure: StringStructure,
        database: Database,
        params: tuple[str, ...] = (),
    ):
        self.structure = structure
        self.database = database
        self.params = params
        self._db_key = database_fingerprint(database)
        self._memo: dict[tuple[Plan, str], Rows] = {}
        self.memo_hits = 0

    def run(self, plan: Plan) -> tuple[Rows, OpStats]:
        """Evaluate ``plan``; returns the rows and the operator stats tree."""
        return self._execute(plan)

    # ------------------------------------------------------------- internal

    def _execute(self, node: Plan) -> tuple[Rows, OpStats]:
        memo_key = (node, self._db_key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
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


def reference_run(plan, database: Database) -> Optional[frozenset]:
    """The interpreter's answer to a planner ``plan`` of the algebra
    engine on ``database``, in the plan's output columns: the RANF pair's
    ``inf`` half first (``None`` when it is nonempty, i.e. the answer may
    be infinite), then the finite plan, on one executor."""
    plans = compile_for_execution(
        plan.formula, plan.structure, database.schema, slack=plan.slack
    )
    executor = AlgebraExecutor(plan.structure, database, params=plan.params)
    if plans.inf is not None and executor.run(plans.inf)[0]:
        return None
    return executor.run(plans.fin)[0]


def checked_rows(query, db, slack=None, variables=None) -> frozenset:
    """The answer of ``query``'s forced algebra plan on ``db``, run
    through the plan's compiled closure and checked row for row against
    the interpreter on the same plans.  Rows come in ``variables`` order
    (default: the plan's output columns)."""
    plan = query.plan(db, engine="algebra", slack=slack)
    pipeline, detail = get_pipeline(
        plan.formula, plan.structure, db.schema, plan.slack
    )
    rows, stage_rows = pipeline.run(db, plan.params)
    assert len(stage_rows) <= len(pipeline.stages)
    assert rows == reference_run(plan, db), (str(plan.formula), detail)
    assert rows is not None, f"{plan.formula}: the answer may be infinite"
    if variables is None:
        return frozenset(rows)
    order = [pipeline.columns.index(v) for v in variables]
    return frozenset(tuple(row[i] for i in order) for row in rows)
