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

The per-node semantics of the plan operators live here too, in
:func:`apply` and :func:`evaluate`: plan nodes are data, and the compiled
closure is the one evaluator in ``src/``.  :func:`evaluate` is the naive
recursion, with no memo: ``benchmarks/bench_algebra_joins.py`` and the ``down`` sweep of
``benchmarks/bench_thm4_algebra_equiv.py`` time it as their naive side.
Quantifier-free selection conditions are evaluated here over
:meth:`~repro.structures.base.StringStructure.eval_atom`, independently
of the closure's inlined predicates; quantified ones go through the
condition's automaton (:func:`repro.algebra.plan._get_checker`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.codegen import get_pipeline
from repro.algebra.optimize import _is_semi_join, compile_for_execution
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    InsertAtOp,
    Join,
    ParamRel,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    _column_index,
    _get_checker,
)
from repro.database.instance import Database
from repro.engine.cache import database_fingerprint
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.errors import ArityError, EvaluationError
from repro.logic.formulas import And, Atom, FalseF, Formula, Not, Or, TrueF
from repro.logic.literals import template_slots
from repro.logic.terms import Param
from repro.structures.base import StringStructure

#: Deadline-check stride for row loops: per-row work is tiny, so the
#: clock is only consulted every 256th row (matching the direct engine).
_TICK_MASK = 255

Row = tuple[str, ...]
Rows = frozenset


# ---------------------------------------------------------------------------
# Selection conditions
# ---------------------------------------------------------------------------


def _eval_quantifier_free(
    f: Formula, assignment: dict[str, str], structure: StringStructure
) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return structure.eval_atom(f, assignment)
    if isinstance(f, Not):
        return not _eval_quantifier_free(f.inner, assignment, structure)
    if isinstance(f, And):
        return all(_eval_quantifier_free(p, assignment, structure) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_quantifier_free(p, assignment, structure) for p in f.parts)
    raise EvaluationError(f"unexpected node in quantifier-free condition: {f!r}")


def condition_columns(condition: Formula) -> list[int]:
    """The columns a condition reads, ascending."""
    return sorted(_column_index(v) for v in condition.free_variables())


def bind_condition(condition: Formula, structure: StringStructure, params=()):
    """The condition as a one-row predicate for one binding of its slots.

    Quantifier-free conditions are evaluated directly over
    ``structure.eval_atom``; quantified ones through their automaton."""
    if condition.relation_names():
        raise EvaluationError(
            "sigma_alpha conditions must not mention database relations"
        )
    if any(f.__class__.__name__ in ("Exists", "Forall") for f in condition.walk()):
        return _get_checker(condition, structure).bind(params)
    slots = [(Param(i).key, params[i]) for i in sorted(template_slots(condition))]
    columns = condition_columns(condition)

    def check(row: Row) -> bool:
        assignment = {f"c{i}": row[i] for i in columns}
        assignment.update(slots)
        return _eval_quantifier_free(condition, assignment, structure)

    return check


# ---------------------------------------------------------------------------
# Per-node semantics
# ---------------------------------------------------------------------------


def _product(lrows: Rows, rrows: Rows):
    tick = 0
    for l in lrows:
        for r in rrows:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            yield l + r


def _select_check(node: Select, structure: StringStructure, params):
    top = max(condition_columns(node.condition), default=-1)
    if top >= node.child.arity:
        raise ArityError(
            f"condition uses column c{top}, child arity is {node.child.arity}"
        )
    return bind_condition(node.condition, structure, params)


def _filtered_cross(
    node: Select, lrows: Rows, rrows: Rows, structure: StringStructure, params
) -> Rows:
    """Stream the cross product through the filter pair by pair: only the
    (usually much smaller) selected set is ever materialized, never the
    O(|L|*|R|) intermediate relation."""
    check = _select_check(node, structure, params)
    out = set()
    for row in _product(lrows, rrows):
        if check(row):
            out.add(row)
    return frozenset(out)


def _join(node: Join, lrows: Rows, rrows: Rows, structure, params) -> Rows:
    check = (
        bind_condition(node.residual, structure, params)
        if node.residual is not None
        else None
    )
    METRICS.inc("algebra.joins")
    table: dict[Row, list[Row]] = {}
    tick = 0
    for r in rrows:
        tick += 1
        if not tick & _TICK_MASK:
            checkpoint()
        key = tuple(r[j] for _, j in node.pairs)
        table.setdefault(key, []).append(r)
    out = set()
    for l in lrows:
        tick += 1
        if not tick & _TICK_MASK:
            checkpoint()
        matches = table.get(tuple(l[i] for i, _ in node.pairs))
        if not matches:
            continue
        for r in matches:
            row = l + r
            if check is None or check(row):
                out.add(row)
    METRICS.inc("algebra.rows_probed", len(lrows))
    return frozenset(out)


def _check_index(node: Plan, index: int, name: str) -> None:
    if not 0 <= index < node.child.arity:
        raise ArityError(f"{name}_{index} out of range")


def apply(
    node: Plan, rows: list, db: Database, structure: StringStructure, params=()
) -> Rows:
    """One operator on its children's ``rows`` (in ``children()`` order)."""
    if isinstance(node, BaseRel):
        relation = db.relation(node.name)
        if db.schema.arity(node.name) != node.arity:
            raise ArityError(
                f"plan expects {node.name}/{node.arity}, database has "
                f"{node.name}/{db.schema.arity(node.name)}"
            )
        return relation
    if isinstance(node, EpsilonRel):
        return frozenset({("",)})
    if isinstance(node, ParamRel):
        value = structure.alphabet.check_string(params[node.index])
        return frozenset({(value,)})
    if isinstance(node, Select):
        check = _select_check(node, structure, params)
        return frozenset(r for r in rows[0] if check(r))
    if isinstance(node, Project):
        if any(i < 0 or i >= node.child.arity for i in node.indices):
            raise ArityError(f"projection {node.indices} out of range")
        return frozenset(tuple(r[i] for i in node.indices) for r in rows[0])
    if isinstance(node, Product):
        return frozenset(_product(rows[0], rows[1]))
    if isinstance(node, Join):
        return _join(node, rows[0], rows[1], structure, params)
    if isinstance(node, Union):
        _ = node.arity
        return rows[0] | rows[1]
    if isinstance(node, Difference):
        _ = node.arity
        return rows[0] - rows[1]
    if isinstance(node, PrefixOp):
        _check_index(node, node.index, "prefix")
        out = set()
        for r in rows[0]:
            s = r[node.index]
            for k in range(len(s) + 1):
                out.add(r + (s[:k],))
        return frozenset(out)
    if isinstance(node, AddLastOp):
        _check_index(node, node.index, "add")
        structure.alphabet.check_string(node.symbol)
        return frozenset(r + (r[node.index] + node.symbol,) for r in rows[0])
    if isinstance(node, AddFirstOp):
        _check_index(node, node.index, "add_first")
        structure.alphabet.check_string(node.symbol)
        return frozenset(r + (node.symbol + r[node.index],) for r in rows[0])
    if isinstance(node, TrimFirstOp):
        _check_index(node, node.index, "trim_first")
        out = set()
        for r in rows[0]:
            s = r[node.index]
            trimmed = s[1:] if s.startswith(node.symbol) and s else ""
            out.add(r + (trimmed,))
        return frozenset(out)
    if isinstance(node, InsertAtOp):
        _check_index(node, node.index, "insert")
        _check_index(node, node.prefix_index, "insert prefix index")
        structure.alphabet.check_string(node.symbol)
        out = set()
        for r in rows[0]:
            s, p = r[node.index], r[node.prefix_index]
            if s.startswith(p):
                value = p + node.symbol + s[len(p):]
            else:
                value = ""
            out.add(r + (value,))
        return frozenset(out)
    if isinstance(node, DownOp):
        _check_index(node, node.index, "down")
        out = set()
        for r in rows[0]:
            for s in structure.alphabet.strings_up_to(len(r[node.index])):
                out.add(r + (s,))
        return frozenset(out)
    raise TypeError(f"no semantics for {type(node).__name__} nodes")


def evaluate(
    plan: Plan, db: Database, structure: StringStructure, params=()
) -> Rows:
    """The naive operator-at-a-time recursion, with no memo: every node
    evaluates its children, then itself (:func:`apply`); a ``Select``
    over a ``Product`` streams the product's pairs through its filter."""
    if isinstance(plan, Select) and isinstance(plan.child, Product):
        return _filtered_cross(
            plan,
            evaluate(plan.child.left, db, structure, params),
            evaluate(plan.child.right, db, structure, params),
            structure,
            params,
        )
    rows = [evaluate(c, db, structure, params) for c in plan.children()]
    return apply(plan, rows, db, structure, params)


# ---------------------------------------------------------------------------
# The set-at-a-time executor
# ---------------------------------------------------------------------------


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
            bind_condition(node.residual, self.structure, self.params)
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
        """Any other operator: children via the memo, then the node's own
        semantics (:func:`apply`)."""
        child_results = [self._execute(c) for c in node.children()]
        start = time.perf_counter()
        rows = apply(
            node, [rows for rows, _ in child_results],
            self.database, self.structure, self.params,
        )
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
