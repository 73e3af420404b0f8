"""EXPLAIN: annotated plan trees, per-node timings, and run execution.

This module owns the instrumented execution path shared by
:meth:`repro.core.query.Query.run` and :meth:`~repro.core.query.Query.
explain`:

* :func:`execute_plan` runs a :class:`~repro.engine.planner.Plan` through
  the chosen engine, answering from the whole-result cache when it can,
  and records engine counters in :data:`~repro.engine.metrics.METRICS`;
* :func:`explain_query` does the same with a trace observer attached and
  returns an :class:`Explain`: the plan, a tree annotated with per-node
  wall time / automaton state + transition counts / cache hits, the
  metrics delta of the run, and the cache statistics.

The tree format (documented in ``docs/explain_and_metrics.md``): for the
automata engine every node of the *term-flattened* formula gets a node
with the compiled automaton's size and whether it came from the cache;
for the direct engine the tree is the planner's static tree (domain-size
annotations) with the total wall time on the root — the direct engine
evaluates per candidate tuple, so per-node times are not meaningful.
Any backend's answer served from the whole-result cache shows the same
static tree, marked cached.

Usage::

    from repro import Query, StringDatabase
    db = StringDatabase("01", {"R": {"0110", "001"}})
    e = Query("R(x) & last(x, '0')").explain(db)
    print(e.render())          # plan + annotated tree + counters
    e.to_dict()                # JSON-serializable
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.database.instance import Database
from repro.engine import metrics as metrics_mod
from repro.engine.cache import BoundedCache, database_fingerprint
from repro.engine.cache import formula_key, global_cache
from repro.engine.deadline import deadline_scope
from repro.engine.metrics import METRICS
from repro.engine.planner import Plan, json_finite, with_values
from repro.eval.result import QueryResult
from repro.logic.canonical import canonical_fingerprint
from repro.logic.formulas import Formula
from repro.logic.literals import bind
from repro.structures.base import StringStructure


# ------------------------------------------------------------------ the tree


@dataclass
class ExplainNode:
    """One node of the annotated EXPLAIN tree."""

    label: str
    kind: str
    seconds: Optional[float] = None
    states: Optional[int] = None
    transitions: Optional[int] = None
    cache_hit: Optional[bool] = None
    annotations: dict[str, object] = field(default_factory=dict)
    children: list["ExplainNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict[str, object] = {"label": self.label, "kind": self.kind}
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 6)
        if self.states is not None:
            out["states"] = self.states
        if self.transitions is not None:
            out["transitions"] = self.transitions
        if self.cache_hit is not None:
            out["cache_hit"] = self.cache_hit
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: str = "") -> str:
        notes = []
        if self.seconds is not None:
            notes.append(f"{self.seconds * 1000:.2f}ms")
        if self.states is not None:
            notes.append(f"states={self.states}")
        if self.transitions is not None:
            notes.append(f"trans={self.transitions}")
        if self.cache_hit:
            notes.append("cached")
        notes.extend(f"{k}={v}" for k, v in self.annotations.items())
        line = f"{indent}{self.label}" + (f"  [{', '.join(notes)}]" if notes else "")
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)


def _dfa_transition_count(dfa) -> int:
    return sum(1 for _edge in dfa.edges())


class TraceObserver:
    """Builds the EXPLAIN tree while the automata engine recurses.

    The engine calls :meth:`enter` before compiling a subformula and
    :meth:`exit` after, with the compiled relation and whether it was a
    cache hit; nesting gives the tree.
    """

    def __init__(self) -> None:
        self.root: Optional[ExplainNode] = None
        self._stack: list[ExplainNode] = []

    def enter(self, formula: Formula) -> None:
        node = ExplainNode(str(formula), type(formula).__name__)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.root = node
        self._stack.append(node)

    def exit(self, formula: Formula, relation, seconds: float, cached: bool) -> None:
        node = self._stack.pop()
        node.seconds = seconds
        node.cache_hit = cached
        node.states = relation.dfa.num_states
        node.transitions = _dfa_transition_count(relation.dfa)


class AlgebraTrace:
    """Captures what the algebra backend actually did for one query.

    A closure run fills ``pipeline`` and its per-stage ``stage_rows``,
    with ``closure_hit`` telling a warm closure from a fresh compile, and
    ``infinite`` when a RANF pair's runtime bound check tripped (automata
    took over).
    """

    def __init__(self) -> None:
        self.pipeline = None  # Optional[repro.algebra.codegen.GeneratedPipeline]
        self.stage_rows = None  # Optional[list[int]]
        self.closure_hit = False
        self.infinite = False


def plan_tree_to_explain(node) -> ExplainNode:
    """Convert a static :class:`~repro.engine.planner.PlanNode` tree."""
    return ExplainNode(
        node.label,
        node.kind,
        annotations=dict(node.annotations),
        children=[plan_tree_to_explain(c) for c in node.children],
    )


# ---------------------------------------------------------------- execution


def execute_plan(
    plan: Plan,
    database: Database,
    cache: Optional[BoundedCache] = None,
    observer: object = None,
) -> QueryResult:
    """Run a plan's formula through its chosen engine, with caching.

    The one whole-result cache, for every backend that declares
    ``caches_results``, keyed by :func:`result_key`; on a miss an
    ancestor version's answer is promoted when still exact
    (:func:`repro.delta.maintenance.promote_result`).  The automata
    backend caches every subformula compilation in ``cache`` itself.
    ``observer`` is whatever the backend's
    :meth:`~repro.engine.backend.EngineBackend.trace_observer` returned,
    or ``None`` outside EXPLAIN.

    The plan's formula is a template (:mod:`repro.logic.literals`).  A
    parameterized backend runs it with the values in ``plan.params``;
    any other is handed ``bind(template, plan.params)``.
    """
    return _execute(plan, database, cache, observer)[0]


def result_key(plan: Plan, database: Database) -> tuple:
    """The whole-result cache key of ``plan``'s answer on ``database``:
    the plan's fingerprint (template and values), the database
    fingerprint and the backend's name, so a forced engine is never
    answered by another engine's entry.  :func:`execute_plan` stores
    under it, and the service's event-loop probe (:meth:`repro.service.
    QueryService.answer_on_loop`) reads it."""
    return formula_key(
        plan.fingerprint,
        plan.structure.name,
        plan.structure.alphabet.symbols,
        plan.slack,
        database_fingerprint(database),
        stage=f"result:{plan.engine}",
    )


def _execute(
    plan: Plan,
    database: Database,
    cache: Optional[BoundedCache],
    observer: object,
) -> tuple[QueryResult, bool]:
    """:func:`execute_plan`, also saying whether the answer came from the
    whole-result cache."""
    from repro.delta.maintenance import promote_result
    from repro.engine.backend import get_backend

    if cache is None:
        cache = global_cache()
    backend = get_backend(plan.engine)
    METRICS.inc(f"engine.{plan.engine}.runs")
    t0 = time.perf_counter()
    try:
        key = None
        if backend.caches_results:
            key = result_key(plan, database)
            result = cache.get(key)
            if result is None:
                result = promote_result(cache, key, plan.formula, database)
            if result is not None:
                return result, True
        if plan.params and not backend.parameterized:
            plan = replace(plan, formula=bind(plan.formula, plan.params))
        result = backend.execute(plan, database, cache, observer)
        if key is not None:
            cache.put(key, result)
        return result, False
    finally:
        METRICS.add_time(f"engine.{plan.engine}.seconds", time.perf_counter() - t0)


# ------------------------------------------------------------------- explain


@dataclass
class Explain:
    """Everything :meth:`Query.explain` reports for one run."""

    plan: Plan
    root: ExplainNode
    seconds: float
    counters: dict[str, float]
    cache_stats: dict[str, int]
    variables: tuple[str, ...]
    finite: bool
    tuple_count: Optional[int]

    @property
    def template(self) -> Optional[dict]:
        """The template the plan runs (:mod:`repro.logic.literals`), its
        fingerprint and the values bound to its slots; ``None`` for a
        query without literals."""
        if not self.plan.params:
            return None
        return {
            "template": str(self.plan.formula),
            "template_fingerprint": canonical_fingerprint(self.plan.formula),
            "values": list(self.plan.params),
        }

    @property
    def kernel_stats(self) -> dict[str, float]:
        """This run's dense-kernel counters, with the ``kernel.`` prefix
        stripped: interned symbols, dense automata/states built, lazy
        products, short-circuited decisions, minimizations, …"""
        prefix = "kernel."
        return {
            name[len(prefix):]: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def to_dict(self) -> dict:
        out = {
            "plan": self.plan.to_dict(),
            "tree": self.root.to_dict(),
            "seconds": round(self.seconds, 6),
            "counters": dict(self.counters),
            "kernel": self.kernel_stats,
            "cache": dict(self.cache_stats),
            "result": {
                "variables": list(self.variables),
                "finite": self.finite,
                "tuples": self.tuple_count,
            },
        }
        if self.template is not None:
            out["template"] = self.template
        return json_finite(out)

    def render(self) -> str:
        cache = self.cache_stats
        shape = (
            f"{self.tuple_count} tuples" if self.finite else "infinite (regular)"
        )
        lines = [self.plan.render()]
        t = self.template
        if t is not None:
            lines.append(
                f"template: {t['template']}  "
                f"[{t['template_fingerprint'][:12]}]  "
                f"values={t['values']}"
            )
        lines += [
            "",
            f"executed in {self.seconds * 1000:.2f}ms — "
            f"output({', '.join(self.variables) or 'boolean'}): {shape}",
            f"cache: hits={cache['hits']} misses={cache['misses']} "
            f"size={cache['size']}/{cache['maxsize']}",
        ]
        kernel = self.kernel_stats
        if kernel:
            shown = " ".join(f"{k}={v:g}" for k, v in sorted(kernel.items()))
            lines.append(f"kernel: {shown}")
        lines += [
            "",
            self.root.render(),
        ]
        if self.counters:
            lines.append("")
            lines.append("counters (this run):")
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = f"{value:.6f}" if name.endswith(".seconds") else f"{value:g}"
                lines.append(f"  {name} = {shown}")
        return "\n".join(lines)


def explain_query(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    engine: Optional[str] = None,
    slack: Optional[int] = None,
    cache: Optional[BoundedCache] = None,
    timeout: Optional[float] = None,
) -> Explain:
    """Plan through the plan cache (:mod:`repro.engine.plan_cache`),
    execute with tracing, and report (see module docstring); the plan
    says whether it was reused or planned, and why.

    ``timeout`` bounds the traced run in wall-clock seconds via
    :mod:`repro.engine.deadline`, raising
    :class:`~repro.errors.EvaluationTimeout` once exceeded.
    """
    from repro.engine.plan_cache import PlanningForm, plan_cache, with_origin

    with deadline_scope(timeout):
        form = PlanningForm.of(formula)
        found = plan_cache().lookup(
            form, structure, database, slack=slack, force=engine
        )
        plan = with_values(found.plan, form.values)
        return explain_plan(
            with_origin(plan, found, database), database, cache=cache
        )


def explain_plan(
    plan: Plan,
    database: Database,
    cache: Optional[BoundedCache] = None,
) -> Explain:
    """Execute an already made plan with tracing and report on the run."""
    from repro.engine.backend import get_backend

    if cache is None:
        cache = global_cache()
    backend = get_backend(plan.engine)
    observer = backend.trace_observer()
    before = METRICS.snapshot()
    t0 = time.perf_counter()
    result, hit = _execute(plan, database, cache, observer)
    seconds = time.perf_counter() - t0
    counters = metrics_mod.delta(before, METRICS.snapshot())
    root = None if hit else backend.trace_tree(plan, observer, seconds)
    if root is None:
        # A whole-result cache hit or a backend without per-node
        # instrumentation (e.g. the direct engine, which evaluates per
        # candidate tuple): the planner's static tree with the total wall
        # time on the root.
        root = plan_tree_to_explain(plan.root)
        root.seconds = seconds
        if hit:
            root.cache_hit = True
    finite = result.is_finite()
    return Explain(
        plan=plan,
        root=root,
        seconds=seconds,
        counters=counters,
        cache_stats=cache.stats(),
        variables=result.variables,
        finite=finite,
        tuple_count=result.count() if finite else None,
    )
