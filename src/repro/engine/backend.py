"""Engine backends: one registry, one dispatch path for every engine.

Every layer above :mod:`repro.engine` (the planner, EXPLAIN, the public
:class:`~repro.core.query.Query` API, the query service, the CLI) reaches
an engine through this module only:

* :class:`EngineBackend` — the interface one engine implements: a
  ``name``, an :meth:`~EngineBackend.eligible` gate (may this backend run
  this query *without changing the answer*?), a cost estimate (with the
  caches it found cold), forced-mode preparation (e.g. collapsing
  NATURAL quantifiers), :meth:`~EngineBackend.execute`, the EXPLAIN trace hooks, and
  :meth:`~EngineBackend.plan_inputs`, what eligibility reads of a
  database besides the planner's statistics (the plan cache compares it);
* a process-wide **registry** (:func:`register_backend`,
  :func:`get_backend`, :func:`backend_names`, :func:`all_backends`) that
  the planner iterates — eligibility gate first, then cost argmin — so
  adding an engine is one ``register_backend`` call; every change empties
  the plan cache, so the next auto plan considers the new set;
* :func:`resolve_engine` — the one place the ``None``/``"auto"``/name
  normalization lives; unknown names raise
  :class:`~repro.errors.EvaluationError` listing the registered backends.

The built-in backends are ``direct``, ``automata`` and ``algebra``; the
fourth, ``sharded`` (:mod:`repro.shard.backend`), registers itself when
``repro`` is imported.  The algebra backend runs one optimized RA(M)
plan per query, compiled into one generated closure
(:mod:`repro.algebra.codegen`).

``make lint-confine`` fails the build if an engine-name literal
comparison appears outside ``src/repro/engine/``.

The cache keys every backend uses are built by
:func:`repro.engine.cache.formula_key` on the **canonical fingerprint**
(:mod:`repro.logic.canonical`) of the formula plus the database
fingerprint and a stage name, so alpha-equivalent and conjunct-reordered
queries share cache entries.  Whole answers of the restricted-domain
backends (``caches_results``) are cached in one place,
:func:`repro.engine.explain.execute_plan`, as their rows.
"""

from __future__ import annotations

import abc
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.database.instance import Database
from repro.engine.cache import BoundedCache, registered_caches
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError
from repro.logic.formulas import Formula, QuantKind
from repro.logic.literals import bind
from repro.structures.base import StringStructure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.explain import ExplainNode
    from repro.engine.planner import Plan, Planner
    from repro.eval.result import QueryResult

__all__ = [
    "EngineBackend",
    "Estimate",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_engine",
    "unregister_backend",
]


class Estimate(NamedTuple):
    """A backend's cost estimate.  ``cold`` holds one probe per cache
    the estimate found cold and priced as such: each returns True once
    that cache is warm, which makes the plan cache replan
    (:mod:`repro.engine.plan_cache`)."""

    cost: float
    cold: tuple[Callable[[], bool], ...] = ()


class EngineBackend(abc.ABC):
    """One evaluation strategy, as seen by the planner and executors.

    Subclasses implement the abstract methods and register an instance
    with :func:`register_backend`.  All methods must be thread-safe: the
    query service shares the registry across its whole worker pool.
    """

    #: Registry key, forced-engine name, and METRICS component.
    name: str = ""

    #: Tie-break rank during auto-selection: among backends whose scaled
    #: cost estimates tie, the lowest priority wins.  The built-ins use
    #: direct=0, algebra=10, automata=20 (the historical preference).
    priority: int = 100

    #: Runs query templates itself, reading the slot values from
    #: ``plan.params``.  Other backends are handed the bound formula
    #: (:func:`repro.engine.explain.execute_plan`).
    parameterized: bool = False

    #: Whole answers are cached by
    #: :func:`repro.engine.explain.execute_plan`, keyed by the plan's
    #: fingerprint, the database fingerprint and the backend name.  A
    #: backend that caches at a finer grain itself leaves this off.
    caches_results: bool = False

    # ------------------------------------------------------------- planning

    @abc.abstractmethod
    def eligible(
        self, formula: Formula, structure: StringStructure, database: Database
    ) -> tuple[bool, str]:
        """May this backend evaluate ``formula`` without changing the answer?

        Returns ``(ok, reason)``; the reason of the blocking backend is
        surfaced in the plan when only one backend remains eligible.
        """

    @abc.abstractmethod
    def estimate_cost(
        self,
        formula: Formula,
        structure: StringStructure,
        database: Database,
        slack: int,
        planner: "Planner",
    ) -> float:
        """Estimated work in the planner's common cost units (may be inf).

        Called for *every* registered backend (eligible or not) so plans
        can display the full comparison; ineligible regimes return inf.
        """

    def estimate(
        self,
        formula: Formula,
        structure: StringStructure,
        database: Database,
        slack: int,
        planner: "Planner",
    ) -> Estimate:
        """:meth:`estimate_cost` with the caches it found cold.  A backend
        whose cost depends on cache warmth overrides this; the planner
        calls only this."""
        return Estimate(
            self.estimate_cost(formula, structure, database, slack, planner)
        )

    def plan_inputs(
        self, database: Database
    ) -> tuple[object, tuple[int, ...]]:
        """What :meth:`eligible` or the estimate reads of ``database``
        beyond the planner's statistics: an exact part, compared by value,
        and sizes, held to the plan cache's drift window
        (:mod:`repro.engine.plan_cache`).  ``(None, ())`` by default."""
        return None, ()

    def decision_cost(self, cost: float, planner: "Planner") -> float:
        """Scale the display estimate for cross-backend comparison.

        The default is the identity; built-ins use it to apply the
        planner's tuning knobs (direct's enumeration ceiling, the
        automata state-expansion bias)."""
        return cost

    def prepare_forced(
        self, formula: Formula, structure: StringStructure, slack: Optional[int]
    ) -> tuple[Formula, int, str]:
        """Formula, slack, and reason used when this engine is *forced*.

        The default runs the formula as-is with slack 0; backends that
        cannot evaluate NATURAL quantifiers collapse them here (and may
        raise at plan time when even the collapsed formula is out of
        reach — a clearer error than one mid-execution)."""
        return formula, slack if slack is not None else 0, "engine forced by caller"

    def chosen_reason(self, costs: dict[str, float], planner: "Planner") -> str:
        """One-line justification when auto-selection picks this backend."""
        return f"estimated cheapest (≈{costs.get(self.name, float('inf')):g})"

    # ------------------------------------------------------------ execution

    @abc.abstractmethod
    def execute(
        self,
        plan: "Plan",
        database: Database,
        cache: BoundedCache,
        observer: object = None,
    ) -> "QueryResult":
        """Run a plan this backend produced (``plan.engine == self.name``)."""

    def warm(self, plan: "Plan", database: Database) -> bool:
        """True when running ``plan`` on ``database`` builds nothing first,
        so the query service may run it on a transport's event loop under
        a deadline budget (:meth:`repro.service.QueryService.
        answer_on_loop`).  ``False`` by default."""
        return False

    # -------------------------------------------------------------- explain

    def trace_observer(self) -> object:
        """A fresh observer :meth:`execute` fills for EXPLAIN, or ``None``
        when the backend has no per-node instrumentation."""
        return None

    def trace_tree(
        self, plan: "Plan", observer: object, seconds: float
    ) -> Optional["ExplainNode"]:
        """The annotated EXPLAIN tree built from ``observer``.

        ``None`` falls back to the planner's static tree with the total
        wall time on the root."""
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


# ------------------------------------------------------------------ registry


_REGISTRY: dict[str, EngineBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(backend: EngineBackend, replace: bool = False) -> EngineBackend:
    """Add ``backend`` to the registry (keyed by ``backend.name``).

    Registration makes the backend visible to the planner's auto-selection
    loop, to ``engine=`` forcing on every API layer, and to the CLI's
    ``--engine`` flag — adding an engine is exactly this one call.
    """
    if not backend.name or backend.name == "auto":
        raise EvaluationError(
            f"backend name {backend.name!r} is reserved or empty"
        )
    with _REGISTRY_LOCK:
        if backend.name in _REGISTRY and not replace:
            raise EvaluationError(
                f"backend {backend.name!r} is already registered "
                "(pass replace=True to swap it)"
            )
        _REGISTRY[backend.name] = backend
    _forget_plans()
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (primarily for tests registering toys)."""
    with _REGISTRY_LOCK:
        removed = _REGISTRY.pop(name, None) is not None
    if removed:
        _forget_plans()


def _forget_plans() -> None:
    """Empty the plan cache: its plans chose among the previous backends."""
    plans = registered_caches().get("planner.plan_cache")
    if plans is not None:
        plans.clear()


def backend_names() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def all_backends() -> tuple[EngineBackend, ...]:
    """Every registered backend, in auto-selection order (priority, name)."""
    with _REGISTRY_LOCK:
        backends = list(_REGISTRY.values())
    return tuple(sorted(backends, key=lambda b: (b.priority, b.name)))


def get_backend(name: str) -> EngineBackend:
    """The backend registered under ``name``.

    Raises :class:`~repro.errors.EvaluationError` listing the registered
    names — the single source of the "unknown engine" error on every
    layer (``Query.run``, the service, the CLI)."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        have = ", ".join(backend_names()) or "none"
        raise EvaluationError(
            f"unknown engine {name!r} (registered backends: {have})"
        )
    return backend


def resolve_engine(name: Optional[str]) -> Optional[str]:
    """Normalize an ``engine=`` argument to a registered backend name.

    ``None`` and ``"auto"`` mean planner-selected and resolve to ``None``;
    anything else must name a registered backend (validated here, so the
    caller gets the registry-sourced error before any work starts)."""
    if name is None or name == "auto":
        return None
    return get_backend(name).name


# ------------------------------------------------------- shared eligibility


def restricted_output_gate(
    formula: Formula, database: Database
) -> tuple[bool, str]:
    """The conservatism rules of the enumerating backends.

    A backend that enumerates restricted domains (direct, sharded) agrees
    with the reference natural semantics only when (1) the formula has no
    NATURAL quantifier, (2) every free variable is anchored in a positive
    database atom, and (3) ADOM quantification is not vacuously empty.
    The reasons mirror the planner's historical wording.
    """
    from repro.engine.planner import anchored_free_variables

    kinds = formula.quantifier_kinds()
    if QuantKind.NATURAL in kinds:
        return False, "NATURAL quantifiers need the exact automata engine"
    free = formula.free_variables()
    anchored = anchored_free_variables(formula)
    if free and not free <= anchored:
        loose = sorted(free - anchored)
        return False, (
            f"free variable(s) {loose} not anchored in a positive "
            "database atom; direct enumeration could truncate the output"
        )
    if QuantKind.ADOM in kinds and not database.adom:
        return False, "empty active domain: ADOM anchoring is vacuous"
    return True, "restricted quantifiers with anchored output"


def _fmt_cost(cost: float) -> str:
    from repro.engine.planner import _fmt_cost as fmt

    return fmt(cost)


# ------------------------------------------------------- built-in backends


class DirectBackend(EngineBackend):
    """Tuple-at-a-time enumeration over the restricted quantifier domains
    (:mod:`repro.eval.direct`); whole answers cached."""

    name = "direct"
    priority = 0
    caches_results = True

    def eligible(self, formula, structure, database):
        return restricted_output_gate(formula, database)

    def estimate_cost(self, formula, structure, database, slack, planner):
        from repro.engine.planner import estimate_direct_cost

        return estimate_direct_cost(formula, structure, database, slack)

    def decision_cost(self, cost, planner):
        # The ceiling protects against LENGTH-domain blowups: past it the
        # backend drops out of the comparison entirely.
        from repro.engine.planner import DIRECT_COST_CEILING

        return cost if cost <= DIRECT_COST_CEILING else float("inf")

    def prepare_forced(self, formula, structure, slack):
        # Mirror the historical Query.result(engine="direct") semantics:
        # collapse NATURAL quantifiers, default slack 1.
        from repro.eval.collapse import collapse

        collapsed = collapse(formula, structure, slack=1 if slack is None else slack)
        return (
            collapsed.formula,
            collapsed.slack,
            "engine forced by caller (formula collapsed)",
        )

    def chosen_reason(self, costs, planner):
        return (
            "restricted quantifiers, anchored output, and a small "
            f"enumeration domain (≈{_fmt_cost(costs[self.name])} checks)"
        )

    def execute(self, plan, database, cache, observer=None):
        from repro.eval.direct import DirectEngine

        return DirectEngine(
            plan.structure, database, slack=plan.slack
        ).run(plan.formula)


class AutomataBackend(EngineBackend):
    """The exact reference engine (:mod:`repro.eval.automata_engine`):
    handles every query, natural quantifiers and infinite outputs
    included, memoizing each subformula automaton in the shared cache."""

    name = "automata"
    priority = 20

    def eligible(self, formula, structure, database):
        return True, "exact on every query of the calculus"

    def estimate_cost(self, formula, structure, database, slack, planner):
        from repro.engine.planner import estimate_automata_cost

        return estimate_automata_cost(formula, structure, database)

    def decision_cost(self, cost, planner):
        # One state expansion costs as much as DIRECT_BIAS direct checks.
        # The bias models the dense kernel (flat-array products, lazy
        # pipelines, vectorized Hopcroft — see repro/automata/kernel.py),
        # not the legacy dict-of-dicts machinery.
        from repro.engine.planner import DIRECT_BIAS

        return cost * DIRECT_BIAS

    def chosen_reason(self, costs, planner):
        from repro.engine.planner import DIRECT_COST_CEILING

        direct = costs.get("direct", float("inf"))
        if direct > DIRECT_COST_CEILING:
            return (
                f"restricted domains too large for enumeration "
                f"(≈{_fmt_cost(direct)} checks > ceiling "
                f"{_fmt_cost(DIRECT_COST_CEILING)})"
            )
        return (
            "automata compilation estimated cheaper than "
            f"enumeration (≈{_fmt_cost(costs[self.name])} states vs "
            f"≈{_fmt_cost(direct)} checks)"
        )

    def execute(self, plan, database, cache, observer=None):
        from repro.eval.automata_engine import AutomataEngine

        engine = AutomataEngine(
            plan.structure,
            database,
            slack=plan.slack,
            cache=cache,
            observer=observer,
        )
        return engine.run(plan.formula)

    def trace_observer(self):
        from repro.engine.explain import TraceObserver

        return TraceObserver()

    def trace_tree(self, plan, observer, seconds):
        return getattr(observer, "root", None)


class AlgebraBackend(EngineBackend):
    """The RA(M) engine: one optimized algebra plan per query
    (:func:`repro.algebra.optimize.compile_for_execution`), compiled into
    one generated Python closure (:mod:`repro.algebra.codegen`) with
    inlined predicates and hash tables built outside the probe loop,
    closures cached per canonical fingerprint and schema, whole results
    cached.

    The closure runs a RANF pair's runtime infinity check first and
    defers to the exact automata engine when it trips.
    """

    name = "algebra"
    priority = 10
    parameterized = True
    caches_results = True

    def eligible(self, formula, structure, database):
        from repro.algebra.ranf import translation_verdict

        verdict = translation_verdict(formula, structure)
        if not verdict.ok:
            where = f" at {verdict.bail_node}" if verdict.bail_node else ""
            return False, (
                "not range-restricted (RANF translation bailed: "
                f"{verdict.reason}{where})"
            )
        # The gamma-bounded branch tolerates unanchored output (its pair
        # carries the runtime bound check), but vacuous ADOM anchoring is
        # still degenerate — the direct gate refuses it too, so the
        # automata engine answers it.
        if QuantKind.ADOM in formula.quantifier_kinds() and not database.adom:
            return False, "empty active domain: ADOM anchoring is vacuous"
        return True, f"RANF-translatable query ({verdict.branch} branch)"

    def estimate_cost(self, formula, structure, database, slack, planner):
        return self.estimate(formula, structure, database, slack, planner).cost

    def estimate(self, formula, structure, database, slack, planner):
        from repro.algebra.codegen import pipeline_probe
        from repro.algebra.optimize import plans_probe
        from repro.algebra.ranf import translation_verdict
        from repro.engine.planner import (
            CODEGEN_ROW_FACTOR,
            CODEGEN_SETUP_COST,
            RANF_SETUP_COST,
            estimate_algebra_cost,
        )

        rows = estimate_algebra_cost(formula, structure, database, slack)
        if rows == float("inf"):
            return Estimate(rows)
        cost = rows * CODEGEN_ROW_FACTOR
        schema = database.schema
        compiled = pipeline_probe(formula, structure, schema, slack)
        if compiled():
            return Estimate(cost)
        # Compiling the closure (and, outside the collapsed fragment, the
        # RANF translation) is charged only while nothing is cached: the
        # LRUs amortize it away for repeated and prepared queries.
        cost += CODEGEN_SETUP_COST
        cold = [compiled]
        verdict = translation_verdict(formula, structure)
        if verdict.ok and verdict.branch != "collapsed":
            translated = plans_probe(formula, structure, schema, slack)
            if not translated():
                cost += RANF_SETUP_COST
                cold.append(translated)
        return Estimate(cost, tuple(cold))

    def prepare_forced(self, formula, structure, slack):
        # Same restricted semantics as a forced direct engine: collapse
        # NATURAL quantifiers (default slack 1), then require the result
        # to be RANF-translatable — strictly wider than the historical
        # collapsed-form check.  Fail here, at plan time, if even the
        # collapsed formula bails — a clearer error than one
        # mid-execution.
        from repro.algebra.compile import CompileError
        from repro.algebra.ranf import translation_verdict
        from repro.eval.collapse import collapse

        collapsed = collapse(formula, structure, slack=1 if slack is None else slack)
        verdict = translation_verdict(collapsed.formula, structure)
        if not verdict.ok:
            raise CompileError(
                "algebra engine cannot evaluate this query even after "
                f"collapsing: RANF translation bailed: {verdict.reason}"
            )
        return (
            collapsed.formula,
            collapsed.slack,
            "engine forced by caller (formula collapsed)",
        )

    def chosen_reason(self, costs, planner):
        return (
            "RANF-translatable query: set-at-a-time hash joins "
            f"estimated cheapest (≈{_fmt_cost(costs[self.name])} row "
            f"ops vs ≈{_fmt_cost(costs.get('direct', float('inf')))} "
            "direct checks)"
        )

    def execute(self, plan, database, cache, observer=None):
        from repro.algebra.codegen import get_pipeline
        from repro.engine.explain import AlgebraTrace
        from repro.eval.result import QueryResult

        trace = observer if isinstance(observer, AlgebraTrace) else AlgebraTrace()
        # Closures are schema-keyed, so row-only deltas reuse the
        # compiled code and only pay the data pass.
        pipeline, detail = get_pipeline(
            plan.formula, plan.structure, database.schema, plan.slack
        )
        METRICS.inc("codegen.runs")
        if pipeline.inf_stages:
            METRICS.inc("algebra.ranf.inf_checks")
        rows, trace.stage_rows = pipeline.run(database, plan.params)
        trace.pipeline = pipeline
        trace.closure_hit = detail == "hit"
        if rows is None:
            # The runtime bound certificate failed: the natural result
            # may be infinite; defer to the exact engine (correctness
            # fallback, never a wrong answer).
            from repro.eval.automata_engine import AutomataEngine

            METRICS.inc("algebra.ranf.infinite_bailouts")
            trace.infinite = True
            return AutomataEngine(
                plan.structure, database, slack=plan.slack, cache=cache
            ).run(bind(plan.formula, plan.params))
        return QueryResult(pipeline.columns, rows)

    def warm(self, plan, database):
        from repro.algebra.codegen import has_pipeline

        return has_pipeline(
            plan.formula, plan.structure, database.schema, plan.slack
        )

    def trace_observer(self):
        from repro.engine.explain import AlgebraTrace

        return AlgebraTrace()

    def trace_tree(self, plan, observer, seconds):
        if observer.pipeline is None:
            return None
        return _pipeline_tree(observer, seconds)


def _pipeline_tree(observer, seconds: float) -> "ExplainNode":
    """The EXPLAIN tree of a closure run: one node per fused stage, under
    one node per half when the closure runs a RANF pair."""
    from repro.engine.explain import ExplainNode

    pipeline = observer.pipeline
    stage_rows = observer.stage_rows or []
    children = []
    for i, stage in enumerate(pipeline.stages):
        notes = {"rows": stage_rows[i] if i < len(stage_rows) else "?"}
        children.append(ExplainNode(stage["label"], stage["kind"], annotations=notes))
    label = (
        f"codegen[{len(pipeline.stages)} fused stages, "
        f"{pipeline.line_count} source lines]"
    )
    notes = {
        "source_lines": pipeline.line_count,
        "closure": "warm" if observer.closure_hit else "compiled",
    }
    split = pipeline.inf_stages
    if not split:
        return ExplainNode(
            label, "CodegenPipeline", seconds=seconds, annotations=notes,
            children=children,
        )
    # A RANF pair: the inf half's stages, then (unless the check
    # tripped) the fin half's, which reuse the inf half's relations.
    halves = [ExplainNode("inf", "RanfHalf", annotations={"half": "inf"},
                          children=children[:split])]
    notes["branch"] = pipeline.branch
    if observer.infinite:
        notes["infinite"] = True
        notes["fallback"] = "automata"
    else:
        halves.append(ExplainNode("fin", "RanfHalf", annotations={"half": "fin"},
                                  children=children[split:]))
    return ExplainNode(
        f"ranf[{pipeline.branch}] {label}", "RanfPipeline", seconds=seconds,
        annotations=notes, children=halves,
    )


register_backend(DirectBackend())
register_backend(AlgebraBackend())
register_backend(AutomataBackend())
