"""Engine backends: one registry, one dispatch path for every engine.

Every layer above :mod:`repro.engine` (the planner, EXPLAIN, the public
:class:`~repro.core.query.Query` API, the query service, the CLI) reaches
an engine through this module only:

* :class:`EngineBackend` — the interface one engine implements: a
  ``name``, an :meth:`~EngineBackend.eligible` gate (may this backend run
  this query *without changing the answer*?), a cost estimate (with the
  execution strategy it prices, for a backend that has more than one),
  forced-mode preparation (e.g. collapsing NATURAL quantifiers),
  :meth:`~EngineBackend.execute`, and the EXPLAIN trace hooks;
* a process-wide **registry** (:func:`register_backend`,
  :func:`get_backend`, :func:`backend_names`, :func:`all_backends`) that
  the planner iterates — eligibility gate first, then cost argmin — so
  adding an engine is one ``register_backend`` call;
* :func:`resolve_engine` — the one place the ``None``/``"auto"``/name
  normalization lives; unknown names raise
  :class:`~repro.errors.EvaluationError` listing the registered backends.

The built-in backends are ``direct``, ``automata`` and ``algebra``.  The
algebra backend runs one optimized RA(M) plan per query in one of two
strategies, recorded on the plan (``Plan.strategy``): *fused* into one
generated closure (:mod:`repro.algebra.codegen`) or *interpreted* by the
set-at-a-time executor (:mod:`repro.algebra.exec`).

``make lint-confine`` fails the build if an engine-name literal
comparison appears outside ``src/repro/engine/``.

The cache keys every backend uses are built by
:func:`repro.engine.cache.formula_key` on the **canonical fingerprint**
(:mod:`repro.logic.canonical`) of the formula plus the database
fingerprint and the backend's stage name, so alpha-equivalent and
conjunct-reordered queries share cache entries across every backend.
"""

from __future__ import annotations

import abc
import threading
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.database.instance import Database
from repro.engine.cache import AutomatonCache, database_fingerprint, formula_key
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
    "FUSED",
    "INTERPRETED",
    "EngineBackend",
    "Estimate",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_engine",
    "unregister_backend",
]


#: The algebra backend's two ways to run a plan (``Plan.strategy``).
FUSED = "fused"
INTERPRETED = "interpreted"


class Estimate(NamedTuple):
    """A backend's cost estimate and the execution strategy it prices
    (empty for a backend with one way to run a plan); ``note`` says why
    that strategy, for the plan's reason."""

    cost: float
    strategy: str = ""
    note: str = ""


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

    #: The strategy a *forced* plan of this backend runs (``Plan.strategy``).
    forced_strategy: str = ""

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
        """:meth:`estimate_cost` with the strategy it prices.  A backend
        with more than one way to run a plan overrides this, prices each
        and returns the cheapest; the planner calls only this."""
        return Estimate(
            self.estimate_cost(formula, structure, database, slack, planner)
        )

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
        cache: AutomatonCache,
        observer: object = None,
    ) -> "QueryResult":
        """Run a plan this backend produced (``plan.engine == self.name``)."""

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
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (primarily for tests registering toys)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


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
    """The conservatism rules shared by every restricted-domain backend.

    A backend that enumerates restricted domains (direct, algebra) agrees
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
    (:mod:`repro.eval.direct`); caches whole result relations."""

    name = "direct"
    priority = 0

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
        from repro.delta.maintenance import promote_result
        from repro.eval.direct import DirectEngine
        from repro.eval.result import QueryResult

        key = formula_key(
            plan.formula,
            plan.structure.name,
            plan.structure.alphabet.symbols,
            plan.slack,
            database_fingerprint(database),
            stage="direct-result",
        )
        cached = cache.get(key)
        if cached is None:
            # The database may be a delta-store version whose ancestors
            # already answered this query; untouched relations + stable
            # adom mean the old result is still exact.
            cached = promote_result(cache, key, plan.formula)
        if cached is not None:
            return QueryResult(*cached)
        result = DirectEngine(
            plan.structure, database, slack=plan.slack
        ).run(plan.formula)
        cache.put(key, (result.variables, result.relation))
        return result


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
    (:func:`repro.algebra.exec.compile_for_execution`), run one of two
    ways, whole results cached.

    * **fused** — the plan compiled into one generated Python closure
      (:mod:`repro.algebra.codegen`): inlined predicates, hash tables
      built outside the probe loop, closures cached per canonical
      fingerprint and schema;
    * **interpreted** — the set-at-a-time executor
      (:mod:`repro.algebra.exec`) over the RANF pair, with its runtime
      infinity check, subplan recording and ΔQ maintenance on
      delta-store versions.

    Auto plans price both and run the cheaper; the fused strategy is
    priced only when the plan fuses and its output is anchored (the
    fused closure runs the pair's finite half alone), and wins ties.  A
    forced ``engine="algebra"`` plan runs interpreted.
    """

    name = "algebra"
    priority = 10
    parameterized = True
    forced_strategy = INTERPRETED

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
        # still degenerate — let direct answer it for free.
        if QuantKind.ADOM in formula.quantifier_kinds() and not database.adom:
            return False, "empty active domain: ADOM anchoring is vacuous"
        return True, f"RANF-translatable query ({verdict.branch} branch)"

    def estimate_cost(self, formula, structure, database, slack, planner):
        return self.estimate(formula, structure, database, slack, planner).cost

    def estimate(self, formula, structure, database, slack, planner):
        from repro.algebra import ranf
        from repro.algebra.codegen import has_pipeline, shape_supported
        from repro.engine.planner import (
            ALGEBRA_SETUP_COST,
            CODEGEN_ROW_FACTOR,
            CODEGEN_SETUP_COST,
            RANF_SETUP_COST,
            estimate_algebra_cost,
        )

        rows = estimate_algebra_cost(formula, structure, database, slack)
        if rows == float("inf"):
            return Estimate(rows, INTERPRETED)
        verdict = ranf.translation_verdict(formula, structure)
        # The RANF pass itself; amortized away once the pair is in the
        # translation cache.
        ranf_setup = RANF_SETUP_COST if (
            verdict.ok
            and verdict.branch != "collapsed"
            and not ranf.has_translation(formula, structure, database.schema, slack)
        ) else 0.0
        # Fixed compile+rewrite setup, so tiny queries stay direct.
        interpreted = rows + ALGEBRA_SETUP_COST + ranf_setup
        ok, why = restricted_output_gate(formula, database)
        if ok:
            ok, why = shape_supported(formula, structure, database.schema)
        if not ok:
            return Estimate(
                interpreted, INTERPRETED, f"interpreted, not fuseable: {why}"
            )
        # Fusion removes per-tuple interpreter dispatch, so row work is
        # cheaper; compilation is charged only while no closure is
        # cached — the LRU amortizes it away for repeated and prepared
        # queries.
        fused = rows * CODEGEN_ROW_FACTOR
        if not has_pipeline(formula, structure, database.schema, slack):
            fused += CODEGEN_SETUP_COST + ranf_setup
        if fused <= interpreted:
            return Estimate(fused, FUSED, (
                f"fused: ≈{_fmt_cost(fused)} row ops after fusion vs "
                f"≈{_fmt_cost(interpreted)} interpreted"
            ))
        return Estimate(interpreted, INTERPRETED, (
            f"interpreted: ≈{_fmt_cost(interpreted)} row ops vs "
            f"≈{_fmt_cost(fused)} fused (closure not compiled yet)"
        ))

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
        from repro.delta.maintenance import promote_result
        from repro.engine.explain import AlgebraTrace
        from repro.eval.result import QueryResult

        trace = observer if isinstance(observer, AlgebraTrace) else AlgebraTrace()
        key = formula_key(
            plan.fingerprint,
            plan.structure.name,
            plan.structure.alphabet.symbols,
            plan.slack,
            database_fingerprint(database),
            stage="algebra-result",
        )
        cached = cache.get(key)
        if cached is None and plan.strategy == FUSED:
            # Delta-store versions whose walked deltas touch none of the
            # query's relations re-key the old result forward; anything
            # else is a full compiled run — closures are schema-keyed,
            # so row-only deltas reuse the compiled code and only pay
            # the data pass (never a stale answer).
            cached = promote_result(cache, key, plan.formula)
        if cached is not None:
            trace.cached = True
            return QueryResult(*cached)
        result = None
        if plan.strategy == FUSED:
            result = self._fused(plan, database, trace)
        if result is None:
            result = self._interpreted(plan, database, cache, trace)
        cache.put(key, (result.variables, result.relation))
        return result

    @staticmethod
    def _fused(plan, database, trace):
        """The answer of the plan's compiled closure, or ``None`` when the
        shape does not fuse at the plan's slack."""
        from repro.algebra.codegen import get_pipeline

        pipeline, detail = get_pipeline(
            plan.formula, plan.structure, database.schema, plan.slack
        )
        if pipeline is None:
            METRICS.inc("codegen.fallbacks")
            trace.fallback = detail
            return None
        METRICS.inc("codegen.runs")
        rows, trace.stage_rows = pipeline.run(database, plan.params)
        trace.pipeline = pipeline
        trace.closure_hit = detail == "hit"
        return _table(plan, pipeline.columns, rows)

    @staticmethod
    def _interpreted(plan, database, cache, trace):
        """The executor's answer, or the exact engine's when the RANF
        pair's runtime bound check fails."""
        from repro.algebra.exec import run_algebra
        from repro.algebra.ranf import run_ranf, translation_verdict
        from repro.delta import maintenance

        # Delta-store versions: maintain the previous version's recorded
        # subplan rows through the ΔQ rules instead of recomputing; full
        # runs on tracked versions record their subplans for next time.
        maintained = maintenance.maintain_algebra_result(plan, database)
        if maintained is not None:
            # Maintained runs reuse a prior full run's answer, whose
            # "infinite" check already passed.
            trace.cached = True
            return _table(plan, *maintained)
        recorder = maintenance.subplan_recorder(
            plan.structure, database, plan.params
        )
        verdict = translation_verdict(plan.formula, plan.structure)
        if not (verdict.ok and verdict.branch != "collapsed"):
            columns, rows, trace.stats = run_algebra(
                plan.formula, plan.structure, database, slack=plan.slack,
                recorder=recorder, params=plan.params,
            )
            return _table(plan, columns, rows)
        run = run_ranf(
            plan.formula, plan.structure, database, slack=plan.slack,
            recorder=recorder, params=plan.params,
        )
        trace.ranf_branch = run.branch
        trace.inf_stats = run.inf_stats
        trace.infinite = run.infinite
        if run.infinite:
            # The runtime bound certificate failed: the natural result
            # may be infinite; defer to the exact engine (correctness
            # fallback, never a wrong answer).
            from repro.eval.automata_engine import AutomataEngine

            return AutomataEngine(
                plan.structure, database, slack=plan.slack, cache=cache
            ).run(bind(plan.formula, plan.params))
        trace.stats = run.stats
        return _table(plan, run.columns, run.rows)

    def trace_observer(self):
        from repro.engine.explain import AlgebraTrace

        return AlgebraTrace()

    def trace_tree(self, plan, observer, seconds):
        from repro.engine.explain import (
            ExplainNode,
            op_stats_to_explain,
            plan_tree_to_explain,
        )

        if observer.pipeline is not None:
            return _pipeline_tree(observer, seconds)
        if observer.ranf_branch is not None and (
            observer.stats is not None or observer.inf_stats is not None
        ):
            # A RANF pair ran: show both halves under one root, annotated
            # with the branch that fired and the infinity-check outcome.
            children = []
            if observer.inf_stats is not None:
                inf_node = op_stats_to_explain(observer.inf_stats)
                inf_node.annotations["half"] = "inf"
                children.append(inf_node)
            if observer.stats is not None:
                fin_node = op_stats_to_explain(observer.stats)
                fin_node.annotations["half"] = "fin"
                children.append(fin_node)
            notes: dict[str, object] = {"branch": observer.ranf_branch}
            if observer.infinite:
                notes["infinite"] = True
                notes["fallback"] = "automata"
            root = ExplainNode(
                f"ranf[{observer.ranf_branch}]", "RanfPair", seconds=seconds,
                annotations=notes, children=children,
            )
        elif observer.stats is not None:
            root = op_stats_to_explain(observer.stats)
        elif observer.cached:
            # Whole-result cache hit: no physical operators ran — show the
            # planner's static tree, marked cached.
            root = plan_tree_to_explain(plan.root)
            root.seconds = seconds
            root.cache_hit = True
        else:
            return None
        if observer.fallback is not None:
            root.annotations["codegen_fallback"] = observer.fallback
        return root


def _table(plan, columns, rows) -> "QueryResult":
    from repro.automatic.relation import RelationAutomaton
    from repro.eval.result import QueryResult

    return QueryResult(columns, RelationAutomaton.from_tuples(
        plan.structure.alphabet, len(columns), rows
    ))


def _pipeline_tree(observer, seconds: float) -> "ExplainNode":
    """The EXPLAIN tree of a fused run: one node per fused stage."""
    from repro.engine.explain import ExplainNode

    pipeline = observer.pipeline
    stage_rows = observer.stage_rows or []
    children = []
    for i, stage in enumerate(pipeline.stages):
        notes = {"rows": stage_rows[i] if i < len(stage_rows) else "?"}
        if stage["numpy"]:
            notes["numpy"] = True
        children.append(ExplainNode(stage["label"], stage["kind"], annotations=notes))
    return ExplainNode(
        f"codegen[{len(pipeline.stages)} fused stages, "
        f"{pipeline.line_count} source lines]",
        "CodegenPipeline",
        seconds=seconds,
        annotations={
            "source_lines": pipeline.line_count,
            "numpy_stages": pipeline.np_stages,
            "closure": "warm" if observer.closure_hit else "compiled",
        },
        children=children,
    )


register_backend(DirectBackend())
register_backend(AlgebraBackend())
register_backend(AutomataBackend())
