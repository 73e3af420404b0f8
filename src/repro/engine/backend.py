"""Engine backends: one registry, one dispatch path for every engine.

Historically the library's three engines (direct, automata, algebra) were
glued together by string-literal dispatch — ``if plan.engine ==
"automata": ...`` — duplicated across the planner, EXPLAIN, the public
:class:`~repro.core.query.Query` API, the query service, and the CLI, and
each engine re-implemented its own cache keys and metrics names.  This
module replaces all of that with a single seam:

* :class:`EngineBackend` — the interface one evaluation strategy
  implements: a ``name``, an :meth:`~EngineBackend.eligible` gate (may
  this backend run this query *without changing the answer*?), a cost
  estimate, forced-mode preparation (e.g. collapsing NATURAL
  quantifiers), :meth:`~EngineBackend.execute`, and the EXPLAIN trace
  hooks;
* a process-wide **registry** (:func:`register_backend`,
  :func:`get_backend`, :func:`backend_names`, :func:`all_backends`) that
  the planner iterates — eligibility gate first, then cost argmin — so
  adding backend #4 is one ``register_backend`` call, not five edits;
* :func:`resolve_engine` — the one place the ``None``/``"auto"``/name
  normalization lives; unknown names raise
  :class:`~repro.errors.EvaluationError` listing the registered backends.

Every layer above :mod:`repro.engine` resolves engine names through this
registry only; ``make lint-confine`` fails the build if an engine-name
literal comparison reappears outside ``src/repro/engine/``.

The cache keys all three backends use are built by
:func:`repro.engine.cache.formula_key` on the **canonical fingerprint**
(:mod:`repro.logic.canonical`) of the formula plus the database
fingerprint and the backend's stage name, so alpha-equivalent and
conjunct-reordered queries share cache entries across every backend.
"""

from __future__ import annotations

import abc
import threading
from typing import TYPE_CHECKING, Optional

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
    "EngineBackend",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_engine",
    "unregister_backend",
]


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
        return cost if cost <= planner.ceiling else float("inf")

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
        # One state expansion costs as much as `bias` direct checks.
        # The bias models the dense kernel (flat-array products, lazy
        # pipelines, vectorized Hopcroft — see repro/automata/kernel.py),
        # not the legacy dict-of-dicts machinery; see DIRECT_BIAS.
        return cost * planner.bias

    def chosen_reason(self, costs, planner):
        direct = costs.get("direct", float("inf"))
        if direct > planner.ceiling:
            return (
                f"restricted domains too large for enumeration "
                f"(≈{_fmt_cost(direct)} checks > ceiling "
                f"{_fmt_cost(planner.ceiling)})"
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
    """The set-at-a-time RA(M) executor (:mod:`repro.algebra.exec`):
    hash joins over the collapsed form, whole results cached."""

    name = "algebra"
    priority = 10
    parameterized = True

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
        from repro.algebra import ranf
        from repro.engine.planner import estimate_algebra_cost

        cost = estimate_algebra_cost(formula, structure, database, slack)
        if cost != float("inf"):
            # Fixed compile+rewrite setup, so tiny queries stay direct.
            cost += planner.algebra_setup
            verdict = ranf.translation_verdict(formula, structure)
            if (
                verdict.ok
                and verdict.branch != "collapsed"
                and not ranf.has_translation(
                    formula, structure, database.schema, slack
                )
            ):
                # The RANF pass itself; amortized away once the pair is
                # in the translation cache.
                cost += planner.ranf_setup
        return cost

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
        from repro.algebra.exec import run_algebra
        from repro.automatic.relation import RelationAutomaton
        from repro.engine.explain import AlgebraTrace
        from repro.eval.result import QueryResult

        key = formula_key(
            plan.fingerprint,
            plan.structure.name,
            plan.structure.alphabet.symbols,
            plan.slack,
            database_fingerprint(database),
            stage="algebra-result",
        )
        cached = cache.get(key)
        if cached is not None:
            if isinstance(observer, AlgebraTrace):
                observer.cached = True
            return QueryResult(*cached)
        # Delta-store versions: maintain the previous version's recorded
        # subplan rows through the ΔQ rules instead of recomputing; full
        # runs on tracked versions record their subplans for next time.
        from repro.delta import maintenance

        maintained = maintenance.maintain_algebra_result(plan, database)
        if maintained is not None:
            # Maintained (and whole-result-cached) runs reuse a prior
            # full run's answer, whose "infinite" check already passed.
            columns, rows = maintained
            if isinstance(observer, AlgebraTrace):
                observer.cached = True
        else:
            from repro.algebra.ranf import run_ranf, translation_verdict

            verdict = translation_verdict(plan.formula, plan.structure)
            if verdict.ok and verdict.branch != "collapsed":
                run = run_ranf(
                    plan.formula,
                    plan.structure,
                    database,
                    slack=plan.slack,
                    recorder=maintenance.subplan_recorder(
                        plan.structure, database, plan.params
                    ),
                    params=plan.params,
                )
                if isinstance(observer, AlgebraTrace):
                    observer.ranf_branch = run.branch
                    observer.inf_stats = run.inf_stats
                    observer.infinite = run.infinite
                if run.infinite:
                    # The runtime bound certificate failed: the natural
                    # result may be infinite; defer to the exact engine
                    # (correctness fallback, never a wrong answer).
                    from repro.eval.automata_engine import AutomataEngine

                    result = AutomataEngine(
                        plan.structure, database, slack=plan.slack, cache=cache
                    ).run(bind(plan.formula, plan.params))
                    cache.put(key, (result.variables, result.relation))
                    return result
                columns, rows = run.columns, run.rows
                if isinstance(observer, AlgebraTrace):
                    observer.stats = run.stats
            else:
                columns, rows, stats = run_algebra(
                    plan.formula,
                    plan.structure,
                    database,
                    slack=plan.slack,
                    recorder=maintenance.subplan_recorder(
                        plan.structure, database, plan.params
                    ),
                    params=plan.params,
                )
                if isinstance(observer, AlgebraTrace):
                    observer.stats = stats
        relation = RelationAutomaton.from_tuples(
            plan.structure.alphabet, len(columns), rows
        )
        result = QueryResult(columns, relation)
        cache.put(key, (result.variables, result.relation))
        return result

    def trace_observer(self):
        from repro.engine.explain import AlgebraTrace

        return AlgebraTrace()

    def trace_tree(self, plan, observer, seconds):
        from repro.engine.explain import (
            ExplainNode,
            op_stats_to_explain,
            plan_tree_to_explain,
        )

        stats = getattr(observer, "stats", None)
        branch = getattr(observer, "ranf_branch", None)
        inf_stats = getattr(observer, "inf_stats", None)
        if branch is not None and (stats is not None or inf_stats is not None):
            # A RANF pair ran: show both halves under one root, annotated
            # with the branch that fired and the infinity-check outcome.
            children = []
            if inf_stats is not None:
                inf_node = op_stats_to_explain(inf_stats)
                inf_node.annotations["half"] = "inf"
                children.append(inf_node)
            if stats is not None:
                fin_node = op_stats_to_explain(stats)
                fin_node.annotations["half"] = "fin"
                children.append(fin_node)
            notes: dict[str, object] = {"branch": branch}
            if getattr(observer, "infinite", False):
                notes["infinite"] = True
                notes["fallback"] = "automata"
            return ExplainNode(
                f"ranf[{branch}]", "RanfPair", seconds=seconds,
                annotations=notes, children=children,
            )
        if stats is not None:
            return op_stats_to_explain(stats)
        if getattr(observer, "cached", False):
            # Whole-result cache hit: no physical operators ran — show the
            # planner's static tree, marked cached.
            root = plan_tree_to_explain(plan.root)
            root.seconds = seconds
            root.cache_hit = True
            return root
        return None


class CodegenBackend(EngineBackend):
    """Compiled-plan pipelines (:mod:`repro.algebra.codegen`): the
    optimized algebra plan fused into one generated Python closure —
    inlined predicates, hash tables built outside the probe loop, set ops
    on projected streams — cached per canonical fingerprint + schema."""

    name = "codegen"
    priority = 5
    parameterized = True

    def eligible(self, formula, structure, database):
        from repro.algebra.codegen import shape_supported
        from repro.engine.planner import algebra_eligible

        # Codegen compiles only the finite half of a RANF pair, so it
        # keeps the anchored-output gate: the gamma-bounded branch (whose
        # pair carries a runtime infinity check) stays on the interpreted
        # algebra backend.
        ok, reason = restricted_output_gate(formula, database)
        if not ok:
            return ok, reason
        if not algebra_eligible(formula, structure):
            return False, (
                "not RANF-translatable: codegen compiles exactly the "
                "algebra engine's (widened) regime"
            )
        ok, why = shape_supported(formula, structure, database.schema)
        if not ok:
            return False, f"plan shape not fuseable: {why}"
        return True, "RANF-translatable query with a fuseable plan shape"

    def estimate_cost(self, formula, structure, database, slack, planner):
        from repro.algebra.codegen import has_pipeline
        from repro.engine.planner import CODEGEN_ROW_FACTOR, estimate_algebra_cost

        cost = estimate_algebra_cost(formula, structure, database, slack)
        if cost == float("inf"):
            return cost
        # Fusion removes per-tuple interpreter dispatch, so row work is
        # cheaper than the interpreted executor's; compilation itself is
        # charged only while no closure is cached — the LRU amortizes it
        # away for repeated and prepared queries.
        scaled = cost * CODEGEN_ROW_FACTOR
        if not has_pipeline(formula, structure, database.schema, slack):
            scaled += planner.codegen_setup
            from repro.algebra import ranf

            verdict = ranf.translation_verdict(formula, structure)
            if (
                verdict.ok
                and verdict.branch != "collapsed"
                and not ranf.has_translation(
                    formula, structure, database.schema, slack
                )
            ):
                scaled += planner.ranf_setup
        return scaled

    def prepare_forced(self, formula, structure, slack):
        from repro.algebra.compile import CompileError
        from repro.algebra.ranf import translation_verdict
        from repro.eval.collapse import collapse

        collapsed = collapse(formula, structure, slack=1 if slack is None else slack)
        verdict = translation_verdict(collapsed.formula, structure)
        if not verdict.ok:
            raise CompileError(
                "codegen engine cannot evaluate this query even after "
                f"collapsing: RANF translation bailed: {verdict.reason}"
            )
        return (
            collapsed.formula,
            collapsed.slack,
            "engine forced by caller (formula collapsed)",
        )

    def chosen_reason(self, costs, planner):
        return (
            "fused compiled pipeline estimated cheapest "
            f"(≈{_fmt_cost(costs[self.name])} row ops after fusion vs "
            f"≈{_fmt_cost(costs.get('algebra', float('inf')))} interpreted)"
        )

    def execute(self, plan, database, cache, observer=None):
        from repro.algebra.codegen import get_pipeline
        from repro.algebra.exec import run_algebra
        from repro.automatic.relation import RelationAutomaton
        from repro.delta.maintenance import promote_result
        from repro.engine.explain import CodegenTrace
        from repro.engine.metrics import METRICS
        from repro.eval.result import QueryResult

        key = formula_key(
            plan.fingerprint,
            plan.structure.name,
            plan.structure.alphabet.symbols,
            plan.slack,
            database_fingerprint(database),
            stage="codegen-result",
        )
        cached = cache.get(key)
        if cached is None:
            # Delta-store versions whose walked deltas touch none of the
            # query's relations re-key the old result forward; anything
            # else falls through to a full compiled run — closures are
            # schema-keyed, so row-only deltas reuse the compiled code
            # and only pay the data pass (never a stale answer).
            cached = promote_result(cache, key, plan.formula)
        if cached is not None:
            if isinstance(observer, CodegenTrace):
                observer.cached = True
            return QueryResult(*cached)
        pipeline, detail = get_pipeline(
            plan.formula, plan.structure, database.schema, plan.slack
        )
        if pipeline is None:
            # Structured fallback: unsupported plan shapes run on the
            # interpreted algebra executor instead of failing.
            METRICS.inc("codegen.fallbacks")
            columns, rows, stats = run_algebra(
                plan.formula, plan.structure, database, slack=plan.slack,
                params=plan.params,
            )
            if isinstance(observer, CodegenTrace):
                observer.stats = stats
                observer.fallback = detail
        else:
            METRICS.inc("codegen.runs")
            rows, stage_rows = pipeline.run(database, plan.params)
            columns = pipeline.columns
            if isinstance(observer, CodegenTrace):
                observer.pipeline = pipeline
                observer.stage_rows = stage_rows
                observer.closure_hit = detail == "hit"
        relation = RelationAutomaton.from_tuples(
            plan.structure.alphabet, len(columns), rows
        )
        result = QueryResult(columns, relation)
        cache.put(key, (result.variables, result.relation))
        return result

    def trace_observer(self):
        from repro.engine.explain import CodegenTrace

        return CodegenTrace()

    def trace_tree(self, plan, observer, seconds):
        from repro.engine.explain import (
            ExplainNode,
            op_stats_to_explain,
            plan_tree_to_explain,
        )

        if getattr(observer, "cached", False):
            root = plan_tree_to_explain(plan.root)
            root.seconds = seconds
            root.cache_hit = True
            return root
        stats = getattr(observer, "stats", None)
        if stats is not None:
            root = op_stats_to_explain(stats)
            root.annotations["codegen_fallback"] = getattr(
                observer, "fallback", "unknown"
            )
            return root
        pipeline = getattr(observer, "pipeline", None)
        if pipeline is None:
            return None
        stage_rows = getattr(observer, "stage_rows", None) or []
        children = []
        for i, stage in enumerate(pipeline.stages):
            notes = {"rows": stage_rows[i] if i < len(stage_rows) else "?"}
            if stage["numpy"]:
                notes["numpy"] = True
            children.append(
                ExplainNode(stage["label"], stage["kind"], annotations=notes)
            )
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
register_backend(CodegenBackend())
register_backend(AutomataBackend())
