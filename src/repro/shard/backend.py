"""The ``sharded`` engine backend and the coordinator router.

The planner sees sharding as just a fourth :class:`EngineBackend` in its
cost argmin.  What makes that possible is the **router**: a process-wide
map from database *content fingerprints* to the coordinator holding that
database's partitions.  :meth:`ShardCoordinator.register_database` adds
a route; from then on any plain :class:`~repro.database.instance.Database`
with equal content — the object the planner is handed, which knows
nothing about shards — resolves to its coordinator, and the backend
becomes eligible whenever :mod:`repro.algebra.distribute` certifies the
query distributes.

The backend registers itself with the engine registry when the first
route appears and withdraws when the last coordinator closes, so
sessions that never shard keep the exact three-backend registry the
rest of the test suite assumes.

Cost model: a scatter's work is the *slowest shard's* work (shards run
in parallel processes) plus a per-participant round-trip overhead; a
route pays one shard plus one round trip.  Because the direct-cost
estimate is superlinear in database size (output domains × per-tuple
quantifier domains, both of which grow with the partition), the max
over 1/n-size partitions undercuts the single-process estimate on
exactly the workloads where fanning out wins, and the overhead term
keeps tiny queries on the in-process engines.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.algebra.distribute import Decomposition, analyze
from repro.database.instance import Database
from repro.engine.backend import (
    EngineBackend,
    register_backend,
    restricted_output_gate,
    unregister_backend,
)
from repro.engine.cache import database_fingerprint, formula_key
from repro.engine.metrics import METRICS
from repro.engine.planner import estimate_direct_cost, _fmt_cost
from repro.errors import ShardError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.shard.coordinator import GatherResult, ShardCoordinator
    from repro.shard.partition import ShardedDatabase

__all__ = [
    "ShardTrace",
    "ShardedBackend",
    "route_for",
    "router_register",
    "router_unregister",
]

#: Estimated per-participating-shard round-trip cost, in the planner's
#: common units (direct-engine candidate checks).  One NDJSON round trip
#: plus result (de)serialization is real work; charging it keeps
#: millisecond-scale queries on the in-process backends.
SHARD_ROUNDTRIP_COST = 50_000.0

#: Slack the eligibility gate analyzes at.  ``eligible()`` has no slack
#: argument, so it uses the planner's auto-selection default
#: (``Planner._auto`` substitutes 0 when the caller passes none) — the
#: slack an auto-selected plan will actually carry.  ``estimate_cost``
#: and ``ShardCoordinator.execute`` analyze at the real plan slack.
_DEFAULT_PLAN_SLACK = 0

_ROUTER: dict[str, tuple["ShardCoordinator", "ShardedDatabase"]] = {}
_ROUTER_LOCK = threading.Lock()


def router_register(
    fingerprint: str, coordinator: "ShardCoordinator", sharded: "ShardedDatabase"
) -> None:
    """Make ``fingerprint`` resolve to ``coordinator`` (first route also
    registers the ``sharded`` backend with the engine registry)."""
    with _ROUTER_LOCK:
        was_empty = not _ROUTER
        _ROUTER[fingerprint] = (coordinator, sharded)
    if was_empty:
        register_backend(ShardedBackend(), replace=True)


def router_unregister(fingerprint: str) -> None:
    """Withdraw a route (last route out also unregisters the backend)."""
    with _ROUTER_LOCK:
        _ROUTER.pop(fingerprint, None)
        empty = not _ROUTER
    if empty:
        unregister_backend("sharded")


def route_for(
    database: Database,
) -> Optional[tuple["ShardCoordinator", "ShardedDatabase"]]:
    """The (coordinator, sharded database) owning ``database``'s content,
    or ``None`` when no live coordinator holds an equal database."""
    fingerprint = database_fingerprint(database)
    with _ROUTER_LOCK:
        return _ROUTER.get(fingerprint)


class ShardTrace:
    """EXPLAIN observer for sharded runs: captures the gather result."""

    def __init__(self) -> None:
        self.gather: Optional["GatherResult"] = None
        self.cached = False


class ShardedBackend(EngineBackend):
    """Scatter-gather execution over a :class:`ShardCoordinator`'s pool.

    Eligible only when (a) the database routes to a live coordinator,
    (b) the restricted-output gate passes (the shards evaluate with
    restricted semantics), and (c) the distributivity analysis finds a
    scatter certificate or a single-shard route — so auto-selection can
    never produce a wrong merged answer; non-distributing plans simply
    keep running in-process.
    """

    name = "sharded"
    priority = 30

    # ------------------------------------------------------------- planning

    def eligible(self, formula, structure, database):
        route = route_for(database)
        if route is None:
            return False, (
                "database is not registered with a shard coordinator"
            )
        ok, reason = restricted_output_gate(formula, database)
        if not ok:
            return ok, reason
        decomposition = self._decompose(
            formula, structure, route, _DEFAULT_PLAN_SLACK
        )
        if not decomposition.distributes:
            return False, f"plan does not distribute: {decomposition.reason}"
        return True, decomposition.reason

    def estimate_cost(self, formula, structure, database, slack, planner):
        route = route_for(database)
        if route is None:
            return float("inf")
        _, sharded = route
        decomposition = self._decompose(formula, structure, route, slack)
        if decomposition.mode == "scatter":
            # Parallel processes: wall-clock ≈ the slowest shard.
            per_part = max(
                self._part_cost(formula, structure, part, slack)
                for part in sharded.parts
            )
            return per_part + SHARD_ROUNDTRIP_COST * sharded.shards
        if decomposition.mode == "route":
            part = sharded.parts[decomposition.shard or 0]
            return (
                self._part_cost(formula, structure, part, slack)
                + SHARD_ROUNDTRIP_COST
            )
        return float("inf")

    @staticmethod
    def _part_cost(formula, structure, part, slack) -> float:
        """One shard's estimated work: the worker plans for itself, so
        take the cheapest in-process backend on the partition (with the
        same ceiling/bias scaling the worker's own planner applies)."""
        from repro.engine.planner import (
            DIRECT_BIAS,
            DIRECT_COST_CEILING,
            estimate_automata_cost,
        )

        direct = estimate_direct_cost(formula, structure, part, slack)
        if direct > DIRECT_COST_CEILING:
            direct = float("inf")
        automata = estimate_automata_cost(formula, structure, part) * DIRECT_BIAS
        return min(direct, automata)

    def prepare_forced(self, formula, structure, slack):
        # Shards evaluate with restricted semantics, so forcing mirrors a
        # forced direct engine: collapse NATURAL quantifiers first.
        from repro.eval.collapse import collapse

        collapsed = collapse(formula, structure, slack=1 if slack is None else slack)
        return (
            collapsed.formula,
            collapsed.slack,
            "engine forced by caller (formula collapsed)",
        )

    def chosen_reason(self, costs, planner):
        return (
            "plan distributes over shards: slowest-partition work "
            f"(≈{_fmt_cost(costs[self.name])} incl. fan-out overhead) "
            f"beats single-process enumeration "
            f"(≈{_fmt_cost(costs.get('direct', float('inf')))})"
        )

    @staticmethod
    def _decompose(formula, structure, route, slack) -> Decomposition:
        coordinator, sharded = route
        return analyze(
            formula,
            structure,
            sharded.database,
            slack=slack,
            relation_shards=(
                sharded.relation_shards
                if coordinator.scheme == "relation"
                else None
            ),
        )

    # ------------------------------------------------------------ execution

    def execute(self, plan, database, cache, observer=None):
        from repro.automatic.relation import RelationAutomaton
        from repro.eval.result import QueryResult

        route = route_for(database)
        if route is None:
            raise ShardError(
                "sharded plan but the database no longer routes to a "
                "coordinator (was it closed between planning and "
                "execution?)",
                retryable=False,
            )
        coordinator, sharded = route
        key = formula_key(
            plan.formula,
            plan.structure.name,
            plan.structure.alphabet.symbols,
            plan.slack,
            database_fingerprint(database),
            stage="sharded-result",
        )
        cached = cache.get(key)
        if cached is None:
            # Delta-forwarded versions: results cached on an ancestor
            # version stay exact while no forwarded delta touched the
            # query's relations (restricted quantifiers also need a
            # stable adom) — skip the whole scatter/gather round.
            from repro.delta.maintenance import promote_result

            cached = promote_result(cache, key, plan.formula)
        if cached is not None:
            if isinstance(observer, ShardTrace):
                observer.cached = True
            return QueryResult(*cached)
        gather = coordinator.execute(sharded, plan)
        if isinstance(observer, ShardTrace):
            observer.gather = gather
        relation = RelationAutomaton.from_tuples(
            plan.structure.alphabet, len(gather.columns), sorted(gather.rows)
        )
        result = QueryResult(gather.columns, relation)
        cache.put(key, (result.variables, result.relation))
        return result

    # -------------------------------------------------------------- explain

    def trace_observer(self):
        return ShardTrace()

    def trace_tree(self, plan, observer, seconds):
        from repro.engine.explain import ExplainNode, plan_tree_to_explain

        gather = getattr(observer, "gather", None)
        if gather is None:
            if getattr(observer, "cached", False):
                root = plan_tree_to_explain(plan.root)
                root.seconds = seconds
                root.cache_hit = True
                return root
            return None
        decomposition = gather.decomposition
        root = ExplainNode(
            f"gather[{decomposition.merge}]",
            "shard-gather",
            seconds=seconds,
            annotations={
                "mode": decomposition.mode,
                **(
                    {"certificate": decomposition.certificate}
                    if decomposition.certificate
                    else {}
                ),
                "shards": len(gather.shard_reports),
                "rows": len(gather.rows),
            },
        )
        for report in gather.shard_reports:
            notes: dict[str, object] = {"rows": report["rows"]}
            if report.get("engine"):
                notes["engine"] = report["engine"]
            if report.get("retried"):
                notes["retried"] = True
            root.children.append(
                ExplainNode(
                    f"shard[{report['shard']}]",
                    "shard-run",
                    seconds=(
                        report["exec_ms"] / 1000.0
                        if report.get("exec_ms") is not None
                        else None
                    ),
                    annotations=notes,
                )
            )
        return root
