"""The ``sharded`` engine backend.

The planner sees sharding as just a fourth :class:`EngineBackend` in its
cost argmin, registered once beside the three built-ins.  What ties a
database to its partitions is the **placement** the coordinator sets on
the :class:`~repro.delta.VersionedDatabase` that made the snapshot:
:meth:`ShardCoordinator.register_database` places a snapshot and
:meth:`~ShardCoordinator.apply_delta` moves the placement to the
evolved one.  A snapshot routes only while it *is* the placement's
database and the coordinator still serves that placement, so a
superseded version, a separately built database with equal content and
a database nobody placed all stay on the in-process engines.

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

from typing import TYPE_CHECKING, Optional

from repro.database.instance import Database
from repro.engine.backend import (
    EngineBackend,
    register_backend,
    restricted_output_gate,
)
from repro.engine.planner import estimate_direct_cost, _fmt_cost
from repro.errors import ShardError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.algebra.distribute import Decomposition
    from repro.shard.coordinator import GatherResult, ShardCoordinator
    from repro.shard.partition import ShardedDatabase

__all__ = ["ShardTrace", "ShardedBackend", "route_for"]

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

_UNPLACED = "database is not placed on a shard coordinator"


def route_for(
    database: Database,
) -> Optional[tuple["ShardCoordinator", "ShardedDatabase"]]:
    """The (coordinator, sharded database) ``database`` is placed on, or
    ``None`` when no live coordinator serves this very snapshot."""
    from repro.delta import store_of

    store = store_of(database)
    placement = None if store is None else store.placement
    if placement is None:
        return None
    coordinator, sharded = placement
    if (
        sharded.database is not database
        or coordinator.get(sharded.name) is not sharded
    ):
        return None
    return placement


class ShardTrace:
    """EXPLAIN observer for sharded runs: captures the gather result."""

    def __init__(self) -> None:
        self.gather: Optional["GatherResult"] = None


class ShardedBackend(EngineBackend):
    """Scatter-gather execution over a :class:`ShardCoordinator`'s pool.

    Eligible only when (a) the database is placed on a live coordinator,
    (b) the restricted-output gate passes (the shards evaluate with
    restricted semantics), and (c) the distributivity analysis finds a
    scatter certificate or a single-shard route — so auto-selection can
    never produce a wrong merged answer; non-distributing plans simply
    keep running in-process.
    """

    name = "sharded"
    priority = 30
    caches_results = True

    # ------------------------------------------------------------- planning

    def eligible(self, formula, structure, database):
        route = route_for(database)
        if route is None:
            return False, _UNPLACED
        ok, reason = restricted_output_gate(formula, database)
        if not ok:
            return ok, reason
        decomposition = self._decompose(
            formula, structure, route, _DEFAULT_PLAN_SLACK
        )
        if not decomposition.distributes:
            return False, f"plan does not distribute: {decomposition.reason}"
        return True, decomposition.reason

    def plan_inputs(self, database):
        # Eligibility and the estimate read the layout (under the
        # relation scheme, which shard owns each relation) and the
        # partitions' sizes.
        route = route_for(database)
        if route is None:
            return None, ()
        _, sharded = route
        layout = (
            sharded.scheme,
            sharded.shards,
            tuple(sorted((sharded.relation_shards or {}).items())),
        )
        return layout, tuple(sharded.part_sizes())

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
    def _decompose(formula, structure, route, slack) -> "Decomposition":
        from repro.algebra.distribute import analyze

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
        from repro.eval.result import QueryResult

        route = route_for(database)
        if route is None:
            raise ShardError(
                f"sharded plan but the {_UNPLACED} (never placed, "
                "superseded by a newer version, or its coordinator closed)",
                retryable=False,
            )
        coordinator, sharded = route
        gather = coordinator.execute(sharded, plan)
        if isinstance(observer, ShardTrace):
            observer.gather = gather
        return QueryResult(gather.columns, gather.rows)

    # -------------------------------------------------------------- explain

    def trace_observer(self):
        return ShardTrace()

    def trace_tree(self, plan, observer, seconds):
        from repro.engine.explain import ExplainNode

        gather = getattr(observer, "gather", None)
        if gather is None:
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


register_backend(ShardedBackend())
