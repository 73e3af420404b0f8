"""Planning, caching, and observability for the evaluation engines.

This package is the layer between :class:`repro.core.query.Query` and the
evaluators in :mod:`repro.eval` / :mod:`repro.algebra.exec`.  It contains:

* :mod:`repro.engine.backend` — the :class:`~repro.engine.backend.
  EngineBackend` interface and the process-wide **backend registry**: the
  direct, automata, and algebra engines are registered backends, and
  every layer (planner, EXPLAIN, ``Query``, the service, the CLI)
  resolves engine names through :func:`~repro.engine.backend.
  resolve_engine` — adding an engine is one ``register_backend`` call;
* :mod:`repro.engine.planner` — the cost-based planner that iterates the
  registry (eligibility gate, then cost argmin) per query
  (``Query.run(db)`` with no ``engine=`` argument goes through it),
  canonicalizing each formula first (:mod:`repro.logic.canonical`);
* :mod:`repro.engine.cache` — the LRU automaton cache that memoizes
  subformula compilations across runs and interns database-independent
  presentation automata across databases;
* :mod:`repro.engine.metrics` — the process-wide counters registry
  (automata products/complements/projections, cache hits, engine wall
  time, planner decisions);
* :mod:`repro.engine.deadline` — cooperative per-request deadlines
  (``Query.run(db, timeout=...)`` and the query service's per-request
  budgets); the automata hot loops and both engines call its
  :func:`~repro.engine.deadline.checkpoint`;
* :mod:`repro.engine.explain` — EXPLAIN plan trees with per-node timings
  and automaton sizes, surfaced as ``Query.explain(db)`` and the
  ``python -m repro explain`` CLI subcommand.

Usage examples
--------------

Automatic engine selection (the planner chooses; ``plan`` shows why)::

    from repro import Query, StringDatabase

    db = StringDatabase("01", {"R": {"0110", "001"}})
    q = Query("R(x) & exists adom y: y <<= x")
    q.run(db).rows()            # planner picked an engine automatically
    print(q.plan(db).render())  # engine choice + cost estimates + tree

EXPLAIN with metrics and cache counters::

    e = q.explain(db)
    print(e.render())           # annotated tree, timings, cache stats
    e.to_dict()                 # the same as JSON-serializable data
    e.counters                  # metrics delta for just this run

Inspecting and tuning the cache and the counters::

    from repro.engine import global_cache, METRICS

    global_cache().stats()      # {"hits": ..., "misses": ..., ...}
    global_cache().resize(1024) # grow the LRU capacity
    METRICS.snapshot()          # all counters, e.g. for a JSON dump
    METRICS.reset()             # start a fresh measurement window

Import structure: :mod:`~repro.engine.metrics` and
:mod:`~repro.engine.cache` are dependency-free and imported eagerly (the
low-level automata modules report into them); the planner and explain
modules depend on :mod:`repro.eval` and are loaded lazily via
``__getattr__`` to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.engine.cache import (
    AutomatonCache,
    database_fingerprint,
    formula_key,
    global_cache,
)
from repro.engine.deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
)
from repro.engine.metrics import METRICS, MetricsRegistry

__all__ = [
    "METRICS",
    "AlgebraTrace",
    "AutomatonCache",
    "Deadline",
    "EngineBackend",
    "Explain",
    "ExplainNode",
    "MetricsRegistry",
    "Plan",
    "PlanNode",
    "Planner",
    "all_backends",
    "backend_names",
    "checkpoint",
    "current_deadline",
    "database_fingerprint",
    "deadline_scope",
    "execute_plan",
    "explain_query",
    "formula_key",
    "get_backend",
    "global_cache",
    "plan_query",
    "register_backend",
    "resolve_engine",
    "unregister_backend",
]

_LAZY = {
    "Plan": "repro.engine.planner",
    "PlanNode": "repro.engine.planner",
    "Planner": "repro.engine.planner",
    "plan_query": "repro.engine.planner",
    "AlgebraTrace": "repro.engine.explain",
    "Explain": "repro.engine.explain",
    "ExplainNode": "repro.engine.explain",
    "execute_plan": "repro.engine.explain",
    "explain_query": "repro.engine.explain",
    "EngineBackend": "repro.engine.backend",
    "all_backends": "repro.engine.backend",
    "backend_names": "repro.engine.backend",
    "get_backend": "repro.engine.backend",
    "register_backend": "repro.engine.backend",
    "resolve_engine": "repro.engine.backend",
    "unregister_backend": "repro.engine.backend",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
