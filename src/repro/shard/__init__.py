"""Multi-process sharded scatter-gather execution.

The package turns the single-process query stack into a coordinator
plus a pool of shard worker *processes* — each worker is effectively
``python -m repro serve --stdio`` owning one horizontal partition of
every registered database and its own automaton/plan caches, so the
GIL stops being the ceiling on selection-heavy workloads.  The
coordinator↔shard wire format is the existing NDJSON protocol
(:mod:`repro.service.protocol`) verbatim: a local pool and a remote
deployment are one code path.

Layers (see ``docs/sharding.md``):

* :mod:`repro.shard.partition` — hash-by-tuple and by-relation
  partitioners, fingerprinted per shard;
* :mod:`repro.shard.pool` — the worker subprocesses and the pipelined
  NDJSON request/response plumbing (per-request ids, per-shard
  deadlines, dead-worker detection);
* :mod:`repro.shard.coordinator` — plan decomposition (via
  :mod:`repro.algebra.distribute`), scatter-gather with straggler
  retry, and the union/dedup merge;
* :mod:`repro.shard.backend` — the ``sharded``
  :class:`~repro.engine.backend.EngineBackend` entering the planner's
  cost argmin, eligible for a snapshot the coordinator placed (the
  placement lives on the :class:`~repro.delta.VersionedDatabase` that
  made the snapshot).

``import repro`` registers the backend; every other module here loads on
first use of its export, so a process that never shards never starts the
pool machinery.
"""

_LAZY = {
    "ShardTrace": "repro.shard.backend",
    "ShardedBackend": "repro.shard.backend",
    "route_for": "repro.shard.backend",
    "GatherResult": "repro.shard.coordinator",
    "ShardCoordinator": "repro.shard.coordinator",
    "SCHEMES": "repro.shard.partition",
    "ShardedDatabase": "repro.shard.partition",
    "partition_database": "repro.shard.partition",
    "relation_assignment": "repro.shard.partition",
    "shard_database": "repro.shard.partition",
    "shard_of_relation": "repro.shard.partition",
    "shard_of_row": "repro.shard.partition",
    "ShardWorker": "repro.shard.pool",
    "WorkerPool": "repro.shard.pool",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
