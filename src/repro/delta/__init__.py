"""Mutable databases: the MVCC delta store and incremental maintenance.

The engines' caches key off immutable content-fingerprinted snapshots;
this package makes those snapshots *evolve* without going cold.
:mod:`repro.delta.store` turns a database into a chain of immutable
versions under an ``insert``/``delete`` API (in-flight queries pin
their snapshot, new requests see the head).  A
:class:`~repro.delta.store.DatabaseVersion` is the one record of an
applied delta, and each snapshot the store makes reaches its own
history through that store (:func:`~repro.delta.store.lineage`) — there
is no process-wide registry.  :mod:`repro.delta.maintenance` walks that
history so every cache layer answers for a new version from work done
on an ancestor — cache promotion for untouched formulas and automata,
classic ΔQ view-maintenance for algebra plans.

See ``docs/mutability.md`` for the full model.
"""

from repro.delta.maintenance import (
    maintain_algebra_result,
    promote_result,
    subplan_recorder,
)
from repro.delta.store import (
    MAX_CHAIN,
    DatabaseVersion,
    Delta,
    DeltaError,
    VersionedDatabase,
    chained_fingerprint,
    evolve_database,
    lineage,
    store_of,
)

__all__ = [
    "MAX_CHAIN",
    "DatabaseVersion",
    "Delta",
    "DeltaError",
    "VersionedDatabase",
    "chained_fingerprint",
    "evolve_database",
    "lineage",
    "maintain_algebra_result",
    "promote_result",
    "store_of",
    "subplan_recorder",
]
