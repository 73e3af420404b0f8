"""Mutable databases: the MVCC delta store and cache promotion.

The engines' caches key off immutable content-fingerprinted snapshots;
this package makes those snapshots *evolve* without going cold.
:mod:`repro.delta.store` turns a database into a chain of immutable
versions under an ``insert``/``delete`` API (in-flight queries pin
their snapshot, new requests see the head).  A
:class:`~repro.delta.store.DatabaseVersion` is the one record of an
applied delta, and each snapshot the store makes reaches its own
history through that store (:func:`~repro.delta.store.lineage`) — there
is no process-wide registry.  :mod:`repro.delta.maintenance` walks that
history so the whole-result and automata caches answer for a new
version from an ancestor's entries when the deltas since touched
nothing the formula reads.

See ``docs/mutability.md`` for the full model.
"""

from repro.delta.maintenance import promote_result
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
    "promote_result",
    "store_of",
]
