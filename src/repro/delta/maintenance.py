"""Cache promotion across database versions.

The delta store (:mod:`repro.delta.store`) records every applied delta
in the :class:`~repro.delta.store.DatabaseVersion` it makes, and links
each snapshot to its store; :func:`~repro.delta.store.lineage` walks
from a snapshot to its retained ancestors.  This module is the
*consumer* side: given a cache miss on a store-made snapshot, it tries
to answer from work done on an ancestor version instead of recomputing
from scratch.

**Result promotion** (:func:`promote_result`) — for the ``automata``
subformula cache and the whole-result cache of
:func:`repro.engine.explain.execute_plan` (the ``result:<engine>``
stages of the direct, algebra and sharded backends, whose entries are
rows).  A (sub)formula's value is a function of the relations it
mentions plus — when it has restricted (ADOM/PREFIX/LENGTH) quantifiers
— the active domain.  If the deltas from an ancestor to the queried
version touch **neither**, the ancestor's cached entry is copied to the
child key verbatim.  In particular a delta that only touches relation
``S`` leaves every automaton for subformulas over ``R`` valid, and
database-*independent* subformula automata (keyed without a
fingerprint) were never invalidated in the first place — the automata
layer survives deltas; only the product with the changed relations is
redone.  Anything promotion cannot answer is computed from scratch on
the queried version.

Walks stop after :data:`~repro.delta.store.MAX_CHAIN` deltas, at the
base version, or at the first ancestor the store has pruned — each a
conservative miss (a full run), never a wrong answer.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.database.instance import Database
from repro.delta.store import MAX_CHAIN, lineage
from repro.engine.cache import BoundedCache
from repro.engine.metrics import METRICS
from repro.logic.formulas import Formula, QuantKind

__all__ = ["promote_result"]


# -------------------------------------------------------- result promotion


def promote_result(
    cache: BoundedCache,
    key: tuple,
    formula: Formula,
    database: Database,
    metric: str = "delta.result_promotions",
) -> Optional[Any]:
    """Copy an ancestor version's cached entry to ``key`` when still valid.

    ``key`` is a :func:`repro.engine.cache.formula_key` tuple whose
    ``key[4]`` is ``database``'s fingerprint.  Walking ``database``'s
    versions toward the root, the ancestor entry is reusable as long as
    no walked delta touches a relation ``formula`` mentions and — when
    the formula has restricted quantifiers, whose domains derive from
    ``adom(D)`` — no walked delta changed the active domain.  Returns
    the promoted value (also stored under ``key``) or ``None``.
    """
    if key[4] is None:
        return None
    versions = lineage(database)
    child = next(versions, None)
    if child is None:
        return None
    relations = formula.relation_names()
    adom_sensitive = any(
        kind is not QuantKind.NATURAL for kind in formula.quantifier_kinds()
    )
    for _ in range(MAX_CHAIN):
        if child.delta is None:
            return None
        if adom_sensitive and child.adom_changed:
            return None
        if child.delta.touched & relations:
            return None
        child = next(versions, None)
        if child is None:
            return None
        value = cache.peek(key[:4] + (child.fingerprint,) + key[5:])
        if value is not None:
            cache.put(key, value)
            METRICS.inc(metric)
            return value
    return None
