"""One plan cache for the library and the service.

The paper's engines give the same answer on every database; only the
planner's *choice* among them depends on the data, through eligibility
gates and cost estimates (:mod:`repro.engine.planner`).  A plan made for
a query template therefore stays good for as long as what planning read
of the database stays put, and :class:`PlanCache` reuses it until then.
``Query.result``, ``Query.plan``, :func:`~repro.engine.explain.
explain_query` and the query service all plan through the one process-wide
instance, :func:`plan_cache`; :meth:`Planner.plan
<repro.engine.planner.Planner.plan>` stays the uncached planner.

* **Key** — the template's canonical fingerprint (:class:`PlanningForm`),
  the structure name and alphabet, the forced engine and the slack.
  Registering or unregistering a backend empties the cache.
* **Entry** — the template plan and what its eligibility and costing
  read of the database it was planned on.  *Exact inputs*: the alphabet
  (the planner refuses one other than the structure's), the schema,
  whether the active domain is empty, the longest string (LENGTH domains
  are ``|Sigma|^len``), the exact part of each backend's
  :meth:`~repro.engine.backend.EngineBackend.plan_inputs` (the shard
  layout) and the warmth probes the estimates found cold
  (``Plan.cold_probes``).  *Sizes*: active-domain size, prefix-closure
  size, total string length, the cardinality of each relation the
  template names, and the sizes from ``plan_inputs`` (the partitions').
* **Lookup** — the plan is reused while every exact input is equal and
  every size ``s`` is within a factor :data:`PLAN_DRIFT` of its recorded
  value ``r``: ``max(s, r, 1) / max(min(s, r), 1) <= PLAN_DRIFT``.
  Otherwise the template is replanned, the entry replaced, and
  ``planner.replans.<reason>`` counted: ``miss`` (no entry),
  ``eligibility`` (an exact input changed), ``drift`` (a size left the
  window) or ``warm`` (a cache an estimate priced cold is warm now).  An
  entry remembers the last snapshot it validated, so a repeat on an
  unchanged database costs one identity compare, the backends' plan
  inputs and the cold probes.  A
  hit on a snapshot other than the one the plan was made on counts
  ``delta.replans_avoided``.

Reusing a plan never changes an answer: every backend reads the
database when it executes (the algebra plan reads its relations and
active domain when it runs, the automata and direct engines take the
database in ``execute``, and the sharded backend resolves its placement
then), so a plan only fixes which engine runs.  A cache an
estimate found warm and that is evicted later is rebuilt by the run.

Usage::

    from repro.engine.plan_cache import PlanningForm, plan_cache

    form = PlanningForm.of(formula)
    plan = plan_cache().plan(form, structure, database)   # values bound
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from repro.database.instance import Database
from repro.engine.backend import EngineBackend, all_backends, resolve_engine
from repro.engine.cache import BoundedCache, registered
from repro.engine.metrics import METRICS
from repro.engine.planner import (
    Plan,
    Planner,
    planning_form,
    planning_statistics,
    with_values,
)
from repro.logic.canonical import canonical_fingerprint
from repro.logic.formulas import Formula
from repro.structures.base import StringStructure

__all__ = ["PLAN_DRIFT", "Lookup", "PlanCache", "PlanningForm", "plan_cache",
           "with_origin"]

#: How far (as a factor) a size may move from the value a plan was costed
#: on before the plan is replanned.
PLAN_DRIFT = 2.0


@dataclass(frozen=True)
class PlanningForm:
    """The template :meth:`Planner.plan <repro.engine.planner.Planner.
    plan>` decides on (:func:`~repro.engine.planner.planning_form`), the
    values of its slots, its canonical fingerprint and the relations it
    names — computed once per query, since a cache hit is cheaper."""

    formula: Formula
    values: tuple[str, ...]
    fingerprint: str
    relations: tuple[str, ...]

    @classmethod
    def of(cls, formula: Formula) -> "PlanningForm":
        template, values = planning_form(formula)
        return cls(
            template,
            values,
            canonical_fingerprint(template),
            tuple(sorted(template.relation_names())),
        )


class Lookup(NamedTuple):
    """One plan-cache lookup: the template ``plan`` (its slots unbound),
    why it was replanned (``None`` when reused) and whether it was reused
    on a snapshot other than the one it was planned on."""

    plan: Plan
    replanned: Optional[str]
    moved: bool = False


def _exact(database: Database) -> tuple:
    return (
        database.alphabet, database.schema, not database.adom,
        database.max_string_length,
    )


def _sizes(database: Database, relations: tuple[str, ...]) -> tuple[int, ...]:
    schema = database.schema
    return (
        len(database.adom),
        database.adom_prefix_closure_size(),
        database.total_string_length(),
        *(len(database.relation(n)) if n in schema else 0 for n in relations),
    )


def drifted(recorded: tuple[int, ...], current: tuple[int, ...]) -> bool:
    """True when some size left the :data:`PLAN_DRIFT` window."""
    return any(
        max(s, r, 1) / max(min(s, r), 1) > PLAN_DRIFT
        for r, s in zip(recorded, current)
    )


class _Entry:
    """A template plan with what planning read of ``database``."""

    __slots__ = (
        "plan", "exact", "backends", "inputs", "sizes", "planned_on", "seen",
    )

    def __init__(self, plan: Plan, database: Database, relations: tuple[str, ...]):
        self.plan = plan
        self.exact = _exact(database)
        #: The backends with plan inputs: a snapshot's can change while
        #: the snapshot does not (a coordinator places it), so every
        #: lookup compares them.
        self.backends = tuple(
            b for b in all_backends()
            if type(b).plan_inputs is not EngineBackend.plan_inputs
        )
        self.inputs, sizes = self._inputs(database)
        self.sizes = _sizes(database, relations) + sizes
        self.planned_on = weakref.ref(database)
        #: The last snapshot this entry validated against.  Only ever
        #: moved to a snapshot that passed against the (fixed) recorded
        #: inputs, so a racing reader sees a stale hint, never a wrong one.
        self.seen = self.planned_on

    def _inputs(self, database: Database) -> tuple[list, tuple[int, ...]]:
        """The backends' exact plan inputs, and their sizes joined."""
        exact, sizes = [], ()
        for backend in self.backends:
            inputs, more = backend.plan_inputs(database)
            exact.append(inputs)
            sizes += more
        return exact, sizes

    def stale(self, database: Database, relations: tuple[str, ...]) -> Optional[str]:
        """Why this plan no longer fits ``database``, or ``None``."""
        inputs, sizes = self._inputs(database)
        if inputs != self.inputs:
            return "eligibility"
        if self.seen() is not database:
            if self.exact != _exact(database):
                return "eligibility"
            if drifted(self.sizes, _sizes(database, relations) + sizes):
                return "drift"
            self.seen = weakref.ref(database)
        if any(probe() for probe in self.plan.cold_probes):
            return "warm"
        return None


class PlanCache:
    """Template plans, reused until what they were costed on drifts (see
    the module docstring); entries live in one LRU :class:`~repro.engine.
    cache.BoundedCache`."""

    def __init__(self, entries: BoundedCache):
        self._entries = entries

    @staticmethod
    def _key(form, structure, slack, force) -> tuple:
        return (
            form.fingerprint, structure.name, structure.alphabet.symbols,
            force, slack,
        )

    def lookup(
        self,
        form: PlanningForm,
        structure: StringStructure,
        database: Database,
        slack: Optional[int] = None,
        force: Optional[str] = None,
        builder: Optional[Callable[[], Plan]] = None,
    ) -> Lookup:
        """The template plan for ``form`` on ``database``, reused or made.

        ``builder()`` makes the plan on a replan (default:
        ``Planner(structure, database).plan(form.formula, slack, force)``);
        it must return the template's plan, slots unbound.  Concurrent
        replans of one key may both plan; the last one stays.
        """
        force = resolve_engine(force)
        key = self._key(form, structure, slack, force)
        entry = self._entries.get(key)
        reason = "miss" if entry is None else entry.stale(database, form.relations)
        if reason is None:
            moved = entry.planned_on() is not database
            if moved:
                METRICS.inc("delta.replans_avoided")
            return Lookup(entry.plan, None, moved)
        METRICS.inc(f"planner.replans.{reason}")
        if builder is None:
            plan = Planner(structure, database).plan(
                form.formula, slack=slack, force=force
            )
        else:
            plan = builder()
        self._entries.put(key, _Entry(plan, database, form.relations))
        return Lookup(plan, reason)

    def peek(
        self,
        form: PlanningForm,
        structure: StringStructure,
        database: Database,
        slack: Optional[int] = None,
        force: Optional[str] = None,
    ) -> Optional[Lookup]:
        """:meth:`lookup` without planning or counting: the reusable
        entry's plan, or ``None``.  ``force`` must be resolved."""
        entry = self._entries.peek(self._key(form, structure, slack, force))
        if entry is None or entry.stale(database, form.relations) is not None:
            return None
        return Lookup(entry.plan, None, entry.planned_on() is not database)

    def plan(
        self,
        form: PlanningForm,
        structure: StringStructure,
        database: Database,
        slack: Optional[int] = None,
        force: Optional[str] = None,
    ) -> Plan:
        """:meth:`lookup`'s plan with ``form``'s values bound."""
        found = self.lookup(form, structure, database, slack, force)
        return with_values(found.plan, form.values)


def with_origin(plan: Plan, found: Lookup, database: Database) -> Plan:
    """``plan`` (``found``'s, perhaps bound) saying how the cache produced
    it and the statistics of ``database`` beside those it was costed on."""
    return replace(plan, origin={
        "outcome": "reused" if found.replanned is None else "planned",
        "reason": found.replanned,
        "current_stats": planning_statistics(
            database, tuple(plan.db_stats["relations"])
        ),
    })


_PLANS = PlanCache(registered("planner.plan_cache", 1024))


def plan_cache() -> PlanCache:
    """The process-wide plan cache."""
    return _PLANS
