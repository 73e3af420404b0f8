"""The concurrent query service: worker pool, deadlines, admission control.

:class:`QueryService` turns the single-call library (``Query.run(db)``)
into a serving tier on top of the PR 1 engine core:

* a **named-database registry** — databases are registered once under a
  name and fingerprinted (:func:`repro.engine.cache.database_fingerprint`),
  so requests refer to ``"main"`` instead of shipping relations;
* **prepared queries** — :meth:`QueryService.prepare` parses a query once,
  lifts its string literals into a **template** (:mod:`repro.logic.
  literals`) and caches the planner's decision for the template per
  (database fingerprint, engine, slack); template handles are interned
  by the template's **canonical fingerprint** (:mod:`repro.logic.
  canonical`), so alpha-equivalent and conjunct-reordered spellings, and
  queries that differ only in their constants, share one handle, one
  plan cache and one fused algebra closure, while each query's
  answer is cached under its own fingerprint in the session-wide
  thread-safe :class:`~repro.engine.cache.AutomatonCache`;
* a **worker pool** — a fixed set of threads executing requests pulled
  from a bounded queue; single requests and batches run concurrently;
* **per-request deadlines** — a request's budget starts at submission
  (queue wait counts) and is enforced cooperatively by the checkpoint
  hooks threaded through both engines (:mod:`repro.engine.deadline`), so
  a 1 ms deadline against a pathological automata product returns a
  structured timeout instead of hanging a worker forever;
* **admission control** — when the queue is full, ``backpressure="reject"``
  fails fast with a retryable *overloaded* error and
  ``backpressure="block"`` makes the submitter wait (up to the request's
  own deadline);
* **structured errors** — workers never leak tracebacks; every failure is
  classified into an :class:`ErrorInfo` with a stable ``code`` and a
  ``retryable`` flag (``timeout``/``overloaded``/``unavailable`` are
  retryable, ``parse``/``invalid``/``unsafe``/``internal`` are not);
* **graceful shutdown** — :meth:`QueryService.close` stops admission and
  either drains the queue or cancels pending requests with a retryable
  *unavailable* error;
* **cooperative cancellation** — :meth:`PendingRequest.cancel` abandons
  a request whose submitter went away (a disconnected streaming client):
  queued work is skipped, in-flight work is aborted at the engines' next
  deadline checkpoint, and the worker slot is always reclaimed;
* **warm-start persistence** — ``warm_dir=`` spills the automaton cache
  (compiled :class:`~repro.automata.relation.RelationAutomaton` values
  including their memoized dense-DFA kernels) to disk on close and
  reloads entries lazily on demand after a restart, keyed by canonical
  fingerprint (:mod:`repro.engine.warmstart`) — restarts answer
  previously-compiled queries without recompiling;
* optional **sharding** — ``shards=N`` spawns a pool of shard worker
  *processes* (:mod:`repro.shard`); every registered database is
  partitioned onto it and queries whose plans distribute scatter-gather
  across the pool (shard failures surface as structured ``shard``
  errors, never as silent partial results).

The wire protocol on top of this lives in :mod:`repro.service.protocol`
and :mod:`repro.service.server`; tuning knobs are documented in
``docs/service.md``.

Usage::

    from repro.service import QueryService, RunRequest

    svc = QueryService(workers=8)
    svc.register_database("main", StringDatabase("01", {"R": {"01", "0110"}}))
    resp = svc.execute(RunRequest(query="R(x)", database="main", timeout=0.5))
    resp.ok, resp.rows          # True, [["01"], ["0110"]]
    svc.close()
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.core.query import Query, StringDatabase
from repro.database.instance import Database
from repro.delta import DatabaseVersion, VersionedDatabase
from repro.engine.backend import resolve_engine
from repro.engine.cache import AutomatonCache, database_fingerprint, global_cache
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.explain import Explain, execute_plan, explain_plan
from repro.engine.metrics import METRICS
from repro.engine.planner import Plan, Planner, with_values
from repro.errors import (
    EvaluationTimeout,
    ParseError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
    ShardError,
    UnsafeQueryError,
)
from repro.logic.canonical import canonical_fingerprint
from repro.logic.literals import bind, lift_literals
from repro.logic.parser import parse_formula
from repro.logic.transform import guard_existentials
from repro.strings.alphabet import Alphabet

__all__ = [
    "ErrorInfo",
    "PreparedQuery",
    "QueryService",
    "QueryTemplate",
    "RunRequest",
    "ServiceConfig",
    "ServiceResponse",
    "classify_error",
]


# ------------------------------------------------------------------- results


#: Error codes whose requests are safe to retry (possibly after backoff).
RETRYABLE_CODES = frozenset(
    {"timeout", "overloaded", "quota", "cancelled", "unavailable"}
)


@dataclass(frozen=True)
class ErrorInfo:
    """A structured, wire-serializable request failure."""

    code: str            # timeout | overloaded | quota | cancelled |
                         # unavailable | shard | parse | invalid |
                         # unsafe | internal
    message: str
    retryable: bool

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }


def classify_error(exc: BaseException) -> ErrorInfo:
    """Map an exception to its structured error (never leaks a traceback).

    The mapping is ordered most-specific-first; anything the library did
    not anticipate becomes a non-retryable ``internal`` error carrying
    only the exception's message.
    """
    if isinstance(exc, EvaluationTimeout):
        return ErrorInfo("timeout", str(exc), retryable=True)
    if isinstance(exc, QueueFullError):
        return ErrorInfo("overloaded", str(exc), retryable=True)
    if isinstance(exc, QuotaExceededError):
        return ErrorInfo("quota", str(exc), retryable=True)
    if isinstance(exc, RequestCancelledError):
        return ErrorInfo("cancelled", str(exc), retryable=True)
    if isinstance(exc, ServiceClosedError):
        return ErrorInfo("unavailable", str(exc), retryable=True)
    if isinstance(exc, ShardError):
        # Worker crashes / stragglers are retryable; certificate or
        # registration problems are not — the error carries the bit.
        return ErrorInfo("shard", str(exc), retryable=exc.retryable)
    if isinstance(exc, ParseError):
        return ErrorInfo("parse", str(exc), retryable=False)
    if isinstance(exc, UnsafeQueryError):
        return ErrorInfo("unsafe", str(exc), retryable=False)
    if isinstance(exc, ReproError):
        return ErrorInfo("invalid", str(exc), retryable=False)
    return ErrorInfo("internal", f"{type(exc).__name__}: {exc}", retryable=False)


@dataclass
class ServiceResponse:
    """The outcome of one request: either a table or a structured error."""

    ok: bool
    columns: Optional[list[str]] = None
    rows: Optional[list[list[str]]] = None
    engine: Optional[str] = None
    finite: Optional[bool] = None
    error: Optional[ErrorInfo] = None
    queue_seconds: float = 0.0
    exec_seconds: float = 0.0

    def to_dict(self) -> dict:
        """The wire shape used by the NDJSON protocol (timings in ms)."""
        out: dict[str, Any] = {
            "ok": self.ok,
            "queue_ms": round(self.queue_seconds * 1000, 3),
            "exec_ms": round(self.exec_seconds * 1000, 3),
        }
        if self.ok:
            out["columns"] = self.columns
            out["rows"] = self.rows
            out["engine"] = self.engine
            out["finite"] = self.finite
        else:
            assert self.error is not None
            out["error"] = self.error.to_dict()
        return out


# ------------------------------------------------------------------ requests


@dataclass
class RunRequest:
    """One query execution request.

    ``query`` is query text or a :class:`PreparedQuery`; ``database`` a
    registered name.  ``timeout`` (seconds) defaults to the service's
    ``default_timeout`` and starts counting at **submission** — time spent
    waiting in the admission queue eats into the budget, which is what
    lets a loaded service shed requests that would miss their deadline
    anyway.
    """

    query: Union[str, "PreparedQuery"]
    database: str
    structure: str = "S"
    engine: Optional[str] = None      # None/"auto" or a registered backend name
    slack: Optional[int] = None
    limit: Optional[int] = None
    timeout: Optional[float] = None


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`QueryService` (see ``docs/service.md``)."""

    workers: int = 4
    max_pending: int = 64
    backpressure: str = "reject"          # "reject" | "block"
    default_timeout: Optional[float] = None
    cache: Optional[AutomatonCache] = None  # defaults to the global cache
    shards: int = 0                       # 0 = no shard pool
    shard_scheme: str = "hash"            # "hash" | "relation"
    warm_dir: Optional[str] = None        # spill/reload the automaton cache
    quota_rate: Optional[float] = None    # per-client requests/second
    quota_burst: float = 8.0              # per-client token-bucket capacity
    stream_page_size: int = 256           # default rows per row_batch frame

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")
        if self.max_pending < 1:
            raise ServiceError("max_pending must be >= 1")
        if self.backpressure not in ("reject", "block"):
            raise ServiceError(
                f"backpressure must be 'reject' or 'block', got "
                f"{self.backpressure!r}"
            )
        if self.shards < 0:
            raise ServiceError("shards must be >= 0 (0 disables sharding)")
        if self.shard_scheme not in ("hash", "relation"):
            raise ServiceError(
                f"shard_scheme must be 'hash' or 'relation', got "
                f"{self.shard_scheme!r}"
            )
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ServiceError(
                "quota_rate must be positive (or None to disable quotas)"
            )
        if self.quota_burst < 1:
            raise ServiceError("quota_burst must be >= 1")
        if self.stream_page_size < 1:
            raise ServiceError("stream_page_size must be >= 1")


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class _NamedDatabase:
    """A registry entry: the instance plus its content fingerprint.

    ``database``/``fingerprint`` always describe the entry's **head**
    snapshot.  Once a delta is applied to the name, ``versioned`` holds
    the delta store evolving it and ``plan_epoch`` mirrors the head's
    epoch (bumped only on schema/adom shifts — the prepared-query plan
    cache re-plans on epoch changes, not on every delta)."""

    name: str
    database: Database
    fingerprint: str
    versioned: Optional[VersionedDatabase] = None
    plan_epoch: int = 0


#: Entries each of the service's query-text maps keeps (the text alias
#: map, prepared queries, template handles).  Ad hoc traffic brings new
#: text without end; at the cap the oldest entry goes first, the
#: discipline of the algebra plan cache.
_PREPARED_CAP = 1024


def _intern(table: dict, key, value):
    """``table[key]``, set to ``value`` when absent (dropping the oldest
    entry at :data:`_PREPARED_CAP`).  Caller holds the registry lock."""
    hit = table.get(key)
    if hit is None:
        if len(table) >= _PREPARED_CAP:
            table.pop(next(iter(table)))
        hit = table[key] = value
    return hit


class QueryTemplate:
    """A query shape, planned once per database and shared by every query
    that differs from it only in its constants.

    The formula is a template (:mod:`repro.logic.literals`): its string
    literals and patterns are ``Param`` slots.  The service interns one
    handle per (template fingerprint, structure) and runs it for each
    binding of values.  The plan cache is locked, and the cached
    :class:`~repro.engine.planner.Plan` objects are treated as immutable.
    Re-registering a database under the same name invalidates its cached
    plans via the fingerprint in the cache key.
    """

    def __init__(self, formula, fingerprint: str, structure: str = "S"):
        self.structure_name = structure
        self.formula = formula
        #: Canonical fingerprint of the template — the service interns
        #: handles by it, so alpha-equivalent spellings and queries that
        #: differ only in their constants share this plan cache.
        self.fingerprint = fingerprint
        self._queries: dict[tuple[str, ...], Query] = {}
        self._plans: dict[tuple, Plan] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"QueryTemplate({str(self.formula)!r}, "
            f"structure={self.structure_name})"
        )

    def query_for(self, alphabet: Alphabet) -> Query:
        """The signature-checked :class:`Query` for one alphabet (a slot's
        pattern is checked per binding, by :class:`PreparedQuery`)."""
        key = alphabet.symbols
        with self._lock:
            q = self._queries.get(key)
        if q is None:
            # Construction checks the formula against the structure's
            # signature; done outside the lock (idempotent, last wins).
            q = Query(self.formula, structure=self.structure_name,
                      alphabet=alphabet)
            with self._lock:
                q = self._queries.setdefault(key, q)
        return q

    def plan_for(
        self,
        entry: _NamedDatabase,
        engine: Optional[str] = None,
        slack: Optional[int] = None,
    ) -> Plan:
        """The (cached) plan for this template on one registered database.

        Keyed by (database fingerprint, backend name, slack) — the query
        component is the handle itself, which the service interns by
        template fingerprint.  Two registered names with identical
        contents therefore share plans, as do alpha-equivalent spellings
        of the query and queries that differ only in their constants.

        Delta-evolved entries are keyed by **plan epoch** instead of
        fingerprint: every version fingerprint is new, but the planner's
        decision only depends on the schema and the active domain, which
        is exactly what bumps the epoch — so row-only deltas reuse the
        plan (counted in ``delta.replans_avoided``) and schema/adom
        shifts re-plan.  Planning a newer epoch drops the plans of the
        older epochs of the same base database.
        """
        force = resolve_engine(engine)
        if entry.versioned is not None:
            key = (
                "epoch",
                entry.versioned.base_fingerprint,
                entry.plan_epoch,
                force,
                slack,
            )
        else:
            key = (entry.fingerprint, force, slack)
        with self._lock:
            hit = self._plans.get(key)
        if hit is not None:
            plan, planned_fingerprint = hit
            METRICS.inc("service.plan_cache_hits")
            if planned_fingerprint != entry.fingerprint:
                METRICS.inc("delta.replans_avoided")
            return plan
        q = self.query_for(entry.database.alphabet)
        if force is None:
            # Prepared queries are declared intent to run repeatedly, so
            # compile the fused closure *before* planning: the first auto
            # plan then prices the algebra engine's fused strategy warm
            # (CODEGEN_SETUP_COST is amortized, not charged to every run)
            # and runs it fused when that is cheapest.  Best-effort —
            # shapes outside the fuseable regime simply return False.
            from repro.algebra.codegen import prewarm

            prewarm(
                q.formula,
                q.structure,
                entry.database.schema,
                slack=0 if slack is None else slack,
            )
        plan = Planner(q.structure, entry.database).plan(
            q.formula, slack=slack, force=force
        )
        with self._lock:
            plan, _ = self._plans.setdefault(key, (plan, entry.fingerprint))
            if entry.versioned is not None:
                for old in [
                    k for k in self._plans
                    if k[0] == "epoch" and k[1] == key[1] and k[2] < key[2]
                ]:
                    del self._plans[old]
        return plan


class PreparedQuery:
    """One concrete query: a :class:`QueryTemplate` handle plus the values
    bound to its slots.

    Created by :meth:`QueryService.prepare`, which interns them per
    concrete canonical fingerprint, and shared freely across threads.
    ``fingerprint`` identifies the concrete query — every whole-result
    cache key of its runs carries it — and is computed once, by
    :meth:`QueryService.prepare`.
    """

    def __init__(
        self,
        source: str,
        structure: str,
        template: QueryTemplate,
        values: tuple[str, ...],
        fingerprint: str,
    ):
        self.source = source
        self.structure_name = structure
        self.template = template
        self.values = values
        self.fingerprint = fingerprint
        #: Alphabets this binding passed the signature checks under.
        self._checked: set[tuple[str, ...]] = set()

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.source!r}, structure={self.structure_name})"
        )

    @property
    def formula(self):
        """The concrete formula: the template with its values bound."""
        return bind(self.template.formula, self.values)

    def plan_for(
        self,
        entry: _NamedDatabase,
        engine: Optional[str] = None,
        slack: Optional[int] = None,
    ) -> Plan:
        """The template's plan (:meth:`QueryTemplate.plan_for`) with this
        query's values bound, once they passed the signature checks for
        the database's alphabet: under S a pattern that is not star-free
        is still an error."""
        symbols = entry.database.alphabet.symbols
        if self.values and symbols not in self._checked:
            q = self.template.query_for(entry.database.alphabet)
            q.structure.check_formula(self.formula)
            self._checked.add(symbols)
        plan = self.template.plan_for(entry, engine=engine, slack=slack)
        return with_values(plan, self.values, self.fingerprint)


def _codegen_closure_stats() -> dict:
    """Counters of the compiled-closure LRU, for ``stats()`` endpoints."""
    from repro.algebra.codegen import closure_cache

    return closure_cache().stats()


# ---------------------------------------------------------------- the pool


_SENTINEL = object()


class _Job:
    """One queued request with its deadline and completion signal."""

    __slots__ = (
        "request", "fn", "deadline", "submitted_at", "started_at",
        "exec_seconds", "event", "outcome", "cancelled", "_callbacks",
        "_cb_lock", "_cb_fired",
    )

    def __init__(self, request: RunRequest, fn, deadline: Optional[Deadline]):
        self.request = request
        self.fn = fn
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.exec_seconds = 0.0
        self.event = threading.Event()
        # ("ok", payload dict) | ("error", exception)
        self.outcome: Optional[tuple[str, Any]] = None
        #: Set by PendingRequest.cancel(): skip if still queued, expire
        #: the deadline if already running.
        self.cancelled = False
        self._callbacks: list = []
        self._cb_lock = threading.Lock()
        self._cb_fired = False

    def add_done_callback(self, fn) -> None:
        """Run ``fn()`` on the worker thread once the job completes (or
        immediately, on the caller's thread, if it already did).  The
        asyncio front end uses this to bridge worker completions back
        onto the event loop via ``call_soon_threadsafe`` — no polling,
        no thread blocked per in-flight request."""
        with self._cb_lock:
            if not self._cb_fired:
                self._callbacks.append(fn)
                return
        fn()

    def fire_callbacks(self) -> None:
        with self._cb_lock:
            self._cb_fired = True
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn()
            except Exception:  # a broken observer must not kill the worker
                pass


class PendingRequest:
    """A handle on a submitted request (the service's future)."""

    __slots__ = ("_job",)

    def __init__(self, job: _Job):
        self._job = job

    def done(self) -> bool:
        return self._job.event.is_set()

    def add_done_callback(self, fn) -> None:
        """Run ``fn()`` (no arguments) when the request completes.

        Fires on the worker thread — keep it tiny and non-blocking (the
        async server passes ``loop.call_soon_threadsafe`` trampolines).
        If the request is already done, ``fn`` runs immediately on the
        calling thread.
        """
        self._job.add_done_callback(fn)

    def cancel(self) -> None:
        """Abandon the request cooperatively (submitter went away).

        Queued jobs are skipped by the worker (their outcome becomes a
        retryable ``cancelled`` error); a job already running has its
        deadline pulled into the past, so the engine's next checkpoint
        aborts it (:meth:`repro.engine.deadline.Deadline.cancel`).  The
        worker slot is therefore always reclaimed — promptly for queued
        work, at the next checkpoint for in-flight work.
        """
        job = self._job
        job.cancelled = True
        if job.deadline is not None:
            job.deadline.cancel()
        METRICS.inc("service.cancel_requested")

    def wait(self, timeout: Optional[float] = None) -> ServiceResponse:
        """Block until the request finishes and return its response.

        ``timeout`` bounds only this *wait*; if it elapses the request is
        still running and a retryable ``timeout`` response is returned
        without cancelling the underlying work.
        """
        job = self._job
        if not job.event.wait(timeout):
            return ServiceResponse(
                ok=False,
                error=ErrorInfo(
                    "timeout",
                    f"request still pending after waiting {timeout:.6g}s",
                    retryable=True,
                ),
                queue_seconds=time.monotonic() - job.submitted_at,
            )
        status, value = job.outcome  # type: ignore[misc]
        queue_seconds = (
            (job.started_at or job.submitted_at) - job.submitted_at
        )
        if status == "ok":
            return ServiceResponse(
                ok=True,
                queue_seconds=queue_seconds,
                exec_seconds=job.exec_seconds,
                **value,
            )
        return ServiceResponse(
            ok=False,
            error=classify_error(value),
            queue_seconds=queue_seconds,
            exec_seconds=job.exec_seconds,
        )


# ----------------------------------------------------------------- service


class QueryService:
    """The concurrent query service (see module docstring).

    Accepts either a :class:`ServiceConfig` or the same fields as keyword
    overrides::

        QueryService(workers=8, max_pending=128, backpressure="block")
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ServiceError("pass a ServiceConfig or keyword overrides, not both")
        self.config = config
        self._cache = config.cache if config.cache is not None else global_cache()
        # Warm-start persistence: attach the spill directory as the
        # cache's lazy miss loader, so entries compiled by a previous
        # process are pulled off disk on first demand (and this process
        # spills its own compilations on close / spill_warm()).
        self._warm = None
        if config.warm_dir:
            from repro.engine.warmstart import WarmStartStore

            self._warm = WarmStartStore(config.warm_dir)
            self._warm.attach(self._cache)
        # shards > 0 spawns a worker-process pool; every registered
        # database is partitioned onto it and the planner's `sharded`
        # backend enters the cost argmin for distributing queries.
        self._coordinator = None
        if config.shards > 0:
            from repro.shard import ShardCoordinator

            self._coordinator = ShardCoordinator(
                shards=config.shards, scheme=config.shard_scheme
            )
        self._databases: dict[str, _NamedDatabase] = {}
        # Template handles per (template fingerprint, structure), prepared
        # queries per (canonical fingerprint, structure), and the text
        # alias map that short-circuits re-parsing on repeated exact text;
        # each capped at _PREPARED_CAP.
        self._templates: dict[tuple[str, str], QueryTemplate] = {}
        self._prepared: dict[tuple[str, str], PreparedQuery] = {}
        self._prepared_text: dict[tuple[str, str], PreparedQuery] = {}
        self._registry_lock = threading.Lock()
        # Serializes delta application (insert/delete) across names so a
        # wrap-then-apply never races a concurrent re-registration.
        self._delta_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=config.max_pending)
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(config.workers)
        ]
        for t in self._workers:
            t.start()

    # ------------------------------------------------------------- registry

    def register_database(
        self, name: str, database: Union[StringDatabase, Database]
    ) -> str:
        """Register (or replace) a database under ``name``; returns its
        fingerprint.  Replacing invalidates prepared plans for the old
        contents automatically (plans are keyed by fingerprint)."""
        db = database.db if isinstance(database, StringDatabase) else database
        entry = _NamedDatabase(name, db, database_fingerprint(db))
        if self._coordinator is not None:
            # Partition onto the shard pool first: if a worker rejects
            # the data the service registry stays consistent.
            self._coordinator.register_database(name, db)
        with self._registry_lock:
            self._databases[name] = entry
        METRICS.inc("service.databases_registered")
        return entry.fingerprint

    def unregister_database(self, name: str) -> bool:
        """Drop ``name`` from the registry (and the shard pool's
        partitions/routes, when sharding); returns whether it existed.
        Cached plans and results keyed by its fingerprints age out of
        their LRU stores naturally."""
        with self._registry_lock:
            entry = self._databases.pop(name, None)
        if entry is None:
            return False
        if self._coordinator is not None:
            self._coordinator.unregister_database(name)
        METRICS.inc("service.databases_unregistered")
        return True

    # --------------------------------------------------------------- deltas

    def insert_rows(self, name: str, relation: str, rows) -> DatabaseVersion:
        """Apply an insert delta to a registered database; returns the
        new head version (see :mod:`repro.delta`)."""
        return self.apply_delta(name, inserts={relation: rows})

    def delete_rows(self, name: str, relation: str, rows) -> DatabaseVersion:
        """Apply a delete delta to a registered database."""
        return self.apply_delta(name, deletes={relation: rows})

    def apply_delta(
        self,
        name: str,
        inserts: Optional[dict] = None,
        deletes: Optional[dict] = None,
    ) -> DatabaseVersion:
        """Evolve ``name`` by one delta: O(|delta|), caches stay warm.

        The first delta lazily wraps the registered snapshot in a
        :class:`~repro.delta.VersionedDatabase`; subsequent requests for
        ``name`` resolve against the new head while in-flight requests
        keep their pinned snapshot.  Under sharding, row deltas are
        forwarded to the owning partitions only; a schema-extending
        delta re-scatters (new relations need a placement decision).
        """
        with self._delta_lock:
            entry = self._entry(name)
            versioned = entry.versioned
            if versioned is None:
                versioned = VersionedDatabase(entry.database)
            before = versioned.head
            head = versioned.apply(inserts=inserts, deletes=deletes)
            if head is before:
                # Effective no-op: nothing to forward, nothing to swap.
                if entry.versioned is None:
                    with self._registry_lock:
                        self._databases[name] = _NamedDatabase(
                            name,
                            head.database,
                            head.fingerprint,
                            versioned=versioned,
                            plan_epoch=head.plan_epoch,
                        )
                return head
            if self._coordinator is not None:
                if head.schema_changed:
                    # New relations need a placement decision: re-scatter.
                    self._coordinator.register_database(name, head.database)
                else:
                    self._coordinator.apply_delta(
                        name, head.delta, head.database
                    )
            with self._registry_lock:
                self._databases[name] = _NamedDatabase(
                    name,
                    head.database,
                    head.fingerprint,
                    versioned=versioned,
                    plan_epoch=head.plan_epoch,
                )
        METRICS.inc("service.deltas")
        return head

    def database_versions(self, name: str) -> list[dict]:
        """Wire-friendly summaries of the retained versions of ``name``
        (a single pseudo-version for never-mutated databases)."""
        entry = self._entry(name)
        if entry.versioned is not None:
            return entry.versioned.versions()
        return [
            {
                "version": 0,
                "fingerprint": entry.fingerprint,
                "tuples": entry.database.size,
                "adom_size": len(entry.database.adom),
                "plan_epoch": 0,
                "delta_size": 0,
            }
        ]

    def database_names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._databases)

    def _entry(self, name: str) -> _NamedDatabase:
        with self._registry_lock:
            entry = self._databases.get(name)
        if entry is None:
            have = ", ".join(self.database_names()) or "none"
            raise ServiceError(
                f"unknown database {name!r} (registered: {have})"
            )
        return entry

    # -------------------------------------------------------------- prepare

    def prepare(self, query: str, structure: str = "S") -> PreparedQuery:
        """Parse once, share forever.

        The query's literals are lifted into a template
        (:func:`~repro.logic.literals.lift_literals`) after a natural
        quantifier that a relation atom confines to the active domain
        became an ADOM one (:func:`~repro.logic.transform.
        guard_existentials`).  Template handles are interned per
        (template fingerprint, structure): every query of one shape —
        any spelling, any constants — shares one plan cache and one
        compiled closure.  The returned :class:`PreparedQuery` is
        interned per concrete canonical fingerprint, and a text-keyed
        alias map keeps the repeated-exact-text fast path free of
        re-parsing."""
        alias = (query, structure)
        with self._registry_lock:
            prepared = self._prepared_text.get(alias)
        if prepared is not None:
            return prepared
        formula = guard_existentials(parse_formula(query))
        fingerprint = canonical_fingerprint(formula)
        template, values = lift_literals(formula)
        template_fingerprint = canonical_fingerprint(template)
        new_handle = QueryTemplate(template, template_fingerprint, structure)
        with self._registry_lock:
            handle = _intern(
                self._templates, (template_fingerprint, structure), new_handle
            )
            fresh = PreparedQuery(query, structure, handle, values, fingerprint)
            prepared = _intern(self._prepared, (fingerprint, structure), fresh)
            _intern(self._prepared_text, alias, prepared)
        if handle is not new_handle:
            METRICS.inc("service.template_hits")
        if prepared is fresh:
            METRICS.inc("service.prepared_queries")
        return prepared

    def explain(
        self,
        query: Union[str, PreparedQuery],
        database: str,
        structure: str = "S",
        engine: Optional[str] = None,
        slack: Optional[int] = None,
    ) -> Explain:
        """Run one query with tracing, on the calling thread, and return
        the EXPLAIN report — with the template it ran as, the template's
        fingerprint and the values bound to it."""
        prepared = (
            query if isinstance(query, PreparedQuery)
            else self.prepare(query, structure)
        )
        entry = self._entry(database)
        plan = prepared.plan_for(entry, engine=engine, slack=slack)
        return explain_plan(plan, entry.database, cache=self._cache)

    # ------------------------------------------------------------ execution

    def submit(
        self, request: RunRequest, *, nowait: bool = False
    ) -> PendingRequest:
        """Admit a request into the queue and return a waitable handle.

        Raises :class:`~repro.errors.ServiceClosedError` when draining or
        closed, :class:`~repro.errors.QueueFullError` when the queue is
        full under ``backpressure="reject"``, and
        :class:`~repro.errors.EvaluationTimeout` when a blocked submission
        outlives the request's own deadline.

        ``nowait=True`` forces the non-blocking admission path regardless
        of the configured backpressure mode: a full queue raises
        :class:`~repro.errors.QueueFullError` immediately instead of
        blocking the calling thread.  The asyncio front end submits this
        way so its event loop is never parked in ``queue.put`` — under
        ``backpressure="block"`` the scheduler pump supplies the waiting
        with ``asyncio.sleep`` retries (:meth:`repro.service.quota.
        FairScheduler.pump`).  Retried nowait attempts that find the
        queue full are not counted as requests or rejections; only the
        admitted attempt increments ``service.requests``.
        """
        if self._closed:
            raise ServiceClosedError("service is draining or closed")
        timeout = (
            request.timeout if request.timeout is not None
            else self.config.default_timeout
        )
        deadline = Deadline(timeout) if timeout is not None else None
        job = _Job(request, lambda: self._evaluate(request), deadline)
        if nowait or self.config.backpressure == "reject":
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                if self.config.backpressure == "reject":
                    METRICS.inc("service.requests")
                    METRICS.inc("service.rejected")
                raise QueueFullError(
                    f"request queue full ({self.config.max_pending} pending); "
                    "retry after backoff"
                ) from None
            METRICS.inc("service.requests")
        else:
            METRICS.inc("service.requests")
            self._block_until_admitted(job, deadline)
        return PendingRequest(job)

    def _block_until_admitted(
        self, job: _Job, deadline: Optional[Deadline]
    ) -> None:
        """``backpressure="block"``: wait for queue space, but never past
        the request's own deadline (and never once the service closes)."""
        while True:
            wait = 0.05
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    METRICS.inc("service.rejected")
                    deadline.check()  # raises EvaluationTimeout
                wait = min(wait, remaining)
            try:
                self._queue.put(job, timeout=wait)
                return
            except queue.Full:
                if self._closed:
                    raise ServiceClosedError(
                        "service closed while waiting for queue space"
                    ) from None

    def execute(self, request: RunRequest) -> ServiceResponse:
        """Submit and wait; admission failures become structured errors."""
        try:
            pending = self.submit(request)
        except ReproError as exc:
            return ServiceResponse(ok=False, error=classify_error(exc))
        return pending.wait()

    def execute_batch(self, requests: list[RunRequest]) -> list[ServiceResponse]:
        """Run a batch through the pool; responses keep request order.

        Items rejected at admission get structured *overloaded* errors in
        their slot — one saturated batch never raises out of the call.
        """
        METRICS.inc("service.batches")
        pending: list[Union[PendingRequest, ServiceResponse]] = []
        for request in requests:
            try:
                pending.append(self.submit(request))
            except ReproError as exc:
                pending.append(ServiceResponse(ok=False, error=classify_error(exc)))
        return [
            p if isinstance(p, ServiceResponse) else p.wait() for p in pending
        ]

    # ------------------------------------------------------------ lifecycle

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission and shut the pool down.

        ``drain=True`` lets queued requests finish (their own deadlines
        still apply); ``drain=False`` fails pending requests with a
        retryable *unavailable* error.  ``timeout`` bounds the join on
        each worker thread.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not _SENTINEL:
                    job.outcome = (
                        "error",
                        ServiceClosedError("service shut down before execution"),
                    )
                    job.event.set()
                    job.fire_callbacks()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for t in self._workers:
            t.join(timeout)
        if self._coordinator is not None:
            self._coordinator.close()
        if self._warm is not None:
            # Spill after the pool stops: the cache holds everything this
            # process compiled, and the next boot warm-starts from it.
            self.spill_warm()

    def spill_warm(self) -> Optional[dict]:
        """Persist the automaton cache to the warm directory (if any).

        Called automatically by :meth:`close`; callable explicitly for
        checkpoint-style spills of a long-running service.  Returns the
        spill counters, or ``None`` when no ``warm_dir`` is configured.
        """
        if self._warm is None:
            return None
        return self._warm.spill(self._cache)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Service-level gauges plus the shared cache's counters."""
        snapshot = METRICS.snapshot()
        service_counters = {
            name: value
            for name, value in snapshot.items()
            if name.startswith(("service.", "delta."))
        }
        with self._registry_lock:
            entries = list(self._databases.values())
        versions = {
            entry.name: {
                "head": entry.versioned.head.version
                if entry.versioned is not None
                else 0,
                "retained": len(entry.versioned.versions())
                if entry.versioned is not None
                else 1,
                "plan_epoch": entry.plan_epoch,
            }
            for entry in entries
        }
        out = {
            "workers": self.config.workers,
            "max_pending": self.config.max_pending,
            "backpressure": self.config.backpressure,
            "pending": self._queue.qsize(),
            "closed": self._closed,
            "databases": self.database_names(),
            "versions": versions,
            "templates": len(self._templates),
            "cache": self._cache.stats(),
            "codegen_cache": _codegen_closure_stats(),
            "counters": service_counters,
        }
        if self._coordinator is not None:
            out["sharding"] = self._coordinator.stats()
        if self._warm is not None:
            out["warmstart"] = self._warm.stats()
        return out

    # ------------------------------------------------------------- internals

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        job.started_at = time.monotonic()
        queue_wait = job.started_at - job.submitted_at
        METRICS.add_time("service.queue_wait_seconds", queue_wait)
        t0 = time.perf_counter()
        try:
            if job.cancelled:
                # The submitter abandoned the request while it was still
                # queued (e.g. a streaming client disconnected): reclaim
                # the worker without touching the engines.
                raise RequestCancelledError(
                    "request cancelled before execution"
                )
            with deadline_scope(job.deadline):
                if job.deadline is not None:
                    # Queue wait counts against the budget: a request that
                    # already missed its deadline is dropped before any
                    # engine work starts.
                    job.deadline.check()
                payload = job.fn()
            METRICS.inc("service.ok")
            job.outcome = ("ok", payload)
        except BaseException as exc:  # never kill a worker on a bad request
            if job.cancelled and isinstance(
                exc, (EvaluationTimeout, RequestCancelledError)
            ):
                # In-flight cancellation surfaces as the expired deadline's
                # EvaluationTimeout; report it as what it was.
                METRICS.inc("service.cancelled")
                exc = (
                    exc if isinstance(exc, RequestCancelledError)
                    else RequestCancelledError(
                        "request cancelled mid-execution (submitter "
                        "disconnected); partial work discarded"
                    )
                )
            elif isinstance(exc, EvaluationTimeout):
                METRICS.inc("service.timeouts")
            else:
                METRICS.inc("service.errors")
            job.outcome = ("error", exc)
        finally:
            job.exec_seconds = time.perf_counter() - t0
            METRICS.add_time("service.exec_seconds", job.exec_seconds)
            job.event.set()
            job.fire_callbacks()

    def _evaluate(self, request: RunRequest) -> dict:
        """Plan (cached) and execute one request on the worker thread."""
        if isinstance(request.query, PreparedQuery):
            prepared = request.query
        else:
            prepared = self.prepare(request.query, request.structure)
        entry = self._entry(request.database)
        plan = prepared.plan_for(entry, engine=request.engine,
                                 slack=request.slack)
        result = execute_plan(plan, entry.database, cache=self._cache)
        finite = result.is_finite()
        if finite:
            rows = sorted(result.as_set())
        elif request.limit is not None:
            rows = sorted(result.tuples(limit=request.limit))
        else:
            raise UnsafeQueryError(
                "query output is infinite; pass limit= to sample it"
            )
        return {
            "columns": list(result.variables),
            "rows": [list(t) for t in rows],
            "engine": plan.engine,
            "finite": finite,
        }
