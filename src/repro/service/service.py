"""The concurrent query service: worker pool, deadlines, admission control.

:class:`QueryService` turns the single-call library (``Query.run(db)``)
into a serving tier on top of the PR 1 engine core:

* a **named-database registry** — databases are registered once under a
  name and fingerprinted (:func:`repro.engine.cache.database_fingerprint`),
  so requests refer to ``"main"`` instead of shipping relations;
* **prepared queries** — :meth:`QueryService.prepare` parses a query once
  and lifts its string literals into a **template** (:mod:`repro.logic.
  literals`); template handles are interned by the template's
  **canonical fingerprint** (:mod:`repro.logic.canonical`), so
  alpha-equivalent and conjunct-reordered spellings, and queries that
  differ only in their constants, share one handle, one plan in the
  process-wide plan cache (:mod:`repro.engine.plan_cache`, reused until
  the statistics it was costed on drift) and one fused algebra closure,
  while each query's answer is cached under its own fingerprint in the
  session-wide thread-safe :class:`~repro.engine.cache.BoundedCache`;
* a **worker pool** — a fixed set of threads popping requests from one
  bounded, weighted fair queue (:class:`~repro.service.quota.FairQueue`)
  that every transport and library caller pushes into; each submit
  returns a :class:`PendingRequest`, a ``concurrent.futures.Future``
  the worker completes; single requests and batches run concurrently;
  a request needs no worker when its answer is already cached or its
  warm plan runs within a small deadline budget: :meth:`QueryService.
  answer_on_loop` lets a transport answer it on its own thread, before
  admission;
* **per-request deadlines** — a request's budget starts at submission
  (queue wait counts) and is enforced cooperatively by the checkpoint
  hooks threaded through both engines (:mod:`repro.engine.deadline`), so
  a 1 ms deadline against a pathological automata product returns a
  structured timeout instead of hanging a worker forever;
* **admission control** — when ``max_pending`` requests wait,
  ``backpressure="reject"`` fails fast with a retryable *overloaded*
  error and ``backpressure="block"`` makes a submitting thread wait (up
  to the request's own deadline); a connection's request, submitted
  from the event loop, never waits to be queued: under ``block`` it
  joins the queue up to a wider bound and waits its fair turn there;
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

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.core.query import Query, StringDatabase
from repro.database.instance import Database
from repro.delta import DatabaseVersion, VersionedDatabase
from repro.engine.backend import get_backend, resolve_engine
from repro.engine.cache import BoundedCache, cache_stats, global_cache
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.explain import (
    Explain,
    execute_plan,
    explain_plan,
    result_key,
)
from repro.engine.metrics import METRICS
from repro.engine.plan_cache import Lookup, plan_cache, with_origin
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
from repro.service.quota import DEFAULT_WEIGHT, FairQueue
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
    cache: Optional[BoundedCache] = None  # defaults to the global cache
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
    """A registry entry: the delta store evolving the name and the
    version new requests resolve against.

    Registration wraps the database in a :class:`~repro.delta.
    VersionedDatabase` (its version 0), so even the first delta finds a
    recorded ancestor.  ``database``/``fingerprint`` describe the
    **head** snapshot.  Plans are not kept here: the plan cache reuses a
    template's plan on every snapshot whose statistics stay near those
    it was costed on (:mod:`repro.engine.plan_cache`)."""

    name: str
    versioned: VersionedDatabase
    head: DatabaseVersion

    @property
    def database(self) -> Database:
        return self.head.database

    @property
    def fingerprint(self) -> str:
        return self.head.fingerprint


#: Entries in each map of prepared queries: the service's templates,
#: prepared queries and query-text aliases, and a wire dispatcher's
#: handle ids (:class:`repro.service.protocol.Dispatcher`).
PREPARED_CAP = 1024

#: Most rows an answer may have to be answered on the transport's event
#: loop (:meth:`QueryService.answer_on_loop`), cached or run there; a
#: larger one goes through the pool, so one big answer cannot stall every
#: connection while its frames are built.
LOOP_HIT_MAX_ROWS = 4096

#: Seconds a warm plan may run on the transport's event loop
#: (:meth:`QueryService.answer_on_loop`).  A run still going then is
#: abandoned at the engine's next deadline checkpoint, its request goes
#: through the pool, and its plan is not run on the loop again.
LOOP_RUN_BUDGET = 0.002

#: Longest query text (characters) :meth:`QueryService.answer_on_loop`
#: parses on the transport's event loop when no text alias knows it.
#: Parse, lift and canonical fingerprint take 1–2 µs per character on a
#: 2-vCPU VM (about 0.1 ms at this length), well under
#: :data:`LOOP_RUN_BUDGET`.  A longer text is parsed by a worker, and so
#: is one containing ``<->``, which the parser writes out by copying
#: both sides: there the work grows with the formula's size, not the
#: text's.
LOOP_PARSE_MAX_CHARS = 256


class QueryTemplate:
    """A query shape, shared by every query that differs from it only in
    its constants.

    The formula is a template (:mod:`repro.logic.literals`): its string
    literals and patterns are ``Param`` slots.  The service interns one
    handle per (template fingerprint, structure) and runs it for each
    binding of values.  Its plans live in the process-wide plan cache
    (:mod:`repro.engine.plan_cache`), keyed by the template: every
    registered database, every version of one and every library
    :class:`~repro.core.query.Query` of the shape reuse a plan until the
    statistics it was costed on drift or what its eligibility read
    changes.
    """

    def __init__(self, formula, structure: str = "S"):
        self.structure_name = structure
        self.formula = formula
        self._queries: dict[tuple[str, ...], Query] = {}
        self._lock = threading.Lock()
        #: Per (alphabet, forced engine, slack): the template plan whose
        #: run on the event loop overran :data:`LOOP_RUN_BUDGET`.  That
        #: plan is not run on the loop again; a replan makes a new one.
        self.overran: dict[tuple, Plan] = {}

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

    def lookup(
        self,
        entry: _NamedDatabase,
        engine: Optional[str] = None,
        slack: Optional[int] = None,
    ) -> Lookup:
        """This template's plan on one registered database, from the plan
        cache (a reuse counts ``service.plan_cache_hits``).

        Prepared queries are declared intent to run repeatedly, so an
        auto replan compiles the algebra closure *before* planning: the
        plan then prices the algebra engine warm (CODEGEN_SETUP_COST is
        amortized, not charged to every run).  Best-effort — shapes
        outside the algebra engine's regime simply do not compile.
        """
        force = resolve_engine(engine)
        q = self.query_for(entry.database.alphabet)
        database = entry.database
        builder = None
        if force is None:
            def builder() -> Plan:
                from repro.algebra.codegen import prewarm

                prewarm(q.formula, q.structure, database.schema,
                        slack=0 if slack is None else slack)
                return Planner(q.structure, database).plan(q.formula, slack=slack)

        found = plan_cache().lookup(
            q.template, q.structure, database, slack=slack, force=force,
            builder=builder,
        )
        if found.replanned is None:
            METRICS.inc("service.plan_cache_hits")
        return found


class PreparedQuery:
    """One concrete query: a :class:`QueryTemplate` handle plus the values
    bound to its slots, in canonical slot order — together, the concrete
    query's identity.

    Created by :meth:`QueryService.prepare`, which interns them per
    (template fingerprint, values, structure), and shared freely across
    threads.
    """

    def __init__(
        self,
        source: str,
        structure: str,
        template: QueryTemplate,
        values: tuple[str, ...],
    ):
        self.source = source
        self.structure_name = structure
        self.template = template
        self.values = values
        #: Alphabets this binding passed the signature checks under.
        self._checked: set[tuple[str, ...]] = set()
        #: The last (template plan, bound plan) pair :meth:`bind` made.
        self._bound: Optional[tuple[Plan, Plan]] = None

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
        """The template's plan (:meth:`QueryTemplate.lookup`) with this
        query's values bound, once they passed the signature checks for
        the database's alphabet."""
        self.check_signature(entry.database.alphabet)
        found = self.template.lookup(entry, engine=engine, slack=slack)
        return self.bind(found.plan)

    def check_signature(self, alphabet: Alphabet) -> None:
        """Check the bound values against the structure's signature once
        per alphabet: under S a pattern that is not star-free is still an
        error."""
        if self.values and alphabet.symbols not in self._checked:
            q = self.template.query_for(alphabet)
            q.structure.check_formula(self.formula)
            self._checked.add(alphabet.symbols)

    def bind(self, plan: Plan) -> Plan:
        """The template's ``plan`` with this query's values bound.

        The last binding is kept, so a repeat reuses it until the
        template's plan object changes (a replan)."""
        bound = self._bound
        if bound is None or bound[0] is not plan:
            bound = self._bound = (plan, with_values(plan, self.values))
        return bound[1]


# ---------------------------------------------------------------- the pool


class PendingRequest(Future):
    """A submitted request: a :class:`concurrent.futures.Future` whose
    result is the response payload and whose exception is the failure.

    The worker completes it with ``set_result`` or ``set_exception``, so
    ``result()``, ``add_done_callback(fn)`` (``fn(future)``, on the
    completing thread), ``concurrent.futures.wait`` and
    ``asyncio.wrap_future`` all work on it.  :meth:`wait` turns the
    outcome into a :class:`ServiceResponse`; :meth:`cancel` is
    cooperative and never moves the future to the cancelled state, so a
    worker can always complete it.
    """

    __slots__ = (
        "request", "fn", "deadline", "submitted_at", "started_at",
        "exec_seconds", "abandoned",
    )

    def __init__(self, request: RunRequest, fn, deadline: Optional[Deadline]):
        super().__init__()
        self.request = request
        self.fn = fn
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.exec_seconds = 0.0
        #: Set by :meth:`cancel`: skip if still queued, expire the
        #: deadline if already running.
        self.abandoned = False

    def cancel(self) -> bool:
        """Abandon the request cooperatively (submitter went away);
        returns whether this call abandoned it.

        Queued jobs are skipped by the worker (their outcome becomes a
        retryable ``cancelled`` error); a job already running has its
        deadline pulled into the past, so the engine's next checkpoint
        aborts it (:meth:`repro.engine.deadline.Deadline.cancel`).  The
        worker slot is therefore always reclaimed — promptly for queued
        work, at the next checkpoint for in-flight work.  ``asyncio.
        wrap_future`` calls this when the awaiting task is cancelled.
        """
        if self.abandoned:
            return False
        self.abandoned = True
        if self.deadline is not None:
            self.deadline.cancel()
        METRICS.inc("service.cancel_requested")
        return True

    def wait(self, timeout: Optional[float] = None) -> ServiceResponse:
        """Block until the request finishes and return its response.

        ``timeout`` bounds only this *wait*; if it elapses the request is
        still running and a retryable ``timeout`` response is returned
        without cancelling the underlying work.
        """
        try:
            error = self.exception(timeout)
        except FutureTimeoutError:
            return ServiceResponse(
                ok=False,
                error=ErrorInfo(
                    "timeout",
                    f"request still pending after waiting {timeout:.6g}s",
                    retryable=True,
                ),
                queue_seconds=time.monotonic() - self.submitted_at,
            )
        queue_seconds = (
            (self.started_at or self.submitted_at) - self.submitted_at
        )
        if error is None:
            return ServiceResponse(
                ok=True,
                queue_seconds=queue_seconds,
                exec_seconds=self.exec_seconds,
                **self.result(),
            )
        return ServiceResponse(
            ok=False,
            error=classify_error(error),
            queue_seconds=queue_seconds,
            exec_seconds=self.exec_seconds,
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
        # queries per (template fingerprint, values, structure), and the
        # text alias map that short-circuits re-parsing on repeated exact
        # text.  Ad hoc traffic brings new text without end, so each is
        # bounded; they are this service's own, outside the registry.
        self._templates = BoundedCache(PREPARED_CAP, "service.templates")
        self._prepared = BoundedCache(PREPARED_CAP, "service.prepared")
        self._prepared_text = BoundedCache(
            PREPARED_CAP, "service.prepared_text"
        )
        self._registry_lock = threading.Lock()
        # Serializes delta application (insert/delete) across names so a
        # wrap-then-apply never races a concurrent re-registration.
        self._delta_lock = threading.Lock()
        self._queue = FairQueue()
        # A connection's request comes from the event loop, which must
        # never park: under "block" it joins the queue past max_pending,
        # up to this wider bound, and waits its fair turn there.
        self._loop_limit = (
            4 * config.max_pending + 64 if config.backpressure == "block"
            else config.max_pending
        )
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
        fingerprint.  The database becomes version 0 of a delta store
        (:class:`~repro.delta.VersionedDatabase`).  Replacing it with
        other contents replans a query only when the new contents'
        statistics left the window its plan was costed in
        (:mod:`repro.engine.plan_cache`)."""
        db = database.db if isinstance(database, StringDatabase) else database
        versioned = VersionedDatabase(db)
        entry = _NamedDatabase(name, versioned, versioned.head)
        if self._coordinator is not None:
            # Partition onto the shard pool first: if a worker rejects
            # the data the service registry stays consistent.  The head
            # snapshot is what requests resolve, so it is what is placed.
            self._coordinator.register_database(name, entry.database)
        with self._registry_lock:
            self._databases[name] = entry
        METRICS.inc("service.databases_registered")
        return entry.fingerprint

    def unregister_database(self, name: str) -> bool:
        """Drop ``name`` from the registry (and the shard pool's
        partitions, when sharding); returns whether it existed.
        Cached results keyed by its fingerprints age out of their LRU
        store naturally."""
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

        Requests for ``name`` resolve against the new head while
        in-flight requests keep their pinned snapshot.  Under sharding,
        row deltas are forwarded to the owning partitions only; a
        schema-extending delta re-scatters (new relations need a
        placement decision).
        """
        with self._delta_lock:
            versioned = self._entry(name).versioned
            before = versioned.head
            head = versioned.apply(inserts=inserts, deletes=deletes)
            if head is before:
                # Effective no-op: nothing to forward, nothing to swap.
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
                self._databases[name] = _NamedDatabase(name, versioned, head)
        METRICS.inc("service.deltas")
        return head

    def database_versions(self, name: str) -> list[dict]:
        """Wire-friendly summaries of the retained versions of ``name``
        (just version 0 for a never-mutated database)."""
        return self._entry(name).versioned.versions()

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
        (:func:`~repro.logic.literals.lift_literals`).  Template handles
        are interned per (template fingerprint, structure): every query
        of one shape — any spelling, any constants — shares one plan
        cache and one compiled closure.  The returned
        :class:`PreparedQuery` is interned per (template fingerprint,
        values, structure), the concrete query's identity, and a
        text-keyed alias map keeps the repeated-exact-text fast path free
        of re-parsing."""
        alias = (query, structure)
        prepared = self._prepared_text.get(alias)
        if prepared is not None:
            return prepared
        template, values = lift_literals(parse_formula(query))
        template_fingerprint = canonical_fingerprint(template)
        new_handle = QueryTemplate(template, structure)
        handle = self._templates.setdefault(
            (template_fingerprint, structure), new_handle
        )
        fresh = PreparedQuery(query, structure, handle, values)
        prepared = self._prepared.setdefault(
            (template_fingerprint, values, structure), fresh
        )
        self._prepared_text.put(alias, prepared)
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
        fingerprint, the values bound to it and whether the plan was
        reused."""
        prepared = (
            query if isinstance(query, PreparedQuery)
            else self.prepare(query, structure)
        )
        entry = self._entry(database)
        prepared.check_signature(entry.database.alphabet)
        found = prepared.template.lookup(entry, engine=engine, slack=slack)
        plan = with_origin(prepared.bind(found.plan), found, entry.database)
        return explain_plan(plan, entry.database, cache=self._cache)

    # ------------------------------------------------------------ execution

    def answer_on_loop(
        self, request: RunRequest, run: bool = True
    ) -> Optional[ServiceResponse]:
        """The answer to ``request`` taken on the calling thread — the
        transport's event loop — or ``None``, which sends the request down
        the pool.

        One probe looks things up once: the text alias (or the prepared
        handle) and the plan cache (:meth:`~repro.engine.plan_cache.
        PlanCache.peek`).  With ``run``, a text the alias map does not
        know is prepared right here (:meth:`prepare`) when it has at most
        :data:`LOOP_PARSE_MAX_CHARS` characters and no ``<->``, and a
        binding not yet checked for the database's alphabet is checked
        (:meth:`PreparedQuery.check_signature`) under a
        :data:`LOOP_RUN_BUDGET` deadline.  Any error there takes the pool,
        which reports it; a failed check marks nothing, as its cost
        depends on the values, not on the plan.  Without ``run`` (a batch
        item) the probe neither parses nor checks.  It never plans: a
        template the plan cache does not hold takes the pool.  Then:

        1. the result entry under :func:`~repro.engine.explain.result_key`
           answers if it holds a finite result whose sorted rows are
           memoized and number at most :data:`LOOP_HIT_MAX_ROWS`
           (``service.loop_hits``);
        2. otherwise, with ``run``, the bound plan runs right here when
           its backend says it is warm (:meth:`~repro.engine.backend.
           EngineBackend.warm`), under a :data:`LOOP_RUN_BUDGET` deadline
           (``service.inline_runs``).  A run that overruns it marks its
           plan, which is not run here again until a replan, and counts
           ``service.inline_overruns``.  An infinite answer, more than
           :data:`LOOP_HIT_MAX_ROWS` rows, a ``limit`` request, a timeout
           shorter than the budget and any error take the pool, which
           reports them.

        A closed service or a request whose budget is already spent
        (``timeout <= 0``) takes the pool path too.  An answer is counted
        like a pool run: ``service.requests``, ``service.ok``,
        ``service.plan_cache_hits`` and ``delta.replans_avoided`` when
        the plan was made on another version.
        """
        if self._closed:
            return None
        timeout = (
            request.timeout if request.timeout is not None
            else self.config.default_timeout
        )
        if timeout is not None and timeout <= 0:
            return None
        t0 = time.perf_counter()
        with self._registry_lock:
            entry = self._databases.get(request.database)
        if entry is None:
            return None
        database = entry.database
        try:
            prepared = self._loop_prepared(request, database.alphabet, run)
            if prepared is None:
                return None
            q = prepared.template.query_for(database.alphabet)
            force = resolve_engine(request.engine)
            found = plan_cache().peek(
                q.template, q.structure, database, slack=request.slack,
                force=force,
            )
        except (ReproError, TypeError):
            # An unknown engine or an unhashable field: the pool path
            # reports it as a structured error.
            return None
        if found is None:
            return None
        plan = prepared.bind(found.plan)
        response = self._cached_answer(plan, database)
        if response is None and run:
            if request.limit is not None or (
                timeout is not None and timeout < LOOP_RUN_BUDGET
            ):
                return None
            mark = (database.alphabet.symbols, force, request.slack)
            response = self._run_inline(
                prepared.template, mark, found.plan, plan, database
            )
        if response is None:
            return None
        if found.moved:
            METRICS.inc("delta.replans_avoided")
        for name in ("service.requests", "service.ok", "service.plan_cache_hits"):
            METRICS.inc(name)
        response.exec_seconds = time.perf_counter() - t0
        return response

    def _loop_prepared(
        self, request: RunRequest, alphabet: Alphabet, run: bool
    ) -> Optional[PreparedQuery]:
        """:meth:`answer_on_loop`'s prepare step: the request's prepared
        query, checked for ``alphabet``, or ``None`` for the pool."""
        prepared = request.query
        if not isinstance(prepared, PreparedQuery):
            text = prepared
            prepared = self._prepared_text.peek((text, request.structure))
            if prepared is None:
                if not (
                    run and isinstance(text, str)
                    and len(text) <= LOOP_PARSE_MAX_CHARS
                    and "<->" not in text
                ):
                    return None
                try:
                    prepared = self.prepare(text, request.structure)
                except Exception:  # the pool reports it
                    return None
        if prepared.values and alphabet.symbols not in prepared._checked:
            if not run:
                return None
            try:
                with deadline_scope(LOOP_RUN_BUDGET):
                    prepared.check_signature(alphabet)
            except Exception:  # the pool reports it
                return None
        return prepared

    def _cached_answer(
        self, plan: Plan, database: Database
    ) -> Optional[ServiceResponse]:
        """:meth:`answer_on_loop`'s result-cache step."""
        result = self._cache.peek(result_key(plan, database))
        if result is None:
            return None
        rows = result.sorted_memo
        if rows is None or len(rows) > LOOP_HIT_MAX_ROWS:
            return None
        self._cache.count_hit()
        METRICS.inc("service.loop_hits")
        METRICS.inc(f"engine.{plan.engine}.runs")
        return ServiceResponse(
            ok=True,
            columns=list(result.variables),
            rows=[list(t) for t in rows],
            engine=plan.engine,
            finite=True,
        )

    def _run_inline(
        self,
        template: QueryTemplate,
        mark: tuple,
        template_plan: Plan,
        plan: Plan,
        database: Database,
    ) -> Optional[ServiceResponse]:
        """:meth:`answer_on_loop`'s run step: ``plan`` (``template_plan``
        bound) under the loop budget, or ``None`` for the pool."""
        if template.overran.get(mark) is template_plan:
            return None
        if not get_backend(plan.engine).warm(plan, database):
            return None
        t0 = time.perf_counter()
        try:
            with deadline_scope(LOOP_RUN_BUDGET):
                payload = self._payload(
                    plan, database, max_rows=LOOP_HIT_MAX_ROWS
                )
        except EvaluationTimeout:
            template.overran[mark] = template_plan
            METRICS.inc("service.inline_overruns")
            return None
        except Exception:  # the pool reports it
            return None
        finally:
            METRICS.add_time("service.exec_seconds", time.perf_counter() - t0)
        if payload is None:
            return None
        METRICS.inc("service.inline_runs")
        return ServiceResponse(ok=True, **payload)

    def submit(
        self,
        request: RunRequest,
        *,
        client: Any = None,
        weight: float = DEFAULT_WEIGHT,
    ) -> PendingRequest:
        """Queue a request for ``client`` and return a waitable handle.

        Jobs leave the queue in weighted fair order across clients
        (:class:`~repro.service.quota.FairQueue`).  Thread callers are
        the default client ``None``; the TCP server passes its
        connection's id, and such a submit never waits.  With
        ``max_pending`` requests queued, ``backpressure="reject"`` raises
        :class:`~repro.errors.QueueFullError` at once.  Under ``"block"``
        a thread caller waits for room — never past the request's own
        deadline (:class:`~repro.errors.EvaluationTimeout`) and never
        once the service closes (:class:`~repro.errors.
        ServiceClosedError`) — while a connection's request is queued up
        to a wider bound, past which it is refused as overloaded.
        """
        if self._closed:
            raise ServiceClosedError("service is draining or closed")
        timeout = (
            request.timeout if request.timeout is not None
            else self.config.default_timeout
        )
        deadline = Deadline(timeout) if timeout is not None else None
        job = PendingRequest(
            request, lambda: self._evaluate(request), deadline
        )
        METRICS.inc("service.requests")
        block = self.config.backpressure == "block" and client is None
        try:
            self._queue.put(
                job, client, weight,
                limit=(
                    self.config.max_pending if client is None
                    else self._loop_limit
                ),
                block=block,
                deadline=deadline,
            )
        except (QueueFullError, EvaluationTimeout):
            METRICS.inc("service.rejected")
            raise
        return job

    def forget_client(self, client: Any) -> None:
        """Drop a departed client's fair-queuing state."""
        self._queue.forget(client)

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
        for job in self._queue.close(drain):
            job.set_exception(
                ServiceClosedError("service shut down before execution")
            )
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
        """Service-level gauges, the counters of the service's result
        cache (``cache``) and of every cache by name (``caches``: the
        registered ones plus this service's three query-text maps), and
        ``fused_share``: the share of algebra-engine runs that ran the
        compiled closure (``codegen.runs`` over ``engine.algebra.runs``;
        the others were answered by a cache)."""
        snapshot = METRICS.snapshot()
        service_counters = {
            name: value
            for name, value in snapshot.items()
            if name.startswith(("service.", "delta."))
        }
        algebra_runs = snapshot.get("engine.algebra.runs", 0)
        with self._registry_lock:
            entries = list(self._databases.values())
        versions = {
            entry.name: {
                "head": entry.head.version,
                "retained": len(entry.versioned.versions()),
                "plan_epoch": entry.head.plan_epoch,
            }
            for entry in entries
        }
        out = {
            "workers": self.config.workers,
            "max_pending": self.config.max_pending,
            "backpressure": self.config.backpressure,
            **self._queue.stats(),
            "closed": self._closed,
            "databases": self.database_names(),
            "versions": versions,
            "templates": len(self._templates),
            "cache": self._cache.stats(),
            "caches": cache_stats() | {
                c.name: c.stats()
                for c in (self._templates, self._prepared, self._prepared_text)
            },
            "counters": service_counters,
            "fused_share": (
                snapshot.get("codegen.runs", 0) / algebra_runs
                if algebra_runs else 0.0
            ),
        }
        if self._coordinator is not None:
            out["sharding"] = self._coordinator.stats()
        if self._warm is not None:
            out["warmstart"] = self._warm.stats()
        return out

    # ------------------------------------------------------------- internals

    def _worker_loop(self) -> None:
        while (job := self._queue.get()) is not None:
            self._run_job(job)

    def _run_job(self, job: PendingRequest) -> None:
        job.started_at = time.monotonic()
        queue_wait = job.started_at - job.submitted_at
        METRICS.add_time("service.queue_wait_seconds", queue_wait)
        t0 = time.perf_counter()
        payload = error = None
        try:
            if job.abandoned:
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
        except BaseException as exc:  # never kill a worker on a bad request
            error = exc
            if job.abandoned and isinstance(
                exc, (EvaluationTimeout, RequestCancelledError)
            ):
                # In-flight cancellation surfaces as the expired deadline's
                # EvaluationTimeout; report it as what it was.
                METRICS.inc("service.cancelled")
                if isinstance(exc, EvaluationTimeout):
                    error = RequestCancelledError(
                        "request cancelled mid-execution (submitter "
                        "disconnected); partial work discarded"
                    )
            elif isinstance(exc, EvaluationTimeout):
                METRICS.inc("service.timeouts")
            else:
                METRICS.inc("service.errors")
        job.exec_seconds = time.perf_counter() - t0
        METRICS.add_time("service.exec_seconds", job.exec_seconds)
        if error is None:
            job.set_result(payload)
        else:
            job.set_exception(error)

    def _evaluate(self, request: RunRequest) -> dict:
        """Plan (cached) and execute one request on the worker thread."""
        if isinstance(request.query, PreparedQuery):
            prepared = request.query
        else:
            prepared = self.prepare(request.query, request.structure)
        entry = self._entry(request.database)
        plan = prepared.plan_for(entry, engine=request.engine,
                                 slack=request.slack)
        return self._payload(plan, entry.database, limit=request.limit)

    def _payload(
        self,
        plan: Plan,
        database: Database,
        limit: Optional[int] = None,
        max_rows: Optional[int] = None,
    ) -> Optional[dict]:
        """Execute ``plan`` and build the response fields: the one tail of
        a worker's run and an event-loop run, so both render the same
        frames.  With ``max_rows``, ``None`` unless the answer is a finite
        row set of at most that many rows."""
        result = execute_plan(plan, database, cache=self._cache)
        if max_rows is not None and (
            result.rows is None or len(result.rows) > max_rows
        ):
            return None
        finite = result.is_finite()
        if finite:
            rows = result.sorted_rows()
        elif limit is not None:
            rows = sorted(result.tuples(limit=limit))
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
