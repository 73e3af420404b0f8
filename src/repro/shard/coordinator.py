"""The shard coordinator: decompose, scatter, gather, merge.

:class:`ShardCoordinator` owns a :class:`~repro.shard.pool.WorkerPool`
and the placement of every registered database's partitions on it.  For
each query it asks :func:`repro.algebra.distribute.analyze` how the
plan decomposes and executes accordingly:

``scatter``
    The query runs on **every** shard against its partition; the
    coordinator unions the row sets (dedup is free: rows are sets) and
    asserts the shards agreed on the output columns.

``route``
    Every relation the plan reads lives whole on one shard (by-relation
    partitioning, or a database-free query) — the query runs on that
    single worker, no merge needed.

``single``
    No distributivity certificate: the query runs against a lazily
    registered **full copy** of the database on worker 0.  Sharding
    never changes an answer; it only changes who computes it.

Failure semantics: a shard that is unreachable, dies mid-request, or
misses its per-shard deadline gets **one** retry — the coordinator
restarts the worker process, re-registers its partitions, and resends.
A second failure (or a structured error from the shard's own service
layer) raises :class:`~repro.errors.ShardError`; the gather never
silently drops a shard's rows.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.algebra.distribute import Decomposition, analyze
from repro.core.query import StringDatabase
from repro.database.instance import Database
from repro.engine.deadline import remaining as deadline_remaining
from repro.engine.metrics import METRICS
from repro.errors import ShardError
from repro.shard.partition import SCHEMES, ShardedDatabase, shard_database
from repro.shard.pool import ShardWorker, WorkerPool, gather_all

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.planner import Plan

__all__ = ["GatherResult", "ShardCoordinator"]

#: Grace period (seconds) added to the coordinator-side wait on top of
#: the per-shard deadline: the worker enforces the deadline itself and
#: answers with a structured timeout, which carries more information
#: than a coordinator-side straggler kill; the straggler path is for
#: workers too wedged to answer at all.
STRAGGLER_GRACE = 2.0

#: Coordinator-side wait when the request carries no deadline at all —
#: a liveness backstop, generous enough for any benchmarked workload.
DEFAULT_SHARD_WAIT = 600.0


class GatherResult:
    """What a merged execution returns to the backend."""

    __slots__ = ("columns", "rows", "decomposition", "shard_reports")

    def __init__(self, columns, rows, decomposition, shard_reports):
        self.columns: tuple[str, ...] = columns
        self.rows: frozenset[tuple[str, ...]] = rows
        self.decomposition: Decomposition = decomposition
        #: One dict per participating shard: index, rows, exec_ms,
        #: queue_ms, engine, retried.
        self.shard_reports: list[dict] = shard_reports


class ShardCoordinator:
    """Partition registry + scatter-gather execution over a worker pool."""

    def __init__(
        self,
        shards: int = 4,
        scheme: str = "hash",
        request_timeout: Optional[float] = None,
        worker_engine: Optional[str] = None,
    ):
        if scheme not in SCHEMES:
            raise ShardError(
                f"unknown partitioning scheme {scheme!r} "
                f"(supported: {', '.join(SCHEMES)})",
                retryable=False,
            )
        self.scheme = scheme
        self.request_timeout = request_timeout
        #: Normally ``None`` — each worker's own planner picks the best
        #: engine for its partition.  Pinning it (e.g. ``"direct"``) makes
        #: every shard use one engine; the benchmark uses this for a
        #: controlled same-engine comparison.
        self.worker_engine = worker_engine
        self.pool = WorkerPool(shards)
        self._databases: dict[str, ShardedDatabase] = {}
        #: Database names whose full copy is registered on worker 0
        #: (cleared when worker 0 restarts).
        self._full_registered: set[str] = set()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- registry

    @property
    def shards(self) -> int:
        return len(self.pool)

    def database_names(self) -> list[str]:
        with self._lock:
            return sorted(self._databases)

    def get(self, name: str) -> Optional[ShardedDatabase]:
        with self._lock:
            return self._databases.get(name)

    def register_database(
        self, name: str, database: Union[Database, StringDatabase]
    ) -> ShardedDatabase:
        """Partition ``database``, push each part to its worker, and place
        the snapshot on this coordinator (the planner's ``sharded``
        backend becomes eligible for it).

        The placement is set on the :class:`~repro.delta.VersionedDatabase`
        that made the snapshot; a plain :class:`Database` is first
        wrapped in a new one.  Query the returned ``database``: that
        snapshot, and the versions :meth:`apply_delta` evolves from it,
        are the ones that route here."""
        from repro.delta import VersionedDatabase, store_of

        self._check_open()
        if "@" in name:
            # "@" is reserved for coordinator-internal worker-side names
            # (the single-shard fallback registers the full database as
            # "<name>@full" on worker 0); allowing it would let a user
            # database collide with a fallback copy.
            raise ShardError(
                f"invalid database name {name!r}: '@' is reserved for "
                "coordinator-internal names",
                retryable=False,
            )
        db = database.db if isinstance(database, StringDatabase) else database
        store = store_of(db)
        if store is None:
            store = VersionedDatabase(db)
            db = store.head.database
        sharded = shard_database(name, db, self.shards, self.scheme)
        futures = {
            i: self.pool.worker(i).submit(
                self._register_body(name, sharded.parts[i])
            )
            for i in range(self.shards)
        }
        for i, response in gather_all(futures, START_UP_WAIT).items():
            if isinstance(response, ShardError):
                raise response
            if not response.get("ok"):
                raise ShardError(
                    f"shard {i} rejected partition of {name!r}: "
                    f"{response.get('error', {}).get('message', response)}",
                    retryable=False, shard=i,
                )
        with self._lock:
            self._databases[name] = sharded
            # The fallback copy (if any) described the previous content;
            # the next single-mode query re-registers it lazily.
            self._full_registered.discard(name)
        store.placement = (self, sharded)
        METRICS.inc("shard.databases_registered")
        return sharded

    def unregister_database(self, name: str) -> bool:
        """Drop ``name``: forget its partitions (its snapshot stops
        routing here) and tell every worker to drop its part (and the
        worker-0 full copy).  Returns whether the name was registered."""
        self._check_open()
        with self._lock:
            if self._databases.pop(name, None) is None:
                return False
            self._full_registered.discard(name)
        futures = {
            i: self.pool.worker(i).submit({"op": "unregister_db", "name": name})
            for i in range(self.shards)
        }
        futures["full"] = self.pool.worker(0).submit(
            {"op": "unregister_db", "name": f"{name}@full"}
        )
        # Best-effort: a dead worker's copy dies with its process.
        gather_all(futures, START_UP_WAIT)
        METRICS.inc("shard.databases_unregistered")
        return True

    def apply_delta(
        self, name: str, delta, new_database: Database
    ) -> ShardedDatabase:
        """Forward one row delta to the **owning** shards — no re-scatter.

        ``delta`` is an effective :class:`~repro.delta.Delta` and
        ``new_database`` the already-evolved whole snapshot, made by the
        store holding this name's placement.  Rows are split
        with the same deterministic partitioners registration used, so
        only shards that actually own changed rows see any traffic; each
        one gets ``insert``/``delete`` protocol ops and evolves its
        worker-side partition through its own delta store.  Deltas that
        add relations must go through :meth:`register_database` instead
        (new relations need a placement decision).

        The placement moves to ``new_database``: a pre-delta snapshot no
        longer routes, so auto planning answers it in process and a
        sharded plan pinned to it fails with a structured routing error
        rather than silently answering from post-delta partitions.
        """
        import dataclasses

        from repro.delta.store import (
            chained_fingerprint,
            evolve_database,
            store_of,
        )
        from repro.engine.cache import database_fingerprint
        from repro.shard.partition import shard_of_relation, shard_of_row

        self._check_open()
        with self._lock:
            sharded = self._databases.get(name)
        if sharded is None:
            raise ShardError(
                f"unknown sharded database {name!r}", retryable=False
            )
        shards = self.shards

        def owner(relation: str, row: tuple[str, ...]) -> int:
            if self.scheme == "hash":
                return shard_of_row(row, shards)
            if sharded.relation_shards is not None:
                return sharded.relation_shards[relation]
            return shard_of_relation(relation, shards)

        per_ins: list[dict[str, set]] = [dict() for _ in range(shards)]
        per_del: list[dict[str, set]] = [dict() for _ in range(shards)]
        for split, changes in ((per_ins, delta.inserts), (per_del, delta.deletes)):
            for relation, rows in changes:
                for row in rows:
                    split[owner(relation, row)].setdefault(relation, set()).add(row)

        # Pipelined forward: every owning shard's ops are on the wire
        # before the first acknowledgement is awaited.
        futures = {}
        for i in range(shards):
            for op, split in (("insert", per_ins[i]), ("delete", per_del[i])):
                for relation, rows in sorted(split.items()):
                    body = {
                        "op": op,
                        "db": name,
                        "relation": relation,
                        "rows": sorted(list(row) for row in rows),
                    }
                    futures[i, op, relation] = self.pool.worker(i).submit(body)
                    METRICS.inc("delta.shard_forwards")
        for (i, _op, _rel), response in gather_all(
            futures, START_UP_WAIT
        ).items():
            if isinstance(response, ShardError):
                raise response
            if not response.get("ok"):
                raise ShardError(
                    f"shard {i} rejected delta for {name!r}: "
                    f"{response.get('error', {}).get('message', response)}",
                    retryable=False, shard=i,
                )

        # Evolve the coordinator-side parts to match (shared frozensets,
        # chained part fingerprints: O(|delta|), no part rehashing).
        parts = list(sharded.parts)
        part_fps = list(sharded.part_fingerprints)
        digest = delta.digest()
        for i in range(shards):
            if not per_ins[i] and not per_del[i]:
                continue
            part_fps[i] = chained_fingerprint(part_fps[i], digest)
            parts[i] = evolve_database(
                parts[i],
                {r: frozenset(rows) for r, rows in per_ins[i].items()},
                {r: frozenset(rows) for r, rows in per_del[i].items()},
                fingerprint=part_fps[i],
            )
        new_fingerprint = database_fingerprint(new_database)
        evolved = dataclasses.replace(
            sharded,
            database=new_database,
            fingerprint=new_fingerprint,
            parts=tuple(parts),
            part_fingerprints=tuple(part_fps),
        )
        with self._lock:
            self._databases[name] = evolved
            # The worker-0 full copy (if any) predates the delta.
            self._full_registered.discard(name)
        store_of(new_database).placement = (self, evolved)
        METRICS.inc("shard.deltas_forwarded")
        return evolved

    @staticmethod
    def _register_body(name: str, part: Database) -> dict:
        schema = {
            rel: part.schema.arity(rel) for rel in part.schema.relation_names
        }
        return {
            "op": "register_db",
            "name": name,
            "db": {
                "alphabet": "".join(part.alphabet.symbols),
                "relations": {
                    rel: sorted(list(row) for row in part.relation(rel))
                    for rel in part.relation_names
                },
                "schema": schema,
            },
        }

    # ------------------------------------------------------------ execution

    def execute(
        self,
        sharded: ShardedDatabase,
        plan: "Plan",
        timeout: Optional[float] = None,
    ) -> GatherResult:
        """Decompose ``plan`` and run it across the pool (see class doc)."""
        self._check_open()
        decomposition = analyze(
            plan.formula,
            plan.structure,
            sharded.database,
            plan.slack,
            relation_shards=(
                sharded.relation_shards if self.scheme == "relation" else None
            ),
        )
        t0 = time.perf_counter()
        try:
            if decomposition.mode == "scatter":
                METRICS.inc("shard.scatters")
                targets = list(range(self.shards))
                result = self._run_on(
                    sharded, plan, targets, sharded.name, decomposition, timeout
                )
            elif decomposition.mode == "route":
                METRICS.inc("shard.routes")
                shard = decomposition.shard or 0
                result = self._run_on(
                    sharded, plan, [shard], sharded.name, decomposition, timeout
                )
            else:
                METRICS.inc("shard.fallbacks")
                full_name = self._ensure_full_copy(sharded)
                result = self._run_on(
                    sharded, plan, [0], full_name, decomposition, timeout
                )
        except ShardError:
            METRICS.inc("shard.failures")
            raise
        finally:
            METRICS.add_time("shard.gather_seconds", time.perf_counter() - t0)
        METRICS.inc("shard.rows_merged", len(result.rows))
        return result

    def _run_on(
        self,
        sharded: ShardedDatabase,
        plan: "Plan",
        targets: list[int],
        db_name: str,
        decomposition: Decomposition,
        timeout: Optional[float],
    ) -> GatherResult:
        budget = self._budget(timeout)
        body = {
            "op": "run",
            "query": str(plan.formula),
            "db": db_name,
            "structure": plan.structure.name,
            "slack": plan.slack,
        }
        if self.worker_engine is not None:
            body["engine"] = self.worker_engine
        if budget is not None:
            body["timeout_ms"] = budget * 1000.0
        wait = (
            budget + STRAGGLER_GRACE if budget is not None else DEFAULT_SHARD_WAIT
        )
        # Pipelined scatter: every request is on the wire before the
        # first gather blocks, so shard processes overlap fully.
        futures = {}
        responses: dict[int, Any] = {}
        for i in targets:
            try:
                futures[i] = self.pool.worker(i).submit(body)
            except ShardError as exc:
                responses[i] = exc
        # Concurrent gather under ONE shared budget: the slowest shard
        # bounds the wall clock, not the sum of per-shard waits.
        responses.update(gather_all(futures, wait))
        # One retry round, itself concurrent: restart every failed slot,
        # re-register its partitions, resend them all, gather again with
        # whatever budget remains.  A shard that fails its retry raises.
        retried_shards = {
            i for i in targets if isinstance(responses[i], ShardError)
        }
        if retried_shards:
            for i in sorted(retried_shards):
                METRICS.inc("shard.retries")
                self._restart_and_reload(i)
            retry_budget = self._budget(timeout)
            retry_body = dict(body)
            if retry_budget is not None:
                retry_body["timeout_ms"] = retry_budget * 1000.0
            retry_wait = (
                retry_budget + STRAGGLER_GRACE
                if retry_budget is not None else DEFAULT_SHARD_WAIT
            )
            retry_futures = {
                i: self.pool.worker(i).submit(retry_body)
                for i in sorted(retried_shards)
            }
            for i, outcome in gather_all(retry_futures, retry_wait).items():
                if isinstance(outcome, ShardError):
                    raise outcome
                responses[i] = outcome
        reports: list[dict] = []
        merged: set[tuple[str, ...]] = set()
        columns: Optional[tuple[str, ...]] = None
        for i in targets:
            retried = i in retried_shards
            response = responses[i]
            if not response.get("ok"):
                error = response.get("error", {})
                raise ShardError(
                    f"shard {i} failed: {error.get('message', response)}",
                    retryable=bool(error.get("retryable", False)),
                    shard=i,
                )
            if not response.get("finite", True):
                raise ShardError(
                    f"shard {i} reported an infinite result; a sharded "
                    "merge cannot union samples soundly",
                    retryable=False, shard=i,
                )
            shard_columns = tuple(response.get("columns") or ())
            if columns is None:
                columns = shard_columns
            elif columns != shard_columns:
                raise ShardError(
                    f"shard {i} answered columns {list(shard_columns)} "
                    f"but shard {targets[0]} answered {list(columns)}",
                    retryable=False, shard=i,
                )
            rows = [tuple(row) for row in response.get("rows") or []]
            merged.update(rows)
            reports.append({
                "shard": i,
                "rows": len(rows),
                "exec_ms": response.get("exec_ms"),
                "queue_ms": response.get("queue_ms"),
                "engine": response.get("engine"),
                "retried": retried,
            })
        assert columns is not None  # targets is never empty
        return GatherResult(columns, frozenset(merged), decomposition, reports)

    # -------------------------------------------------------------- helpers

    def _budget(self, timeout: Optional[float]) -> Optional[float]:
        """Per-shard deadline: the explicit timeout, else the remaining
        budget of the caller's ambient deadline scope, else the
        coordinator default.  Shards run in parallel, so each gets the
        full remaining budget, not a fraction."""
        if timeout is not None:
            return timeout
        ambient = deadline_remaining()
        if ambient is not None:
            return max(ambient, 0.001)
        return self.request_timeout

    def _ensure_full_copy(self, sharded: ShardedDatabase) -> str:
        """Register the whole database on worker 0 (idempotent, lazy).

        ``register_database`` rejects ``@`` in user names, so the
        ``<name>@full`` worker-side name can never collide with a
        registered database's shard-0 partition."""
        full_name = f"{sharded.name}@full"
        with self._lock:
            have = sharded.name in self._full_registered
        if not have:
            response = self.pool.worker(0).request(
                self._register_body(full_name, sharded.database),
                START_UP_WAIT,
            )
            if not response.get("ok"):
                raise ShardError(
                    f"worker 0 rejected the full copy of {sharded.name!r}: "
                    f"{response}", shard=0,
                )
            with self._lock:
                self._full_registered.add(sharded.name)
        return full_name

    def _restart_and_reload(self, shard: int) -> None:
        """Fresh process for ``shard`` + re-register its partitions."""
        self.pool.restart(shard)
        if shard == 0:
            with self._lock:
                self._full_registered.clear()
        with self._lock:
            databases = list(self._databases.items())
        for name, sharded in databases:
            response = self.pool.worker(shard).request(
                self._register_body(name, sharded.parts[shard]),
                START_UP_WAIT,
            )
            if not response.get("ok"):
                raise ShardError(
                    f"restarted shard {shard} rejected partition of "
                    f"{name!r}: {response}", shard=shard,
                )

    def _check_open(self) -> None:
        if self._closed:
            raise ShardError("shard coordinator is closed", retryable=False)

    # ------------------------------------------------------------ lifecycle

    def stats(self) -> dict:
        """Topology + placement + ``shard.*`` counters (for ``stats`` ops)."""
        snapshot = METRICS.snapshot()
        with self._lock:
            databases = {
                name: {
                    "scheme": sharded.scheme,
                    "partition_sizes": sharded.part_sizes(),
                    "fingerprint": sharded.fingerprint,
                }
                for name, sharded in self._databases.items()
            }
        return {
            "shards": self.shards,
            "scheme": self.scheme,
            "alive": [w.alive for w in self.pool.workers],
            "databases": databases,
            "counters": {
                name: value for name, value in snapshot.items()
                if name.startswith("shard.")
            },
        }

    def close(self) -> None:
        """Stop the pool; no snapshot routes here any more."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._databases.clear()
        self.pool.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Wait (seconds) on registration/administrative round trips.
START_UP_WAIT = 60.0
