"""The NDJSON wire protocol: one JSON request per line, one response per line.

Every request is a JSON object with an ``"op"`` and an optional ``"id"``
(echoed verbatim on the response, so clients can pipeline).  Every
response is ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": {"code", "message", "retryable"}}``
on failure — the server never emits a traceback.

Who decides what
----------------

This module decides what a request *means*, for every transport: the op
table, the validation of each request field (``stream``, ``page_size``,
``weight``, ``limit``, ``timeout_ms``, ``prepared``, batch items), the
error shapes, and the ``row_batch``/``done`` framing.
:meth:`Dispatcher.step` turns one decoded request into either a finished
:class:`Reply` or a :class:`Work` — the :class:`RunRequest` objects the
request needs plus the function that renders their outcomes into frames
— and does no IO of its own.  :mod:`repro.service.server` only moves
requests: it reads and decodes lines, runs :class:`Work` on the worker
pool, and writes frames (plus, over TCP, quotas, fair queuing, and
disconnect cancellation).  :mod:`repro.service.client` speaks the
protocol from Python.

Operations
----------

``ping``
    ``{"op": "ping"}`` → ``{"pong": true, "version": 1}``.
``register_db``
    ``{"op": "register_db", "name": "main", "db": {"alphabet": "01",
    "relations": {"R": [["0110"], ["001"]]}}}`` → the fingerprint.  Same
    JSON shape as ``--db`` files.  An optional ``"schema"`` object
    (``{"T": 2}``) pins relation arities — without it an *empty*
    relation defaults to arity 1, which matters for shard partitions
    where a relation can be empty on one worker but binary on another.
``unregister_db``
    ``{"op": "unregister_db", "name": "main"}`` → ``{"name": ...,
    "removed": true|false}`` — drops the name from the registry (and,
    under sharding, its partitions and routes).
``list_dbs``
    → ``{"databases": [...]}``.
``insert`` / ``delete``
    ``{"op": "insert", "db": "main", "relation": "R", "rows": [["01"],
    ["0110"]]}`` → the new head version summary (``version``,
    ``fingerprint``, ``tuples``, ``plan_epoch``).
    Deltas are O(|delta|): the registered snapshot evolves through the
    MVCC delta store (:mod:`repro.delta`), in-flight queries keep their
    pinned snapshot, caches are maintained incrementally, and prepared
    queries re-plan only when the schema or active domain shifted
    (``plan_epoch``).  ``insert`` into an unknown relation extends the
    schema; ``delete`` from one is an error.
``db_versions``
    ``{"op": "db_versions", "name": "main"}`` → ``{"versions": [...]}``
    — retained version summaries, oldest first.
``prepare``
    ``{"op": "prepare", "query": "R(x)", "structure": "S"}`` → a handle id
    (``{"prepared": "p1", ...}``) usable in later ``run``/``batch`` items,
    plus the ``template`` the query runs as and its ``values``.
``explain``
    A ``run`` body with ``"op": "explain"`` → ``{"explain": {...}}``: the
    query's EXPLAIN report (plan, annotated tree, counters of the run),
    with its ``template`` — the template text, its fingerprint and the
    bound values.
``run``
    ``{"op": "run", "query": "R(x)", "db": "main"}`` (or ``"prepared":
    "p1"`` instead of ``"query"``) plus optional ``structure``, ``engine``,
    ``slack``, ``limit``, and ``timeout_ms`` — the per-request deadline,
    counted from admission.  → columns/rows/engine/finite + timings.

    With ``"stream": true`` the answer is **paginated** instead of one
    giant line: the server emits zero or more ``row_batch`` frames
    followed by exactly one terminal ``done`` frame, every frame echoing
    the request ``id``::

        {"id": 7, "frame": "row_batch", "seq": 0, "columns": ["x"],
         "rows": [["001"], ["01"]]}
        {"id": 7, "frame": "row_batch", "seq": 1, "rows": [["0110"]]}
        {"id": 7, "frame": "done", "ok": true, "row_count": 3,
         "batches": 2, "engine": "automata", "finite": true,
         "queue_ms": 0.1, "exec_ms": 2.3}

    ``page_size`` caps rows per frame (default: the service's
    ``stream_page_size``); ``columns`` rides only on the first frame.
    Failures skip straight to a ``done`` frame with ``"ok": false`` and
    the structured error.  Frames for one request are contiguous — the
    NDJSON stream never interleaves two answers — and a client that
    disconnects mid-stream has its request cancelled cooperatively
    server-side.  ``stream`` is not accepted inside ``batch`` items.
``batch``
    ``{"op": "batch", "requests": [<run bodies>]}`` — items fan out
    across the worker pool concurrently; the ``results`` list keeps
    request order and holds one per-item response body each (a malformed
    or rejected item gets a structured error in its slot).
``stats``
    → ``{"stats": {...}}`` (workers, queue depth, cache + service counters).
``shutdown``
    ``{"op": "shutdown", "drain": true}`` — acknowledge, then stop the
    server; ``drain`` decides whether queued requests finish or fail.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.core.query import StringDatabase
from repro.engine.metrics import METRICS
from repro.errors import ServiceError
from repro.service.service import (
    PreparedQuery,
    QueryService,
    RunRequest,
    ServiceResponse,
    classify_error,
)

__all__ = [
    "Dispatcher",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Reply",
    "Work",
    "error_reply",
    "not_json",
    "stream_frames",
]

PROTOCOL_VERSION = 1

#: The ops whose answer needs the worker pool; :meth:`Dispatcher.step`
#: turns them into :class:`Work`, every other op into a :class:`Reply`.
QUERY_OPS = ("run", "batch")


class ProtocolError(ServiceError):
    """A request line the protocol cannot make sense of (not retryable)."""


@dataclass
class Reply:
    """A finished answer: the frames to write, and whether to stop serving."""

    frames: list[dict]
    shutdown: bool = False


@dataclass
class Work:
    """A query op that needs the worker pool.

    ``render`` takes one outcome per request, in order — the
    :class:`ServiceResponse` of a request that ran, or the exception that
    kept it from being admitted — and returns the frames to write.
    ``weight`` is the request's fair-queuing weight and ``cost`` its quota
    charge (one token per batch item); only the TCP server uses them.
    """

    request_id: Any
    requests: list[RunRequest]
    render: Callable[[list], list[dict]]
    streaming: bool = False
    weight: float = 1.0
    cost: float = 1.0

    def reject(self, exc: Exception, **extra: Any) -> list[dict]:
        """The frames refusing the whole request before it ran."""
        return [error_reply(self.request_id, exc, self.streaming, **extra)]


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ProtocolError(f'request needs a string "{key}" field')
    return value


def _optional_number(obj: dict, key: str) -> Optional[float]:
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f'"{key}" must be a number')
    return float(value)


def _weight(obj: dict) -> float:
    weight = obj.get("weight")
    if weight is None:
        return 1.0
    if (
        isinstance(weight, bool)
        or not isinstance(weight, (int, float))
        or weight <= 0
    ):
        raise ProtocolError('"weight" must be a positive number')
    return float(weight)


def _error_body(exc: BaseException) -> dict:
    return {"ok": False, "error": classify_error(exc).to_dict()}


def error_reply(
    request_id: Any, exc: BaseException, streaming: bool = False, **extra: Any
) -> dict:
    """The structured-error line of a request that failed as a whole — the
    terminal ``done`` frame when the client asked to stream."""
    if streaming:
        response = ServiceResponse(ok=False, error=classify_error(exc))
        reply = stream_frames(request_id, response, 1)[0]
    else:
        reply = {"id": request_id, **_error_body(exc)}
    reply.update(extra)
    return reply


def not_json(exc: json.JSONDecodeError) -> Reply:
    """The answer to a request line that does not decode as JSON."""
    error = ProtocolError(f"request is not valid JSON: {exc}")
    return Reply([error_reply(None, error)])


def stream_frames(
    request_id: Any, response: ServiceResponse, page_size: int
) -> list[dict]:
    """Slice one finished response into its streamed wire frames.

    Shared by every transport (sync stdio, asyncio TCP): ``row_batch``
    frames of at most ``page_size`` rows — at least one even for empty
    answers, so clients always learn the columns — then the terminal
    ``done`` frame carrying the summary (or, on failure, just the
    ``done`` frame with the structured error).
    """
    timings = {
        "queue_ms": round(response.queue_seconds * 1000, 3),
        "exec_ms": round(response.exec_seconds * 1000, 3),
    }
    if not response.ok:
        assert response.error is not None
        return [{
            "id": request_id,
            "frame": "done",
            "ok": False,
            "error": response.error.to_dict(),
            **timings,
        }]
    rows = response.rows or []
    frames: list[dict] = []
    for seq, start in enumerate(range(0, len(rows), page_size) or (0,)):
        frame: dict[str, Any] = {
            "id": request_id,
            "frame": "row_batch",
            "seq": seq,
            "rows": rows[start:start + page_size],
        }
        if seq == 0:
            frame["columns"] = response.columns
        frames.append(frame)
    frames.append({
        "id": request_id,
        "frame": "done",
        "ok": True,
        "row_count": len(rows),
        "batches": len(frames),
        "engine": response.engine,
        "finite": response.finite,
        **timings,
    })
    return frames


class Dispatcher:
    """Maps decoded protocol requests onto a :class:`QueryService`.

    One dispatcher serves a whole server (all TCP connections share it),
    so prepared-query handles are registered under a locked counter and a
    handle created on one connection is usable from another.
    """

    def __init__(self, service: QueryService, allow_shutdown: bool = True):
        self.service = service
        self.allow_shutdown = allow_shutdown
        self.shutdown_drain = True
        self._prepared: dict[str, PreparedQuery] = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------- plumbing

    def step(self, obj: Any) -> Union[Reply, Work]:
        """Decide what one decoded request means; never raises, does no IO.

        ``run`` and ``batch`` become :class:`Work` (or an error
        :class:`Reply` when a field is invalid); every other op is
        answered on the spot through :meth:`handle`.
        """
        op = obj.get("op") if isinstance(obj, dict) else None
        if op not in QUERY_OPS:
            response, shutdown = self.handle(obj)
            return Reply([response], shutdown)
        streaming = op == "run" and bool(obj.get("stream"))
        try:
            return self._run(obj, streaming) if op == "run" else self._batch(obj)
        except Exception as exc:
            return Reply([error_reply(obj.get("id"), exc, streaming)])

    def handle(self, obj: Any) -> tuple[dict, bool]:
        """Answer one decoded control op (anything but ``run``/``batch``);
        never raises.  Returns the response and a shutdown flag."""
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            if not isinstance(obj, dict):
                raise ProtocolError("request must be a JSON object")
            op = obj.get("op")
            if not isinstance(op, str):
                raise ProtocolError('request needs a string "op" field')
            if op in QUERY_OPS:
                raise ProtocolError(f"{op!r} needs the worker pool; use step()")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                known = sorted(
                    [name[4:] for name in dir(self) if name.startswith("_op_")]
                    + list(QUERY_OPS)
                )
                raise ProtocolError(
                    f"unknown op {op!r} (known: {', '.join(known)})"
                )
            body, shutdown = handler(obj)
        except Exception as exc:
            body, shutdown = _error_body(exc), False
        response = {"id": request_id}
        response.update(body)
        response.setdefault("ok", True)
        return response, shutdown

    # ------------------------------------------------------------ query ops

    def _run(self, obj: dict, streaming: bool) -> Work:
        request_id = obj.get("id")
        page_size = self._page_size(obj) if streaming else 0
        request = self._request_from(obj)
        weight = _weight(obj)

        def render(outcomes: list) -> list[dict]:
            (outcome,) = outcomes
            if isinstance(outcome, Exception):
                return [error_reply(request_id, outcome, streaming)]
            if streaming:
                METRICS.inc("service.streams")
                return stream_frames(request_id, outcome, page_size)
            return [{"id": request_id, **outcome.to_dict()}]

        return Work(request_id, [request], render, streaming, weight)

    def _batch(self, obj: dict) -> Work:
        request_id = obj.get("id")
        items = obj.get("requests")
        if not isinstance(items, list):
            raise ProtocolError('"requests" must be a list of run bodies')
        weight = _weight(obj)
        METRICS.inc("service.batches")
        # Malformed items get a structured error in their slot; the
        # well-formed rest still fans out across the pool together.
        slots: list[Any] = []
        for item in items:
            try:
                if not isinstance(item, dict):
                    raise ProtocolError("batch items must be objects")
                if item.get("stream"):
                    raise ProtocolError(
                        '"stream" is not supported inside batch items; '
                        "issue separate streamed run ops"
                    )
                slots.append(self._request_from(item))
            except Exception as exc:
                slots.append(_error_body(exc))

        def render(outcomes: list) -> list[dict]:
            pending = iter(outcomes)
            results = []
            for slot in slots:
                if isinstance(slot, RunRequest):
                    outcome = next(pending)
                    slot = (
                        _error_body(outcome) if isinstance(outcome, Exception)
                        else outcome.to_dict()
                    )
                results.append(slot)
            return [{"id": request_id, "ok": True, "results": results}]

        requests = [slot for slot in slots if isinstance(slot, RunRequest)]
        return Work(
            request_id, requests, render,
            weight=weight, cost=float(max(1, len(items))),
        )

    def _page_size(self, obj: dict) -> int:
        """The validated ``page_size`` of a streamed run (service default
        when absent); also validates the ``stream`` flag itself."""
        if not isinstance(obj.get("stream"), bool):
            raise ProtocolError('"stream" must be a boolean')
        page_size = obj.get("page_size")
        if page_size is None:
            return self.service.config.stream_page_size
        if (
            isinstance(page_size, bool)
            or not isinstance(page_size, int)
            or page_size < 1
        ):
            raise ProtocolError('"page_size" must be a positive integer')
        return page_size

    def _request_from(self, obj: dict) -> RunRequest:
        if "prepared" in obj:
            pid = _require_str(obj, "prepared")
            with self._lock:
                query = self._prepared.get(pid)
            if query is None:
                raise ProtocolError(f"unknown prepared query {pid!r}")
        else:
            query = _require_str(obj, "query")
        timeout_ms = _optional_number(obj, "timeout_ms")
        limit = obj.get("limit")
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
            raise ProtocolError('"limit" must be an integer')
        return RunRequest(
            query=query,
            database=_require_str(obj, "db"),
            structure=obj.get("structure", "S"),
            engine=obj.get("engine"),
            slack=obj.get("slack"),
            limit=limit,
            timeout=timeout_ms / 1000.0 if timeout_ms is not None else None,
        )

    # ---------------------------------------------------------- control ops

    def _op_ping(self, obj: dict) -> tuple[dict, bool]:
        return {"pong": True, "version": PROTOCOL_VERSION}, False

    def _op_register_db(self, obj: dict) -> tuple[dict, bool]:
        name = _require_str(obj, "name")
        spec = obj.get("db")
        if not isinstance(spec, dict):
            raise ProtocolError(
                '"db" must be an object {"alphabet": ..., "relations": ...}'
            )
        relations_spec = spec.get("relations", {})
        if not isinstance(relations_spec, dict):
            raise ProtocolError('"relations" must map names to row lists')
        relations = {}
        for rel, rows in relations_spec.items():
            if not isinstance(rows, list):
                raise ProtocolError(f"relation {rel!r} must be a list of rows")
            relations[rel] = [
                (row,) if isinstance(row, str) else tuple(row) for row in rows
            ]
        schema_spec = spec.get("schema")
        schema = None
        if schema_spec is not None:
            from repro.database.schema import Schema

            if not isinstance(schema_spec, dict) or not all(
                isinstance(a, int) and not isinstance(a, bool)
                for a in schema_spec.values()
            ):
                raise ProtocolError(
                    '"schema" must map relation names to integer arities'
                )
            schema = Schema(schema_spec)
        db = StringDatabase(spec.get("alphabet", "01"), relations, schema=schema)
        fingerprint = self.service.register_database(name, db)
        return {"name": name, "fingerprint": fingerprint}, False

    def _op_unregister_db(self, obj: dict) -> tuple[dict, bool]:
        name = _require_str(obj, "name")
        removed = self.service.unregister_database(name)
        return {"name": name, "removed": removed}, False

    def _op_list_dbs(self, obj: dict) -> tuple[dict, bool]:
        return {"databases": self.service.database_names()}, False

    def _op_insert(self, obj: dict) -> tuple[dict, bool]:
        return self._delta_op(obj, "insert")

    def _op_delete(self, obj: dict) -> tuple[dict, bool]:
        return self._delta_op(obj, "delete")

    def _delta_op(self, obj: dict, op: str) -> tuple[dict, bool]:
        name = _require_str(obj, "db")
        relation = _require_str(obj, "relation")
        rows_spec = obj.get("rows")
        if not isinstance(rows_spec, list):
            raise ProtocolError('"rows" must be a list of rows')
        rows = [
            (row,) if isinstance(row, str) else tuple(row) for row in rows_spec
        ]
        if op == "insert":
            head = self.service.insert_rows(name, relation, rows)
        else:
            head = self.service.delete_rows(name, relation, rows)
        # A delta that changed nothing returns the unchanged head — the
        # client sees the same version number as before.
        return {
            "name": name,
            "version": head.version,
            "fingerprint": head.fingerprint,
            "tuples": head.database.size,
            "plan_epoch": head.plan_epoch,
        }, False

    def _op_db_versions(self, obj: dict) -> tuple[dict, bool]:
        name = _require_str(obj, "name")
        return {
            "name": name,
            "versions": self.service.database_versions(name),
        }, False

    def _op_prepare(self, obj: dict) -> tuple[dict, bool]:
        query = _require_str(obj, "query")
        structure = obj.get("structure", "S")
        handle = self.service.prepare(query, structure)
        with self._lock:
            pid = f"p{next(self._counter)}"
            self._prepared[pid] = handle
        return {
            "prepared": pid,
            "variables": sorted(handle.template.formula.free_variables()),
            "template": str(handle.template.formula),
            "values": list(handle.values),
        }, False

    def _op_explain(self, obj: dict) -> tuple[dict, bool]:
        request = self._request_from(obj)
        report = self.service.explain(
            request.query,
            request.database,
            structure=request.structure,
            engine=request.engine,
            slack=request.slack,
        )
        return {"explain": report.to_dict()}, False

    def _op_stats(self, obj: dict) -> tuple[dict, bool]:
        return {"stats": self.service.stats()}, False

    def _op_shutdown(self, obj: dict) -> tuple[dict, bool]:
        if not self.allow_shutdown:
            raise ProtocolError("shutdown is disabled on this server")
        self.shutdown_drain = bool(obj.get("drain", True))
        return {"closing": True, "drain": self.shutdown_drain}, True
