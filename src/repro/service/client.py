"""NDJSON-over-TCP clients for the query service: sync facade + asyncio.

:class:`ServiceClient` is the blocking client used by the tests and
``benchmarks/bench_service.py`` — also a reference for speaking the
protocol from anything that can write JSON lines to a socket.  One
client holds one connection and runs one request at a time (a lock
serializes callers); open several clients for concurrency — the server
multiplexes them onto its single worker pool.

Every read is bounded by a **read deadline** (``read_timeout``, falling
back to the connect ``timeout``): a hung or wedged server raises the
structured, retryable :class:`~repro.errors.ClientReadTimeoutError`
instead of blocking the caller forever.  After a read timeout the
connection is desynchronized (a late response line would answer the
wrong request), so the client closes it and refuses further use — open a
fresh client to retry.

:class:`AsyncServiceClient` is the asyncio sibling for callers already
on an event loop (and for the concurrent-client benchmark): the same
verbs, written once, ``await``-shaped; hundreds of instances multiplex
on one loop without threads.

Usage::

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", port) as client:
        client.register_db("main", "01", {"R": [["0110"], ["001"]]})
        resp = client.run("R(x) & last(x, '0')", db="main", timeout_ms=500)
        resp["ok"], resp["rows"]        # True, [["0110"]]
        for frame in client.run_stream("R(x)", db="main", page_size=100):
            ...                         # row_batch frames, then done
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading
from typing import Any, AsyncIterator, Iterator, Optional

from repro.errors import ClientReadTimeoutError, ServiceError

__all__ = ["AsyncServiceClient", "ServiceClient"]

#: Per-line read limit for the asyncio client (mirrors the server's:
#: a large answer frame must not trip asyncio's 64 KiB default).
_READ_LIMIT = 16 * 1024 * 1024

#: ``read_timeout`` not given: reads are bounded by the connect timeout.
_UNSET: Any = object()


def _run_body(
    query: Optional[str], db: str, prepared: Optional[str], options: dict
) -> dict:
    body: dict[str, Any] = {"op": "run", "db": db, **options}
    if prepared is not None:
        body["prepared"] = prepared
    else:
        body["query"] = query
    return body


def _stream_body(
    query: Optional[str],
    db: str,
    prepared: Optional[str],
    page_size: Optional[int],
    options: dict,
) -> dict:
    body = _run_body(query, db, prepared, {"stream": True, **options})
    if page_size is not None:
        body["page_size"] = page_size
    return body


class _Verbs:
    """The protocol's verbs, written once for both clients: each builds
    its request body and returns ``self.request(body)`` — the reply for
    :class:`ServiceClient`, an awaitable of it for
    :class:`AsyncServiceClient`."""

    def request(self, payload: dict) -> Any:
        raise NotImplementedError

    def ping(self) -> Any:
        return self.request({"op": "ping"})

    def register_db(
        self, name: str, alphabet: str, relations: dict[str, list]
    ) -> Any:
        return self.request({
            "op": "register_db",
            "name": name,
            "db": {"alphabet": alphabet, "relations": relations},
        })

    def unregister_db(self, name: str) -> Any:
        return self.request({"op": "unregister_db", "name": name})

    def list_dbs(self) -> Any:
        return self.request({"op": "list_dbs"})

    def insert(self, db: str, relation: str, rows: list) -> Any:
        """Apply an insert delta; replies with the new head version."""
        return self.request({
            "op": "insert", "db": db, "relation": relation, "rows": rows,
        })

    def delete(self, db: str, relation: str, rows: list) -> Any:
        """Apply a delete delta; replies with the new head version."""
        return self.request({
            "op": "delete", "db": db, "relation": relation, "rows": rows,
        })

    def db_versions(self, name: str) -> Any:
        return self.request({"op": "db_versions", "name": name})

    def prepare(self, query: str, structure: str = "S") -> Any:
        return self.request({
            "op": "prepare", "query": query, "structure": structure,
        })

    def run(
        self,
        query: Optional[str] = None,
        db: str = "main",
        prepared: Optional[str] = None,
        **options: Any,
    ) -> Any:
        """``run`` with query text or a ``prepared`` handle id; extra
        keywords (``structure``, ``engine``, ``slack``, ``limit``,
        ``timeout_ms``) pass through to the protocol."""
        return self.request(_run_body(query, db, prepared, options))

    def batch(self, requests: list[dict]) -> Any:
        return self.request({"op": "batch", "requests": requests})

    def stats(self) -> Any:
        return self.request({"op": "stats"})

    def shutdown(self, drain: bool = True) -> Any:
        return self.request({"op": "shutdown", "drain": drain})


class ServiceClient(_Verbs):
    """See module docstring.  Raises :class:`~repro.errors.ServiceError`
    on transport failures (:class:`~repro.errors.ClientReadTimeoutError`
    for an expired read deadline); protocol-level errors come back as
    structured ``{"ok": false, "error": ...}`` responses, not exceptions.

    ``timeout`` bounds the TCP connect; ``read_timeout`` bounds each
    response read (defaults to ``timeout``; pass ``None`` explicitly
    for unbounded reads, e.g. when streaming a query with no deadline).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        read_timeout: Any = _UNSET,
    ):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to query service at {host}:{port}: {exc}"
            ) from None
        self.read_timeout = (
            timeout if read_timeout is _UNSET else read_timeout
        )
        self._sock.settimeout(self.read_timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._broken = False

    # ------------------------------------------------------------ transport

    def request(self, payload: dict) -> dict:
        """Send one request object (an ``id`` is added) and await its reply."""
        body = dict(payload)
        body.setdefault("id", next(self._ids))
        with self._lock:
            self._send(body)
            response = self._read_response()
        if response.get("id") != body["id"]:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match "
                f"request id {body['id']!r}"
            )
        return response

    def _send(self, body: dict) -> None:
        if self._broken:
            raise ServiceError(
                "connection is unusable after a read timeout; "
                "open a fresh ServiceClient"
            )
        data = (json.dumps(body) + "\n").encode("utf-8")
        try:
            self._file.write(data)
            self._file.flush()
        except OSError as exc:
            raise ServiceError(
                f"query service connection failed: {exc}"
            ) from None

    def _read_response(self) -> dict:
        try:
            raw = self._file.readline()
        except socket.timeout:
            # A late response line would be attributed to the *next*
            # request — the connection is desynchronized, retire it.
            self._broken = True
            try:
                self.close()
            except OSError:
                pass
            raise ClientReadTimeoutError(
                f"no response from query service within "
                f"{self.read_timeout:.6g}s; connection closed — reconnect "
                "and retry"
            ) from None
        except OSError as exc:
            raise ServiceError(
                f"query service connection failed: {exc}"
            ) from None
        if not raw:
            raise ServiceError("query service closed the connection")
        return json.loads(raw.decode("utf-8"))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- ops

    def run_stream(
        self,
        query: Optional[str] = None,
        db: str = "main",
        prepared: Optional[str] = None,
        page_size: Optional[int] = None,
        **options: Any,
    ) -> Iterator[dict]:
        """A streamed ``run``: yields each frame (``row_batch`` frames in
        order, then the terminal ``done`` frame) as it arrives.

        The connection lock is held until the ``done`` frame (or the
        generator is closed) — frames of one answer are contiguous on
        the wire, so interleaving another request would desynchronize.
        """
        body = _stream_body(query, db, prepared, page_size, options)
        body.setdefault("id", next(self._ids))
        with self._lock:
            self._send(body)
            while True:
                frame = self._read_response()
                if frame.get("id") != body["id"]:
                    raise ServiceError(
                        f"frame id {frame.get('id')!r} does not match "
                        f"request id {body['id']!r}"
                    )
                yield frame
                if frame.get("frame") != "row_batch":
                    return

    def run_stream_rows(self, *args: Any, **kwargs: Any) -> list:
        """Convenience: collect a streamed run's rows (raises
        :class:`ServiceError` if the ``done`` frame reports a failure)."""
        rows: list = []
        for frame in self.run_stream(*args, **kwargs):
            if frame.get("frame") == "row_batch":
                rows.extend(frame.get("rows") or [])
            elif not frame.get("ok"):
                error = frame.get("error") or {}
                raise ServiceError(
                    f"streamed run failed: {error.get('code')}: "
                    f"{error.get('message')}"
                )
        return rows


class AsyncServiceClient(_Verbs):
    """The asyncio client: same protocol verbs, ``await``-shaped.

    Build with :meth:`connect`; hundreds of instances share one event
    loop (the concurrent-client benchmark drives 512 this way).  Reads
    are bounded by ``read_timeout`` exactly like the sync client: it
    defaults to the connect ``timeout``, and ``None`` passed explicitly
    leaves reads unbounded.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        read_timeout: Optional[float],
    ):
        self._reader = reader
        self._writer = writer
        self.read_timeout = read_timeout
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self._broken = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        read_timeout: Any = _UNSET,
    ) -> "AsyncServiceClient":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=_READ_LIMIT),
                timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceError(
                f"cannot connect to query service at {host}:{port}: {exc}"
            ) from None
        return cls(
            reader, writer, timeout if read_timeout is _UNSET else read_timeout
        )

    # ------------------------------------------------------------ transport

    async def request(self, payload: dict) -> dict:
        body = dict(payload)
        body.setdefault("id", next(self._ids))
        async with self._lock:
            await self._send(body)
            response = await self._read_response()
        if response.get("id") != body["id"]:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match "
                f"request id {body['id']!r}"
            )
        return response

    async def _send(self, body: dict) -> None:
        if self._broken:
            raise ServiceError(
                "connection is unusable after a read timeout; reconnect"
            )
        try:
            self._writer.write((json.dumps(body) + "\n").encode("utf-8"))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"query service connection failed: {exc}"
            ) from None

    async def _read_response(self) -> dict:
        try:
            raw = await asyncio.wait_for(
                self._reader.readline(), self.read_timeout
            )
        except asyncio.TimeoutError:
            self._broken = True
            await self.close()
            raise ClientReadTimeoutError(
                f"no response from query service within "
                f"{self.read_timeout:.6g}s; connection closed — reconnect "
                "and retry"
            ) from None
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"query service connection failed: {exc}"
            ) from None
        if not raw:
            raise ServiceError("query service closed the connection")
        return json.loads(raw.decode("utf-8"))

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ----------------------------------------------------------------- ops

    async def run_stream(
        self,
        query: Optional[str] = None,
        db: str = "main",
        prepared: Optional[str] = None,
        page_size: Optional[int] = None,
        **options: Any,
    ) -> AsyncIterator[dict]:
        """Async-iterate the frames of a streamed ``run``."""
        body = _stream_body(query, db, prepared, page_size, options)
        body.setdefault("id", next(self._ids))
        async with self._lock:
            await self._send(body)
            while True:
                frame = await self._read_response()
                if frame.get("id") != body["id"]:
                    raise ServiceError(
                        f"frame id {frame.get('id')!r} does not match "
                        f"request id {body['id']!r}"
                    )
                yield frame
                if frame.get("frame") != "row_batch":
                    return
