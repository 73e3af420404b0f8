"""Transports for the NDJSON protocol: a stdio loop and an asyncio TCP server.

Both transports run one pipeline.  :mod:`repro.service.protocol` decides
what a request means (:meth:`~repro.service.protocol.Dispatcher.step`:
validation, error shapes, framing); this module only moves it — reads
and decodes lines, answers each of the step's :class:`~repro.service.
protocol.Work` requests on its own thread when :meth:`~repro.service.
service.QueryService.answer_on_loop` can (a cached answer, or a warm
plan run under a deadline budget, for a never-seen text of a known
shape too), submits the rest to the shared
:class:`~repro.service.service.QueryService` pool, and writes the
frames the step renders.  The same request line therefore gets the same
answer on either transport.

``python -m repro serve --stdio`` runs :func:`serve_stdio` — one request
per stdin line, one response line (or, for streamed runs, several frame
lines) per request, exit 0 on EOF or a ``shutdown`` op.  That shape makes
the service scriptable::

    echo '{"op": "ping"}' | python -m repro serve --stdio

``python -m repro serve --port N`` runs an :class:`AsyncTCPQueryServer`:
a single-threaded **asyncio** front end that multiplexes every
connection onto one event loop — a connection costs one coroutine and
one socket, not one thread, so 10k concurrent clients are just 10k
parked readers.  The event loop never waits for the pool, and runs a
query itself only under a deadline budget: a ``run`` whose warm plan
has not finished within :data:`~repro.service.service.LOOP_RUN_BUDGET`
is abandoned at the engine's next checkpoint and goes to the pool.
What only the TCP server does, because only it has many clients:

* ``run`` / ``batch`` are charged to a per-client
  :class:`~repro.service.quota.TokenBucket` quota; a request whose
  answer is cached, or a ``run`` whose warm plan finishes within the
  budget, is then answered on the loop, and the others are
  submitted under the connection's client id, so the service's one
  fair queue (:class:`~repro.service.quota.FairQueue`) orders them
  across connections all the way to the worker.  Submitting never
  waits, so the loop never parks on a full pool; the submitted
  :class:`~repro.service.service.PendingRequest` is a
  ``concurrent.futures.Future``, awaited through ``asyncio.wrap_future``
  — no thread per in-flight request, no polling;
* while a request executes, the connection watches its socket, so a
  client that disconnects mid-answer gets its request **cancelled
  cooperatively** (queued work is skipped, running work aborts at the
  engines' next deadline checkpoint) — a vanished client never leaks a
  worker slot;
* ``ping`` is answered inline on the loop; registry ops
  (``register_db``, ``insert``, ...) run on a small bounded executor
  so fingerprinting a large payload cannot stall unrelated connections;
* ``shutdown`` acknowledges, stops accepting, gives busy connections a
  grace period to finish their current request, cancels the rest, and
  returns from :meth:`~AsyncTCPQueryServer.serve_forever`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro.engine.metrics import METRICS
from repro.errors import ReproError
from repro.service.protocol import (
    Dispatcher,
    ProtocolError,
    Reply,
    Work,
    error_reply,
    not_json,
)
from repro.service.quota import TokenBucket, quota_error
from repro.service.service import PendingRequest, QueryService, RunRequest

__all__ = [
    "AsyncTCPQueryServer",
    "respond",
    "serve_stdio",
    "serve_tcp",
]

#: Per-line read limit (bytes).  The asyncio default of 64 KiB would
#: reject a large ``register_db`` payload; database registrations are
#: one JSON line, so give them real headroom.
READ_LIMIT = 16 * 1024 * 1024

#: Far-future deadline installed on async-path requests that asked for
#: no timeout: never fires on its own, but gives cooperative
#: cancellation a handle to pull into the past when the client vanishes
#: (:meth:`repro.engine.deadline.Deadline.cancel`).
_CANCEL_HORIZON = 1e9

#: Seconds a graceful shutdown waits for busy connections to finish
#: their current request before cancelling them.
DRAIN_GRACE = 5.0

#: Ops whose protocol step the event loop takes inline: the liveness
#: probe, shutdown, and the query ops, whose step only validates; their
#: work is then answered by the loop probe (a cached answer, or a warm
#: plan run, after parsing a text of at most ``LOOP_PARSE_MAX_CHARS``
#: characters) or goes to the pool.  Every other step touches the
#: registry and runs on the auxiliary executor.
_LOOP_OPS = frozenset({"ping", "shutdown", "run", "batch"})


def _answer_on_loop(service: QueryService, work: Work, request: RunRequest):
    """The transports' one loop probe (:meth:`~repro.service.service.
    QueryService.answer_on_loop`): a cached answer, or — when the line
    carries one request — a warm plan run on the calling thread, after
    parsing a bounded never-seen text and checking its binding.  The
    items of a larger batch are only looked up, never parsed or run, so
    a request line holds the loop for at most a bounded parse, one check
    budget and one run budget.  ``None`` sends the request to the
    pool."""
    return service.answer_on_loop(request, run=len(work.requests) == 1)


def respond(dispatcher: Dispatcher, obj: Any) -> Reply:
    """Answer one decoded request synchronously: the protocol's step, with
    what :func:`_answer_on_loop` answers taken on this thread and the
    other pool work submitted and waited for."""
    step = dispatcher.step(obj)
    if isinstance(step, Reply):
        return step
    service = dispatcher.service
    outcomes: list[Any] = []
    for request in step.requests:
        hit = _answer_on_loop(service, step, request)
        if hit is not None:
            outcomes.append(hit)
            continue
        try:
            outcomes.append(service.submit(request))
        except ReproError as exc:  # not admitted: closed, full, timed out
            outcomes.append(exc)
    return Reply(step.render([
        o.wait() if isinstance(o, PendingRequest) else o for o in outcomes
    ]))


def serve_stdio(service: QueryService, stdin=None, stdout=None) -> int:
    """Serve one NDJSON stream; returns 0 on EOF or ``shutdown``.

    The synchronous adapter: one client, one stream, requests handled in
    order — streamed runs emit their frames back-to-back, which needs no
    multiplexing, so this path stays blocking on purpose (it is also
    what the shard worker processes speak over pipes).  The service is
    closed (draining by default; a ``shutdown`` op may ask otherwise)
    before returning, so a clean EOF leaves no worker threads behind.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    dispatcher = Dispatcher(service)
    try:
        for line in stdin:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                reply = not_json(exc)
            else:
                reply = respond(dispatcher, obj)
            for frame in reply.frames:
                stdout.write(json.dumps(frame) + "\n")
            stdout.flush()
            if reply.shutdown:
                break
    finally:
        service.close(drain=dispatcher.shutdown_drain)
    return 0


class _LineSource:
    """A readline frontend with pushback.

    While a request executes, the connection keeps one watcher read
    posted on the raw stream to notice EOF (client gone → cancel the
    request).  A watcher that instead catches the *next* pipelined
    request pushes it here, and the main loop drains pushback before
    touching the socket again — order is preserved because at most one
    watcher is ever outstanding.
    """

    __slots__ = ("reader", "_pushback")

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self._pushback: list[bytes] = []

    async def readline(self) -> bytes:
        if self._pushback:
            return self._pushback.pop(0)
        return await self.reader.readline()

    def push(self, line: bytes) -> None:
        self._pushback.append(line)


class AsyncTCPQueryServer:
    """The NDJSON protocol over asyncio TCP (see module docstring).

    All connections share one dispatcher (and therefore one worker pool,
    fair queue, and prepared registry); each connection gets its own
    token bucket and client id.  The constructor binds the
    socket immediately (``server_address`` is final once it returns);
    :meth:`serve_forever` runs the loop in the calling thread until
    :meth:`shutdown` is called from any thread or a ``shutdown`` op
    arrives.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        allow_shutdown: bool = True,
    ):
        self.service = service
        self.dispatcher = Dispatcher(service, allow_shutdown=allow_shutdown)
        self._loop = asyncio.new_event_loop()
        self._closing = False
        self._stopped = threading.Event()
        self._started = False
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._client_ids = itertools.count(1)
        # Registry/delta ops run here instead of on the loop: bounded, so
        # a burst of registrations cannot grow threads without limit.
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-serve-aux"
        )
        host, port = address

        async def _bind():
            self._shutdown_event = asyncio.Event()
            return await asyncio.start_server(
                self._handle_connection, host, port, limit=READ_LIMIT
            )

        self._server = self._loop.run_until_complete(_bind())
        self.server_address = self._server.sockets[0].getsockname()

    # ----------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Run the event loop until a shutdown is requested."""
        asyncio.set_event_loop(self._loop)
        self._started = True
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the server from any thread; blocks until
        :meth:`serve_forever` has returned."""
        if self._loop.is_closed() or self._stopped.is_set():
            return
        self.begin_shutdown()
        if self._started:
            self._stopped.wait()

    def begin_shutdown(self) -> None:
        """Request shutdown without blocking (threadsafe)."""
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._shutdown_event.set)

    def close_service(self) -> None:
        """Drain (or not, per the shutdown request) and release resources."""
        self._executor.shutdown(wait=False)
        self.service.close(drain=self.dispatcher.shutdown_drain)
        if not self._loop.is_closed():
            self._loop.close()

    async def _serve(self) -> None:
        try:
            await self._shutdown_event.wait()
        finally:
            self._closing = True
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            # Graceful drain: busy connections finish their current
            # request (their own deadlines still bound them), idle ones
            # are cancelled outright.
            deadline = self._loop.time() + DRAIN_GRACE
            while self._busy and self._loop.time() < deadline:
                await asyncio.sleep(0.01)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )

    # --------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        client_id = next(self._client_ids)
        cfg = self.service.config
        bucket = TokenBucket(cfg.quota_rate, cfg.quota_burst)
        source = _LineSource(reader)
        METRICS.inc("service.connections")
        try:
            while not self._closing:
                try:
                    line = await source.readline()
                except (ConnectionError, OSError):
                    break
                except (ValueError, asyncio.LimitOverrunError,
                        asyncio.IncompleteReadError):
                    # A request line past READ_LIMIT: the stream can no
                    # longer be framed, so answer with a structured
                    # protocol error and close instead of dying silently.
                    await self._write(writer, [error_reply(None, ProtocolError(
                        f"request line exceeds the {READ_LIMIT}-byte limit"
                    ))])
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._busy.add(task)
                try:
                    done = await self._process(
                        line, writer, source, bucket, client_id
                    )
                finally:
                    self._busy.discard(task)
                if done:
                    return
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            pass
        finally:
            self.service.forget_client(client_id)
            self._connections.discard(task)
            self._busy.discard(task)
            with contextlib.suppress(BaseException):
                writer.close()
                await writer.wait_closed()

    async def _process(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        source: _LineSource,
        bucket: TokenBucket,
        client_id: int,
    ) -> bool:
        """Handle one request line; returns True to close the connection."""
        try:
            obj = json.loads(line.decode("utf-8", "replace"))
        except json.JSONDecodeError as exc:
            step = not_json(exc)
        else:
            if isinstance(obj, dict) and obj.get("op") in _LOOP_OPS:
                step = self.dispatcher.step(obj)
            else:
                step = await self._loop.run_in_executor(
                    self._executor, self.dispatcher.step, obj
                )
        if isinstance(step, Work):
            frames = await self._run(step, source, bucket, client_id)
            if frames is None:
                return True
        else:
            frames = step.frames
        if not await self._write(writer, frames):
            return True
        if isinstance(step, Reply) and step.shutdown:
            self._shutdown_event.set()
            return True
        return False

    async def _run(
        self,
        work: Work,
        source: _LineSource,
        bucket: TokenBucket,
        client_id: int,
    ) -> Optional[list[dict]]:
        """Charge the quota, take the loop's answers, submit the other
        requests to the pool and await them, watching for disconnect;
        returns the rendered frames, or None once the client is gone."""
        # A bucket never holds more than `burst` tokens, so a batch
        # costing more than that could never be admitted: blocking would
        # hang forever and a retry_after hint would be a lie.  Fail it up
        # front with a non-retryable structured error.
        if bucket.rate is not None and work.cost > bucket.burst:
            METRICS.inc("service.quota_rejections")
            return work.reject(ProtocolError(
                f"batch of {int(work.cost)} items exceeds the "
                f"per-connection quota burst ({bucket.burst:g}); "
                "split the batch or raise quota_burst"
            ))
        retry_after = bucket.try_acquire(work.cost)
        if retry_after > 0.0:
            if self.service.config.backpressure == "reject":
                METRICS.inc("service.quota_rejections")
                return work.reject(
                    quota_error(retry_after),
                    retry_after=round(retry_after, 3),
                )
            METRICS.inc("service.quota_delays")
            await bucket.acquire(work.cost)

        # A cached answer or a warm run is taken on the loop, without a
        # pool hop.  Admission failures stay in their slot as the exception.
        admitted: list[Any] = []
        for request in work.requests:
            hit = _answer_on_loop(self.service, work, request)
            if hit is not None:
                admitted.append(hit)
                continue
            self._make_cancellable(request)
            admitted.append(
                await self._admit(request, client_id, work.weight)
            )
        outcomes: list[Any] = []
        for entry in admitted:
            if not isinstance(entry, PendingRequest):
                outcomes.append(entry)
                continue
            connected, response = await self._finish(
                entry, source, work.streaming
            )
            if not connected:
                _cancel(admitted)
                return None
            outcomes.append(response)
        return work.render(outcomes)

    # ------------------------------------------------------------- helpers

    def _make_cancellable(self, request: RunRequest) -> None:
        """Requests without a timeout still get a (far-future) deadline on
        the async path, so disconnect cancellation always has something
        to expire."""
        if (
            request.timeout is None
            and self.service.config.default_timeout is None
        ):
            request.timeout = _CANCEL_HORIZON

    async def _admit(self, request: RunRequest, client_id: int, weight: float):
        """Queue ``request`` for this connection; returns the pending
        request, or the exception that kept it out of the queue.

        Never waits: under ``block`` a full pool leaves the request
        queued in its fair turn rather than parking the loop."""
        try:
            return self.service.submit(request, client=client_id, weight=weight)
        except ReproError as exc:
            return exc

    async def _finish(self, pending, source: _LineSource, streaming: bool):
        """Await a submitted request's completion, watching for disconnect.

        Returns ``(connected, response)``; on disconnect the request is
        cancelled cooperatively and ``response`` is ``None``.  Leaving
        before it completes (a disconnect, or the connection's task
        cancelled at shutdown) cancels the wrapping asyncio future,
        which ``asyncio.wrap_future`` passes on to ``pending.cancel()``.
        """
        fut = asyncio.wrap_future(pending, loop=self._loop)
        try:
            connected = await self._watch(fut, source)
        finally:
            if fut.done():
                fut.exception()  # retrieved: pending.wait(0) renders it
            else:
                fut.cancel()
        if not connected:
            METRICS.inc("service.disconnects_inflight")
            if streaming:
                METRICS.inc("service.streams_cancelled")
            return False, None
        return True, pending.wait(0)

    async def _watch(
        self, fut: "asyncio.Future", source: _LineSource
    ) -> bool:
        """Await ``fut`` while watching the connection for EOF.

        At most one raw read is posted at a time; a read that catches the
        next pipelined request is pushed back for the main loop.  EOF (or
        a reset) returns ``False`` without waiting for ``fut``.
        """
        watch: Optional[asyncio.Task] = None
        try:
            while not fut.done():
                if watch is None:
                    watch = self._loop.create_task(source.reader.readline())
                await asyncio.wait(
                    {fut, watch}, return_when=asyncio.FIRST_COMPLETED
                )
                if watch.done():
                    try:
                        data = watch.result()
                    except (ConnectionError, OSError,
                            ValueError, asyncio.LimitOverrunError,
                            asyncio.IncompleteReadError):
                        # Reset — or an oversized pipelined line, after
                        # which the stream cannot be re-framed: either
                        # way the connection is unusable, so treat it as
                        # a disconnect (cancels the in-flight request).
                        data = b""
                    watch = None
                    if not data:
                        return False
                    source.push(data)
            return True
        finally:
            if watch is not None and not watch.done():
                watch.cancel()
                with contextlib.suppress(BaseException):
                    await watch

    async def _write(
        self, writer: asyncio.StreamWriter, frames: list[dict]
    ) -> bool:
        """Write ``frames`` as NDJSON lines; False once the peer is gone."""
        try:
            for frame in frames:
                writer.write((json.dumps(frame) + "\n").encode("utf-8"))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False


def _cancel(admitted: list) -> None:
    """Abandon the admitted requests of a client that went away."""
    for entry in admitted:
        if isinstance(entry, PendingRequest) and not entry.done():
            entry.cancel()


def serve_tcp(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> AsyncTCPQueryServer:
    """Bind an :class:`AsyncTCPQueryServer` (``port=0`` picks an ephemeral
    one).

    The caller owns the loop::

        server = serve_tcp(service, port=0)
        print(server.server_address)
        server.serve_forever()      # returns after a shutdown op
        server.close_service()
    """
    return AsyncTCPQueryServer((host, port), service)
