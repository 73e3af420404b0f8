"""``python -m repro serve`` with a span around each layer a request crosses.

Run exactly like the CLI (``traced_server.py serve --port 0 ...``).  Before
serving, it wraps the entry points of the service layers (the program
itself is unchanged) so that every request records these spans:

on the event loop, per request line:
    request     -- line read to last byte written (the parent of the next five)
    decode      -- JSON decode of the request line
    admission   -- quota + fair queue + hand-off to the worker pool
    await       -- waiting for the worker to finish the job; not reported
                   itself, it keeps that wait out of the request's self time
    control     -- non-query ops: insert/delete deltas, stats, ping
    serialize   -- JSON encode of each response frame
on a worker thread, per query:
    pool_queue  -- from submission to a worker picking the job up
    job         -- the worker's whole job (the parent of the next three)
    parse       -- parse + canonical fingerprint (``QueryService.prepare``)
    plan        -- plan-cache lookup or planning (``PreparedQuery.plan_for``)
    execute     -- compile and run through the chosen backend (``execute_plan``)

A span's self time is its duration minus its children's.  Spans are
folded into per-layer totals ``[count, seconds, self seconds]`` as they
close; the ``stats`` op returns those totals and a snapshot of every
metrics counter under ``"trace"``, so a client can difference two
snapshots around a measured window.
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import repro.__main__ as cli
from repro.engine.metrics import METRICS
from repro.service import protocol, server, service

_current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)


class Span:
    __slots__ = ("layer", "parent", "start", "children")

    def __init__(self, layer: str, parent, start: float):
        self.layer = layer
        self.parent = parent
        self.start = start
        self.children = 0.0


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """Per-layer span totals of one server process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals: dict[str, list] = {}

    def totals(self) -> dict[str, list]:
        with self._lock:
            return {layer: list(entry) for layer, entry in self._totals.items()}

    def record(self, layer: str, seconds: float, self_seconds: float) -> None:
        with self._lock:
            entry = self._totals.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += self_seconds

    def open(self, layer: str):
        span = Span(layer, _current.get(), time.perf_counter())
        return span, _current.set(span)

    def close(self, span: Span, token) -> None:
        seconds = time.perf_counter() - span.start
        _current.reset(token)
        if span.parent is not None:
            span.parent.children += seconds
        self.record(span.layer, seconds, seconds - span.children)

    def wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            span, token = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span, token)
        return wrapper

    def wrap_async(self, layer: str, fn):
        async def wrapper(*args, **kwargs):
            span, token = self.open(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(span, token)
        return wrapper

    def install(self) -> None:
        """Wrap the layer entry points of the service in place."""
        tracer = self
        server_cls = server.AsyncTCPQueryServer
        server_cls._process = self.wrap_async("request", server_cls._process)
        server_cls._admit = self.wrap_async("admission", server_cls._admit)
        server_cls._finish = self.wrap_async("await", server_cls._finish)
        # Registry and stats ops run on the server's auxiliary executor;
        # give its threads the submitting request's context so they nest.
        server.ThreadPoolExecutor = ContextExecutor
        protocol.Dispatcher.handle = self.wrap("control", protocol.Dispatcher.handle)
        # The server module's json: decode request lines, encode frames.
        server.json = types.SimpleNamespace(
            loads=self.wrap("decode", json.loads),
            dumps=self.wrap("serialize", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )

        run_job = service.QueryService._run_job

        def run_job_traced(service_self, job):
            span, token = tracer.open("job")
            try:
                return run_job(service_self, job)
            finally:
                tracer.close(span, token)
                waited = (job.started_at or job.submitted_at) - job.submitted_at
                tracer.record("pool_queue", waited, waited)

        service.QueryService._run_job = run_job_traced
        service.QueryService.prepare = self.wrap(
            "parse", service.QueryService.prepare
        )
        service.PreparedQuery.plan_for = self.wrap(
            "plan", service.PreparedQuery.plan_for
        )
        service.execute_plan = self.wrap("execute", service.execute_plan)

        op_stats = protocol.Dispatcher._op_stats

        def op_stats_traced(dispatcher, obj):
            body, shutdown = op_stats(dispatcher, obj)
            body["trace"] = {
                "layers": tracer.totals(), "metrics": METRICS.snapshot(),
            }
            return body, shutdown

        protocol.Dispatcher._op_stats = op_stats_traced


if __name__ == "__main__":
    Tracer().install()
    sys.exit(cli.main(sys.argv[1:]))
