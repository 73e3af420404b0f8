"""Shard worker processes: ``python -m repro serve --stdio`` under a pipe.

Each :class:`ShardWorker` is a real operating-system process running the
unmodified NDJSON service loop (:func:`repro.service.server.serve_stdio`)
— its own interpreter, its own GIL, its own automaton/plan caches.  The
coordinator talks to it over stdin/stdout with the wire protocol used by
every other deployment of the service; nothing in the worker knows it is
a shard.

Concurrency model: requests carry monotonically increasing ids and each
gets a ``concurrent.futures.Future``; a single reader thread per worker
demultiplexes response lines onto those futures, so any number of
coordinator threads can have requests in flight on the same worker (the
worker itself runs one evaluation thread — parallelism comes from
having many workers).  A worker that exits or
emits garbage fails *all* of its in-flight requests with a retryable
:class:`~repro.errors.ShardError`; the pool can then
:meth:`~WorkerPool.restart` the slot and the coordinator re-registers
its partitions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait
from typing import Any, Optional, Union

from repro.engine.metrics import METRICS
from repro.errors import ShardError

__all__ = ["ShardWorker", "WorkerPool", "gather_all"]

#: Seconds to wait for a worker's readiness ping at spawn.
START_TIMEOUT = 30.0


def _src_root() -> str:
    """The directory to put on the worker's ``PYTHONPATH`` (``…/src``)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _straggler(timeout: Optional[float]) -> ShardError:
    return ShardError(
        f"shard request still pending after {timeout:.6g}s (straggler)",
        retryable=True,
    )


def gather_all(
    futures: dict[Any, Future], timeout: Optional[float]
) -> dict[Any, Union[dict, ShardError]]:
    """Collect every future under **one shared budget**.

    The responses complete concurrently (each worker has its own reader
    thread), so ``concurrent.futures.wait`` bounds the total wall clock
    by the *slowest* shard, at most ``timeout`` — not, as with a
    per-future budget, up to ``len(futures) × timeout`` when several
    shards straggle at once.  Failures don't raise; each slot maps to
    either the response dict or the :class:`~repro.errors.ShardError`
    that sank it (a retryable straggler error for a future still
    pending), so the caller can restart and retry every failed shard in
    one concurrent round instead of serially per shard.
    """
    wait(futures.values(), timeout)
    return {
        key: (
            (future.exception() or future.result()) if future.done()
            else _straggler(timeout)
        )
        for key, future in futures.items()
    }


class ShardWorker:
    """One shard process plus its demultiplexing reader thread."""

    def __init__(self, index: int, service_workers: int = 1):
        self.index = index
        argv = [
            sys.executable, "-m", "repro", "serve", "--stdio",
            "--workers", str(service_workers),
        ]
        env = dict(os.environ)
        src = _src_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self._lock = threading.Lock()
        self._counter = 0
        self._futures: dict[int, Future] = {}
        self._dead: Optional[str] = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{index}-reader", daemon=True
        )
        self._reader.start()
        METRICS.inc("shard.workers_started")
        # Readiness barrier: the first response also absorbs interpreter
        # start-up, so it never counts against a query's own deadline.
        pong = self.request({"op": "ping"}, timeout=START_TIMEOUT)
        if not pong.get("pong"):
            raise ShardError(
                f"shard {index} failed its readiness ping: {pong!r}"
            )

    # ------------------------------------------------------------- plumbing

    @property
    def alive(self) -> bool:
        return self._dead is None and self.process.poll() is None

    def submit(self, body: dict[str, Any]) -> Future:
        """Write one request line; the future completes with its response."""
        future: Future = Future()
        with self._lock:
            if self._dead is not None:
                raise ShardError(
                    f"shard {self.index} is down: {self._dead}", retryable=True,
                    shard=self.index,
                )
            self._counter += 1
            request_id = self._counter
            self._futures[request_id] = future
            line = json.dumps({**body, "id": request_id})
            try:
                assert self.process.stdin is not None
                self.process.stdin.write(line + "\n")
                self.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError) as exc:
                self._futures.pop(request_id, None)
                self._fail_locked(f"write failed: {exc}")
                raise ShardError(
                    f"shard {self.index} is down: write failed ({exc})",
                    retryable=True, shard=self.index,
                ) from None
        METRICS.inc("shard.requests")
        return future

    def request(
        self, body: dict[str, Any], timeout: Optional[float] = None
    ) -> dict:
        """Submit and wait (transport errors raise, protocol errors don't:
        a well-formed ``{"ok": false, ...}`` response is returned as-is;
        a wait past ``timeout`` raises a retryable straggler error)."""
        try:
            return self.submit(body).result(timeout)
        except FutureTimeoutError:
            raise _straggler(timeout) from None

    def _read_loop(self) -> None:
        stdout = self.process.stdout
        assert stdout is not None
        for line in stdout:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                with self._lock:
                    self._fail_locked(f"sent a non-JSON line: {line[:80]!r}")
                return
            future = None
            with self._lock:
                request_id = obj.get("id")
                if isinstance(request_id, int):
                    future = self._futures.pop(request_id, None)
            if future is not None:
                future.set_result(obj)
        with self._lock:
            self._fail_locked("process exited")

    def _fail_locked(self, why: str) -> None:
        """Mark dead and fail every in-flight request (lock held)."""
        if self._dead is None:
            self._dead = why
            METRICS.inc("shard.worker_deaths")
        futures, self._futures = self._futures, {}
        for future in futures.values():
            future.set_exception(ShardError(
                f"shard {self.index} died mid-request: {why}",
                retryable=True, shard=self.index,
            ))

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Best-effort graceful shutdown, then terminate."""
        with self._lock:
            if self._dead is None:
                try:
                    assert self.process.stdin is not None
                    self.process.stdin.write(
                        json.dumps({"op": "shutdown", "drain": False}) + "\n"
                    )
                    self.process.stdin.flush()
                    self.process.stdin.close()
                except (BrokenPipeError, OSError, ValueError):
                    pass
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        with self._lock:
            self._fail_locked("closed")


class WorkerPool:
    """A fixed-size array of :class:`ShardWorker` slots."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}",
                             retryable=False)
        self._lock = threading.Lock()
        self.workers: list[ShardWorker] = []
        try:
            for i in range(shards):
                self.workers.append(ShardWorker(i))
        except Exception:
            for w in self.workers:
                w.close()
            raise

    def __len__(self) -> int:
        return len(self.workers)

    def worker(self, shard: int) -> ShardWorker:
        return self.workers[shard]

    def restart(self, shard: int) -> ShardWorker:
        """Replace a dead (or wedged) worker slot with a fresh process.

        The caller owns re-registering the slot's partitions — the pool
        knows transport, not data placement.
        """
        with self._lock:
            old = self.workers[shard]
            old.close()
            fresh = ShardWorker(shard)
            self.workers[shard] = fresh
        METRICS.inc("shard.worker_restarts")
        return fresh

    def close(self) -> None:
        with self._lock:
            workers, self.workers = self.workers, []
        for w in workers:
            w.close()
