"""Per-client quotas and the service's one queue, weighted fair queuing.

Both pieces are pure policy — no sockets, no service internals:

* :class:`TokenBucket` — a per-client request-rate quota, charged by the
  asyncio TCP server.  Each client (one TCP connection) gets ``burst``
  tokens refilled at ``rate`` tokens per second; a query op that finds
  the bucket empty is either rejected with a structured ``quota`` error
  carrying ``retry_after`` (under ``backpressure="reject"``) or
  asynchronously delayed until a token accrues (under ``"block"``) —
  mirroring the service's own admission modes.  Cheap control ops
  (``ping``, ``stats``, ...) are never charged.

* :class:`FairQueue` — the :class:`~repro.service.service.QueryService`
  queue itself, from submission to worker thread.  Submitters push jobs
  tagged with their client (a TCP connection's id, or ``None`` for
  thread callers); workers pop them in **virtual-time order**
  (start-time fair queuing: an item's virtual start time is
  ``max(queue clock, client's last finish)`` and its finish time
  ``start + 1/weight``), so a client that queued 100 requests and a
  client that queued 1 alternate roughly by weight instead of 100:1.  The bound is the caller's: a full heap
  either refuses a job at once or makes the pushing thread wait on the
  queue's condition.

The token bucket is safe to call from threads (it locks); the queue is
thread-safe and never touches an event loop.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
import time
from typing import Any, Optional

from repro.engine.deadline import Deadline
from repro.errors import QueueFullError, QuotaExceededError, ServiceClosedError

__all__ = ["TokenBucket", "FairQueue", "DEFAULT_WEIGHT"]

#: Weight assigned to requests that don't ask for one.
DEFAULT_WEIGHT = 1.0


class TokenBucket:
    """A thread-safe token bucket: ``burst`` capacity, ``rate``/s refill.

    ``rate=None`` disables the quota (every acquire succeeds) so the
    server can construct one unconditionally per client.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: Optional[float], burst: float = 1.0):
        if rate is not None and rate <= 0:
            raise ValueError("quota rate must be positive (or None to disable)")
        if burst < 1:
            raise ValueError("quota burst must be >= 1")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; ``0.0`` on success, else seconds until
        enough tokens will have accrued (the ``retry_after`` hint)."""
        if self.rate is None:
            return 0.0
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= cost:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate

    async def acquire(self, cost: float = 1.0) -> None:
        """Block (asynchronously) until ``cost`` tokens are available.

        The delay is not in the reply's ``queue_ms`` (that is time in
        the pool's queue); the server counts each delayed admission in
        ``service.quota_delays``."""
        while True:
            wait = self.try_acquire(cost)
            if wait <= 0.0:
                return
            await asyncio.sleep(wait)


class _Item:
    __slots__ = ("vstart", "seq", "job")

    def __init__(self, vstart, seq, job):
        self.vstart = vstart
        self.seq = seq
        self.job = job

    def __lt__(self, other: "_Item") -> bool:
        return (self.vstart, self.seq) < (other.vstart, other.seq)


class FairQueue:
    """Start-time weighted fair queuing between submitters and workers.

    Submitters :meth:`put` jobs on behalf of a client, worker threads
    :meth:`get` them in order of virtual start time (ties in arrival
    order).  The virtual clock is the start time of the last popped
    item, and a client's next start time is ``max(clock, its last
    finish)`` — the SFQ recipe: backlogged clients share the workers by
    weight, a client arriving at an idle queue starts at the clock (so
    it goes next, not behind another client's backlog), and idle clients
    don't accumulate credit.

    One condition guards the heap.  Workers wait on it while the heap is
    empty, and a blocking submitter while the heap is full.  While any
    submitter is blocked every wake-up is a ``notify_all``, so a
    notification can never reach the wrong kind of waiter and be lost;
    otherwise only workers wait, and a put wakes just one.
    """

    def __init__(self):
        self._heap: list[_Item] = []
        self._vclock = 0.0
        self._client_vtime: dict[Any, float] = {}
        self._seq = 0
        self._cond = threading.Condition()
        self._blocked = 0
        self._closed = False

    def put(
        self,
        job: Any,
        client: Any = None,
        weight: float = DEFAULT_WEIGHT,
        *,
        limit: int,
        block: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Queue ``job`` for ``client`` while fewer than ``limit`` jobs wait.

        A full heap raises :class:`~repro.errors.QueueFullError` at once,
        or with ``block`` waits for room: until ``deadline`` passes
        (:class:`~repro.errors.EvaluationTimeout`; ``None`` waits as long
        as it takes) or the queue closes
        (:class:`~repro.errors.ServiceClosedError`).
        """
        with self._cond:
            while True:
                if self._closed:
                    raise ServiceClosedError("service is draining or closed")
                if len(self._heap) < limit:
                    break
                if not block:
                    raise QueueFullError(
                        f"request queue full ({limit} pending); "
                        "retry after backoff"
                    )
                wait = None
                if deadline is not None:
                    wait = deadline.remaining()
                    if wait <= 0:
                        deadline.check()  # raises EvaluationTimeout
                self._blocked += 1
                try:
                    self._cond.wait(wait)
                finally:
                    self._blocked -= 1
            vstart = max(self._vclock, self._client_vtime.get(client, 0.0))
            self._client_vtime[client] = vstart + 1.0 / max(float(weight), 1e-6)
            self._seq += 1
            heapq.heappush(self._heap, _Item(vstart, self._seq, job))
            if self._blocked:
                self._cond.notify_all()
            else:
                self._cond.notify()

    def get(self) -> Any:
        """Pop the job with the earliest virtual start time, waiting
        while the heap is empty; ``None`` once it is closed and empty."""
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                self._cond.wait()
            item = heapq.heappop(self._heap)
            self._vclock = item.vstart
            if self._blocked:
                self._cond.notify_all()
            return item.job

    def forget(self, client: Any) -> None:
        """Drop the client's virtual-time state (connection closed)."""
        with self._cond:
            self._client_vtime.pop(client, None)

    def close(self, drain: bool = True) -> list:
        """Refuse further puts and wake every waiter.

        With ``drain`` the workers go on popping until the heap is empty;
        without it the heap is emptied here and its jobs, which never
        ran, are returned for the caller to fail.
        """
        with self._cond:
            self._closed = True
            dropped = [] if drain else [item.job for item in self._heap]
            if not drain:
                self._heap.clear()
            self._cond.notify_all()
        return dropped

    def stats(self) -> dict:
        """Jobs waiting and clients with virtual-time state."""
        with self._cond:
            return {
                "pending": len(self._heap),
                "clients_tracked": len(self._client_vtime),
            }


def quota_error(retry_after: float) -> QuotaExceededError:
    """The structured error for an exhausted token bucket."""
    return QuotaExceededError(
        f"client request quota exhausted; retry in {retry_after:.3f}s",
        retry_after=retry_after,
    )
