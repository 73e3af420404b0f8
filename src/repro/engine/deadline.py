"""Cooperative per-request deadlines for the evaluation stack.

Query evaluation can blow up combinatorially (automata products after
projection, LENGTH-domain enumeration), and a serving tier cannot afford a
request that never returns.  Python threads cannot be killed, so the
engines are cancelled *cooperatively*: a :class:`Deadline` is installed
for the current thread with :func:`deadline_scope`, and the tight loops of
the evaluation stack call :func:`checkpoint` — which raises
:class:`~repro.errors.EvaluationTimeout` once the deadline has passed.

Checkpoints are threaded through every place the engines can spend
unbounded time:

* the :mod:`repro.automata.kernel` pipelines — product exploration,
  subset construction, and Hopcroft refinement all checkpoint on a small
  stride (the classic blowup points);
* :meth:`repro.automata.nfa.NFA.determinize` — one check per subset state;
* :meth:`repro.eval.automata_engine.AutomataEngine._build` — per
  subformula compilation;
* the :class:`repro.eval.direct.DirectEngine` candidate loops (strided —
  the per-candidate work is tiny, so checking every candidate would cost
  more than the work itself).

The module is stdlib-only and imports nothing above :mod:`repro.errors`,
so the lowest automata layers can use it without cycles.  With no active
deadline, :func:`checkpoint` is a single thread-local attribute lookup —
cheap enough to leave in release hot loops.

Usage::

    from repro.engine.deadline import deadline_scope

    with deadline_scope(0.250):          # 250 ms budget
        query.result(db)                 # raises EvaluationTimeout if over

Scopes nest: an inner scope can only *tighten* the effective deadline,
never extend it — an outer 100 ms budget caps an inner ``deadline_scope(10)``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional, Union

from repro.errors import EvaluationTimeout

__all__ = [
    "Deadline",
    "checkpoint",
    "current_deadline",
    "deadline_scope",
    "remaining",
]


class Deadline:
    """An absolute expiry on the monotonic clock.

    Parameters
    ----------
    seconds:
        Budget from *now*; ``Deadline.at(expires_at)`` builds one from an
        absolute :func:`time.monotonic` instant instead.
    """

    __slots__ = ("expires_at", "timeout", "started_at")

    def __init__(self, seconds: float):
        now = time.monotonic()
        self.started_at = now
        self.timeout: Optional[float] = seconds
        self.expires_at = now + seconds

    @classmethod
    def at(cls, expires_at: float) -> "Deadline":
        deadline = cls.__new__(cls)
        deadline.started_at = time.monotonic()
        deadline.timeout = None
        deadline.expires_at = expires_at
        return deadline

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def cancel(self) -> None:
        """Pull the expiry into the past: the next :meth:`check` raises.

        Cooperative cancellation reuses the deadline machinery — every
        engine hot loop already calls :func:`checkpoint`, so expiring the
        deadline stops in-flight work at the next checkpoint without any
        new hook.  The query service uses this to abandon work whose
        streaming client disconnected.
        """
        self.expires_at = float("-inf")

    def check(self) -> None:
        """Raise :class:`EvaluationTimeout` if the deadline has passed."""
        now = time.monotonic()
        if now >= self.expires_at:
            elapsed = now - self.started_at
            budget = (
                f"{self.timeout:.6g}s budget" if self.timeout is not None
                else "deadline"
            )
            raise EvaluationTimeout(
                f"evaluation exceeded its {budget} "
                f"(cancelled after {elapsed:.3f}s)",
                timeout=self.timeout,
                elapsed=elapsed,
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.6f}s)"


_local = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current thread, or ``None``."""
    return getattr(_local, "deadline", None)


def checkpoint() -> None:
    """Raise :class:`EvaluationTimeout` if the current thread's deadline
    (if any) has passed.  Free when no deadline is active."""
    deadline = getattr(_local, "deadline", None)
    if deadline is not None:
        deadline.check()


def remaining() -> Optional[float]:
    """Seconds left on the current deadline (``None`` when unbounded)."""
    deadline = getattr(_local, "deadline", None)
    return None if deadline is None else deadline.remaining()


@contextmanager
def deadline_scope(limit: Union[float, Deadline, None]):
    """Install a deadline for the current thread for the ``with`` body.

    ``limit`` is a budget in seconds, an existing :class:`Deadline` (so a
    worker thread can adopt the deadline stamped on a queued request —
    queue wait counts against the budget), or ``None`` (no-op, convenient
    for optional ``timeout=`` parameters).  Nested scopes keep whichever
    deadline expires first.
    """
    if limit is None:
        yield None
        return
    deadline = limit if isinstance(limit, Deadline) else Deadline(limit)
    previous = getattr(_local, "deadline", None)
    if previous is not None and previous.expires_at <= deadline.expires_at:
        deadline = previous
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous
