"""Exception hierarchy for the ``repro`` (strqlib) library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish parse errors from semantic ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class AlphabetError(ReproError):
    """A string or symbol does not belong to the expected alphabet."""


class ParseError(ReproError):
    """A textual query, regex, or pattern could not be parsed.

    Attributes
    ----------
    text:
        The input being parsed.
    position:
        0-based offset at which the error was detected (``-1`` if unknown).
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at offset {self.position} in {self.text!r})"
        return base


class SignatureError(ReproError):
    """A formula uses a predicate or function outside the structure's signature.

    Raised e.g. when an ``el`` (equal-length) atom appears in a query that is
    declared to be an RC(S) query: the paper's languages are defined by their
    signatures and the library enforces them.
    """


class EvaluationError(ReproError):
    """A query could not be evaluated under the requested semantics."""


class UnsafeQueryError(EvaluationError):
    """A query's output on the given database is infinite.

    The offending (regular) output can still be inspected: evaluation engines
    attach the output automaton where available.
    """


class EvaluationTimeout(EvaluationError):
    """Evaluation exceeded its deadline and was cooperatively cancelled.

    Raised from the checkpoints threaded through both engines and the
    automata hot loops (see :mod:`repro.engine.deadline`) when a
    ``timeout=`` was requested on :meth:`repro.core.query.Query.run` or a
    per-request deadline was set by the query service.  The work done so
    far is discarded; the request is safe to retry (possibly with a larger
    budget).

    Attributes
    ----------
    timeout:
        The requested budget in seconds (``None`` if the deadline was
        constructed from an absolute expiry).
    elapsed:
        Seconds actually spent before the checkpoint fired.
    """

    def __init__(self, message: str, timeout: "float | None" = None,
                 elapsed: "float | None" = None):
        super().__init__(message)
        self.timeout = timeout
        self.elapsed = elapsed


class ServiceError(ReproError):
    """Base class for query-service request failures (repro.service)."""


class QueueFullError(ServiceError):
    """Admission control rejected a request: the bounded queue is full.

    Raised under ``backpressure="reject"`` once ``max_pending`` requests
    wait, and under ``"block"`` for a TCP connection's request once the
    queue holds its wider event-loop bound.  The request was never
    enqueued, so it is always safe to retry after backing off.
    """


class ServiceClosedError(ServiceError):
    """The service is draining or shut down and accepts no new requests."""


class QuotaExceededError(ServiceError):
    """A per-client token-bucket quota rejected the request.

    Raised by the async front end (:mod:`repro.service.server`) when a
    client has exhausted its request-rate budget under
    ``backpressure="reject"``.  The request was never admitted, so it is
    always safe to retry after backing off for roughly
    ``retry_after`` seconds.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class RequestCancelledError(ServiceError):
    """The request was cancelled before completion.

    Raised on behalf of requests whose submitter went away — typically a
    streaming client that disconnected mid-answer.  Queued work is
    skipped entirely; in-flight work is cancelled cooperatively through
    its deadline.  Retryable: the query itself was fine, only this
    submission was abandoned.
    """


class ClientReadTimeoutError(ServiceError):
    """A client-side read deadline expired waiting for a response.

    Raised by :class:`repro.service.client.ServiceClient` (and its async
    sibling) when the server accepted the connection but no response line
    arrived within ``read_timeout`` seconds — a hung or wedged server no
    longer blocks the caller forever.  The connection is left in an
    unusable half-read state and is closed; open a fresh client and
    resend (``retryable`` is ``True``: the request may or may not have
    executed, and every protocol op is either read-only or idempotent
    at-least-once from the client's point of view).
    """

    retryable = True
    code = "client_timeout"


class ShardError(ServiceError):
    """A sharded execution could not produce a complete answer.

    Raised by the shard coordinator (:mod:`repro.shard`) when a shard
    worker is unreachable, exits mid-request, misses its per-shard
    deadline, or returns an error — the coordinator never silently
    drops a shard's rows, so any incomplete gather surfaces as this
    error instead of a partial result.

    Attributes
    ----------
    retryable:
        ``True`` (the default) for transport-level failures — the
        coordinator restarts dead workers, so a retry can succeed.
        ``False`` when a shard reported a non-retryable query error
        (the retry would deterministically fail again) or the
        coordinator was asked to run against an unsharded database.
    shard:
        Index of the failing shard (``None`` when not tied to one).
    """

    def __init__(self, message: str, retryable: bool = True,
                 shard: "int | None" = None):
        super().__init__(message)
        self.retryable = retryable
        self.shard = shard


class ArityError(ReproError):
    """A relation was used with the wrong number of arguments."""


class UndecidableError(ReproError):
    """The requested analysis is undecidable for this language.

    Raised e.g. when asking for a state-safety *decision* in RC_concat
    (Corollary 1 of the paper); bounded semi-decision procedures are offered
    instead.
    """
