"""repro.service — the concurrent query service on top of the engine core.

The serving tier (see ``docs/service.md``):

* :mod:`repro.service.service` — :class:`QueryService`: named-database
  registry, prepared queries, a bounded worker pool with admission
  control, per-request cooperative deadlines and cancellation,
  structured retryable errors, graceful drain, warm-start cache
  persistence (``warm_dir=``);
* :mod:`repro.service.protocol` — the NDJSON request/response protocol,
  including the streamed ``row_batch``/``done`` frames;
* :mod:`repro.service.server` — the stdio adapter and the asyncio TCP
  front end (``python -m repro serve``): 10k+ multiplexed connections,
  per-client token-bucket quotas, weighted fair queuing, cooperative
  cancellation of disconnected clients;
* :mod:`repro.service.quota` — the token-bucket and fair-queuing policy
  pieces the server composes;
* :mod:`repro.service.client` — a blocking TCP client (read deadlines,
  streamed runs) plus its asyncio sibling.
"""

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Dispatcher,
    ProtocolError,
    stream_frames,
)
from repro.service.quota import FairScheduler, TokenBucket
from repro.service.server import (
    AsyncTCPQueryServer,
    serve_stdio,
    serve_tcp,
)
from repro.service.service import (
    ErrorInfo,
    PendingRequest,
    PreparedQuery,
    QueryTemplate,
    QueryService,
    RunRequest,
    ServiceConfig,
    ServiceResponse,
    classify_error,
)

__all__ = [
    "AsyncServiceClient",
    "AsyncTCPQueryServer",
    "Dispatcher",
    "ErrorInfo",
    "FairScheduler",
    "PROTOCOL_VERSION",
    "PendingRequest",
    "PreparedQuery",
    "QueryTemplate",
    "ProtocolError",
    "QueryService",
    "RunRequest",
    "ServiceClient",
    "ServiceConfig",
    "ServiceResponse",
    "TokenBucket",
    "classify_error",
    "serve_stdio",
    "serve_tcp",
    "stream_frames",
]
