"""Attack feasibility as a long-running, queryable service.

The serving layer the ROADMAP names: typed feasibility queries
(:class:`FeasibilityQuery`) answered concurrently by an asyncio service
(:class:`FeasibilityService`) — bounded job queue, single-flight
coalescing of identical in-flight queries, a process pool with warm
per-worker stack pools, a content-addressed result cache, supervised
retries/deadlines, and a live Prometheus ``/metrics`` endpoint
(:func:`start_http_server`). Overload never blocks a client: a full
queue, a tripped :class:`CircuitBreaker`, or a draining service sheds
requests with :class:`ServiceOverloaded` → HTTP 503 + ``Retry-After``.

:func:`execute_query` is the shared execution path: the service and the
in-process :func:`repro.api.query_feasibility` both call it, so a
service answer is byte-identical to a direct one.
"""

from .breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ServiceOverloaded,
)
from .cache import SERVE_CACHE_VERSION, QueryCache
from .execution import execute_query, execute_query_job
from .http import start_http_server
from .schema import (
    CaptureProbeStats,
    DWindowPoint,
    FeasibilityProbeTrial,
    FeasibilityQuery,
    FeasibilityReport,
    QueryProvenance,
    QueryResponse,
)
from .service import FeasibilityService, ServeConfig

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CaptureProbeStats",
    "CircuitBreaker",
    "DWindowPoint",
    "FeasibilityProbeTrial",
    "FeasibilityQuery",
    "FeasibilityReport",
    "FeasibilityService",
    "QueryCache",
    "QueryProvenance",
    "QueryResponse",
    "SERVE_CACHE_VERSION",
    "ServeConfig",
    "ServiceOverloaded",
    "execute_query",
    "execute_query_job",
    "start_http_server",
]
