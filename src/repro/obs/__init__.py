"""Production observability for the diff service (stdlib only).

Three small, dependency-free pillars, threaded through the serving
stack by :mod:`repro.service`, :mod:`repro.corpus.service` and the CLI:

* :mod:`repro.obs.metrics` — a thread-safe, lock-free-to-read metrics
  registry (counters, gauges, fixed-bucket histograms) rendered as
  Prometheus text exposition or JSON by ``GET /metrics``;
* :mod:`repro.obs.logging` — structured JSON/text logging with a
  per-request correlation ID carried in a :mod:`contextvars` variable
  and propagated over HTTP as ``X-Request-Id``;
* :mod:`repro.obs.runmeta` — CWLProv-style operational metadata (who,
  where, when, which tool version) captured for every ingested run and
  persisted inside the run's own document.

:mod:`repro.obs.promcheck` validates Prometheus exposition syntax — the
CI job runs it against a live ``/metrics`` scrape, and the golden tests
use it to keep the renderer honest.
"""

from repro.obs.logging import (
    LOG_FORMATS,
    bound_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    new_request_id,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.promcheck import parse_exposition
from repro.obs.runmeta import RunMetadata, capture_run_metadata

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LOG_FORMATS",
    "MetricsRegistry",
    "RunMetadata",
    "bound_request_id",
    "capture_run_metadata",
    "configure_logging",
    "current_request_id",
    "get_logger",
    "new_request_id",
    "parse_exposition",
]
