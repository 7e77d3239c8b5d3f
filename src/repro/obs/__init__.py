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

import importlib

#: Where each export lives; the package imports none of them eagerly, so
#: a process that only logs never loads the metrics registry.
_EXPORTS = {
    "repro.obs.logging": (
        "LOG_FORMATS bound_request_id configure_logging "
        "current_request_id get_logger new_request_id"
    ),
    "repro.obs.metrics": (
        "Counter DEFAULT_LATENCY_BUCKETS Gauge Histogram MetricsRegistry"
    ),
    "repro.obs.promcheck": "parse_exposition",
    "repro.obs.runmeta": "RunMetadata capture_run_metadata",
}
_MODULE_OF = {
    name: module
    for module, names in _EXPORTS.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Resolve an export from its module's current attribute."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
