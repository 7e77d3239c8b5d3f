"""A thread-safe metrics registry: counters, gauges, histograms.

Stdlib only — no ``prometheus_client``.  The design is write-locked,
**lock-free to read**: every update (``inc``/``set``/``observe``) takes
the metric's own mutex, while scrapes (:meth:`MetricsRegistry.snapshot`
and :meth:`MetricsRegistry.render_prometheus`) walk plain dicts without
acquiring any lock — under CPython's GIL a reader sees each sample
either before or after an update, never torn, so a scrape can never
stall the request path (and a wedged request thread can never stall a
scrape).

Metrics are identified by name and an optional set of labels; every
``(name, labels)`` combination is an independent sample series::

    registry = MetricsRegistry()
    requests = registry.counter(
        "server_requests_total", "Requests handled."
    )
    requests.inc(route="/healthz", method="GET", status="200")
    latency = registry.histogram(
        "server_request_seconds", "Request latency."
    )
    with latency.time(route="/healthz"):
        ...

A registry built with ``enabled=False`` accepts the same calls as
no-ops (near-zero cost), so instrumented code never branches on
configuration — ``REPRO_METRICS=off`` simply hands the stack a disabled
registry.

:meth:`MetricsRegistry.snapshot` returns the registry as a JSON-safe
dict (the ``/metrics?format=json`` face), and :func:`render_exposition`
renders such a snapshot — one registry's, or a cluster worker's merge
of several — in the Prometheus text exposition format (version 0.0.4):
``# HELP``/``# TYPE`` preambles, label-sorted sample lines, cumulative
histogram buckets with the ``+Inf`` terminator and ``_sum``/``_count``
series.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_exposition",
]

#: Fixed latency buckets (seconds): sub-millisecond cache hits through
#: multi-second cold DP batches.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: A label set's canonical identity: name-sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render as integers."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing: one mutex, one ``labels -> state`` table."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, enabled: bool = True):
        self.name = name
        self.help_text = help_text
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, Any] = {}

    def _samples(self) -> List[Tuple[LabelKey, Any]]:
        """A stable, lock-free listing of the sample series."""
        return sorted(self._series.items())


class BoundCounter:
    """One pre-resolved label combination of a :class:`Counter`.

    Hot paths (cache lookups, monitor acquisitions) increment the same
    label set millions of times; :meth:`Counter.bind` resolves the
    label key once so each increment is just the mutex and the add.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        if not counter.enabled:
            return
        if amount < 0:
            raise ValueError(
                f"counter {counter.name} cannot decrease (got {amount})"
            )
        with counter._lock:
            counter._series[self._key] = (
                counter._series.get(self._key, 0.0) + amount
            )


class _Scalar(_Metric):
    """Counter and gauge plumbing: static or callback-backed series."""

    def set_function(
        self, fn: Callable[[], float], **labels: str
    ) -> None:
        """Back the labelled series with a scrape-time callable."""
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = fn

    def value(self, **labels: str) -> float:
        """The labelled series' current value (0 when never touched)."""
        current = self._series.get(_label_key(labels), 0.0)
        return float(current() if callable(current) else current)

    def _resolved(self) -> List[Tuple[LabelKey, float]]:
        resolved = []
        for key, value in self._samples():
            try:
                resolved.append(
                    (key, float(value() if callable(value) else value))
                )
            except Exception:  # noqa: BLE001 - a broken collector
                continue  # must not take the whole scrape down
        return resolved

    def snapshot_samples(self) -> List[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in self._resolved()
        ]


class Counter(_Scalar):
    """A monotonically increasing sum (per label combination).

    Two feeding styles:

    * **event-driven** — :meth:`inc` per occurrence (or a pre-bound
      :class:`BoundCounter` from :meth:`bind` on hot paths);
    * **collected** — :meth:`set_function` backs a series with a
      scrape-time callable, for components that already keep an exact
      count under their own lock (cache hit tallies, monitor
      acquisition counts).  Collection costs the hot path *nothing*.
    """

    kind = "counter"

    def bind(self, **labels: str) -> BoundCounter:
        """A pre-resolved handle for one label combination."""
        return BoundCounter(self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the labelled series."""
        if not self.enabled:
            return
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"counter {self.name} series is callback-backed"
                )
            self._series[key] = current + amount

    def total(self) -> float:
        """The sum across every label combination."""
        return float(sum(value for _, value in self._resolved()))


class Gauge(_Scalar):
    """A value that goes up and down — or is pulled from a callback.

    :meth:`set_function` turns a labelled series into a *collector*:
    the callable is invoked at scrape time, so derived quantities
    (cache sizes, index document counts) stay exact without any
    event-driven bookkeeping.
    """

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"gauge {self.name} series is callback-backed"
                )
            self._series[key] = current + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    """One label combination's bucket counts, sum and count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution of observed values (e.g. latencies)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        enabled: bool = True,
    ):
        super().__init__(name, help_text, enabled)
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name} buckets must be strictly "
                f"increasing and non-empty: {buckets!r}"
            )
        self.buckets = ordered

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled series."""
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.counts[i] += 1
            series.total += value
            series.count += 1

    def time(self, **labels: str) -> "_Timer":
        """Context manager observing the block's wall-clock seconds."""
        return _Timer(self, labels)

    def count(self, **labels: str) -> int:
        """Observation count of the labelled series."""
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series.count

    def sum(self, **labels: str) -> float:
        """Observation sum of the labelled series."""
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series.total

    def snapshot_samples(self) -> List[dict]:
        return [
            {
                "labels": dict(key),
                "buckets": {
                    _format_value(bound): cumulative
                    for bound, cumulative in zip(
                        self.buckets, series.counts
                    )
                },
                "sum": series.total,
                "count": series.count,
            }
            for key, series in self._samples()
        ]


class _Timer:
    """The context manager :meth:`Histogram.time` hands out."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Dict[str, str]):
        self._histogram = histogram
        self._labels = labels

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(
            time.perf_counter() - self._start, **self._labels
        )


class MetricsRegistry:
    """A named collection of metrics with dual rendering faces.

    Metric constructors are get-or-create by name (the second caller
    receives the first caller's object), so independently instrumented
    components can share series without plumbing metric objects around.
    Asking for an existing name with a different metric kind raises —
    that is always a programming error.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, klass, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, klass):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {klass.kind}"
                    )
                return existing
            metric = klass(
                name, help_text, enabled=self.enabled, **kwargs
            )
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the named :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help_text, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        """The named metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    # -- rendering ------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        return render_exposition(self.snapshot())

    def snapshot(self) -> Dict[str, dict]:
        """The registry as a JSON-safe dict (the ``/metrics`` JSON face)."""
        return {
            name: {
                "type": self._metrics[name].kind,
                "help": self._metrics[name].help_text,
                "samples": self._metrics[name].snapshot_samples(),
            }
            for name in self.names()
        }


def render_exposition(snapshot: Dict[str, dict]) -> str:
    """A JSON metrics snapshot as Prometheus text exposition 0.0.4.

    ``snapshot`` has the ``/metrics?format=json`` shape
    (:meth:`MetricsRegistry.snapshot`): one registry's, or a cluster
    worker's merge of its own and its siblings'.  Families render in
    name order with escaped ``# HELP`` (omitted when empty) and ``#
    TYPE`` preambles; every histogram series ends its buckets with the
    ``+Inf`` one, equal to its ``_count``.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family["help"]:
            lines.append(
                f"# HELP {name} "
                + family["help"].replace("\\", "\\\\").replace("\n", "\\n")
            )
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            key = _label_key(sample["labels"])
            if family["type"] != "histogram":
                lines.append(
                    f"{name}{_render_labels(key)} "
                    f"{_format_value(sample['value'])}"
                )
                continue
            bounds = list(sample["buckets"].items()) + [
                ("+Inf", sample["count"])
            ]
            for bound, cumulative in bounds:
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(key, [('le', bound)])} {cumulative}"
                )
            lines.append(
                f"{name}_sum{_render_labels(key)} "
                f"{_format_value(sample['sum'])}"
            )
            lines.append(
                f"{name}_count{_render_labels(key)} {sample['count']}"
            )
    return "\n".join(lines) + "\n" if lines else ""
