"""The metric catalogue: every name, unit and direction, in one place.

``BENCHMARK.json`` lists the same names, units and directions; this
catalogue adds which end-to-end metric each per-layer metric should
move, and on which workload.

Every run reports every metric of its kind.  An end-to-end metric is
measured on every workload (its meaning per workload is in
``perfbench/README.md``).  A per-layer metric reads 0 on a workload
that never reaches its layer.

Per-layer times are *self* times from the traced phase, divided by the
workload's operations (one import, one cold round, one HTTP request),
so they do not grow with how many operations fit in a run.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable

from harness.common import median, metric, ratio

WORKLOADS = ("ingest-flood", "matrix-cold", "serve-mixed", "serve-cluster")

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
)

# name, unit, better, moves (end-to-end, with the client-side reading
# that names it), workloads
PER_LAYER = (
    ("interchange.parse_s", "s/op", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("interchange.import_s", "s/op", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("interchange.normalize_s", "s/op", "lower",
     "throughput_per_s (ingest_p99_ms)", "ingest-flood"),
    ("io.spec_parses_per_import", "ratio", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("io.spec_parse_s", "s/op", "lower",
     "latency_p50_ms (ingest_p50_ms)", "ingest-flood"),
    ("io.save_run_s", "s/op", "lower",
     "latency_p50_ms (ingest_p50_ms)", "ingest-flood"),
    ("io.save_spec_s", "s/op", "lower",
     "latency_p50_ms (ingest_p50_ms)", "ingest-flood"),
    ("io.bytes_written_per_import", "B/op", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("sptree.canonical_s", "s/op", "lower",
     "throughput_per_s (ingest_runs_per_s); setup_s",
     "ingest-flood; matrix-cold"),
    ("sptree.annotate_run_s", "s/op", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("sptree.annotate_spec_s", "s/op", "lower",
     "throughput_per_s (ingest_runs_per_s)", "ingest-flood"),
    ("corpus.fingerprint_s", "s/op", "lower",
     "cpu_ms_per_op (write_p50_ms)", "serve-mixed"),
    ("corpus.flush_s", "s/op", "lower",
     "cpu_ms_per_op (write_p50_ms); throughput_per_s (matrix_pairs_per_s)",
     "serve-mixed; matrix-cold"),
    ("corpus.flush_calls", "count/op", "lower",
     "cpu_ms_per_op (write_p50_ms); throughput_per_s (matrix_pairs_per_s)",
     "serve-mixed; matrix-cold"),
    ("corpus.bytes_written_per_write", "B/op", "lower",
     "cpu_ms_per_op (write_p50_ms)", "serve-mixed"),
    ("corpus.memory_hit_ratio", "ratio", "higher",
     "latency_p50_ms (diff_p50_ms)", "serve-mixed"),
    ("corpus.script_hit_ratio", "ratio", "higher",
     "latency_p50_ms (diff_p50_ms)", "serve-mixed"),
    ("corpus.lock_wait_s", "s/op", "lower",
     "throughput_per_s (diff_p99_ms, requests_per_s)", "serve-mixed"),
    ("core.dp_calls", "count/op", "lower",
     "throughput_per_s (matrix_pairs_per_s)", "matrix-cold"),
    ("core.dp_s", "s/op", "lower",
     "throughput_per_s (matrix_pairs_per_s)", "matrix-cold"),
    ("core.script_s", "s/op", "lower",
     "latency_p50_ms (scripts_per_s; diff_p99_ms)",
     "matrix-cold; serve-mixed"),
    ("core.bound_s", "s/op", "lower",
     "latency_p50_ms (query_p50_ms)", "serve-mixed"),
    ("core.dp_skip_ratio", "ratio", "higher",
     "latency_p50_ms (query_p50_ms)", "serve-mixed"),
    ("backends.busy_s", "s/op", "lower",
     "throughput_per_s (matrix_pairs_per_s)", "matrix-cold"),
    ("backends.utilisation", "ratio", "higher",
     "throughput_per_s (matrix_pairs_per_s)", "matrix-cold"),
    ("query.select_s", "s/op", "lower",
     "latency_p50_ms (query_p50_ms)", "serve-mixed"),
    ("query.candidates_per_match", "ratio", "lower",
     "latency_p50_ms (query_p50_ms)", "serve-mixed"),
    ("query.scripts_topped_up", "count", "lower",
     "latency_p50_ms (query_p90_ms)", "serve-mixed"),
    ("service.diff_server_ms", "ms", "lower",
     "latency_p50_ms (diff_p50_ms)", "serve-mixed"),
    ("service.query_server_ms", "ms", "lower",
     "latency_p50_ms (query_p50_ms)", "serve-mixed"),
    ("service.stream_server_ms", "ms", "lower",
     "cpu_ms_per_op (write_p50_ms)", "serve-mixed"),
    ("service.cpu_ms_per_request", "ms", "lower",
     "throughput_per_s (requests_per_s)", "serve-mixed"),
    ("stream.apply_batch_s", "s/op", "lower",
     "cpu_ms_per_op (write_p50_ms)", "serve-mixed"),
    ("stream.close_s", "s/op", "lower",
     "cpu_ms_per_op (write_p50_ms)", "serve-mixed"),
    ("cluster.parent_ms", "ms", "lower",
     "latency_p50_ms (diff_p50_ms)", "serve-cluster"),
    ("cluster.worker_skew", "ratio", "lower",
     "throughput_per_s (requests_per_s)", "serve-cluster"),
    ("cluster.coalesced", "count", "higher",
     "latency_p50_ms (diff_p99_ms)", "serve-cluster"),
    ("cluster.proxied", "count", "higher",
     "latency_p50_ms (diff_p99_ms)", "serve-cluster"),
    ("obs.trace_overhead_pct", "%", "lower", "none (trust check)", "all"),
    # Client-side readings of the workloads, taken in the untraced
    # phase of a traced run.
    ("ingest_runs_per_s", "1/s", "higher", "throughput_per_s", "ingest-flood"),
    ("ingest_p50_ms", "ms", "lower", "latency_p50_ms", "ingest-flood"),
    ("ingest_p99_ms", "ms", "lower", "throughput_per_s", "ingest-flood"),
    ("matrix_pairs_per_s", "1/s", "higher", "throughput_per_s",
     "matrix-cold"),
    ("scripts_per_s", "1/s", "higher", "latency_p50_ms", "matrix-cold"),
    ("requests_per_s", "1/s", "higher", "throughput_per_s",
     "serve-mixed; serve-cluster"),
    ("diff_p50_ms", "ms", "lower", "latency_p50_ms",
     "serve-mixed; serve-cluster"),
    ("diff_p99_ms", "ms", "lower", "cpu_ms_per_op; throughput_per_s",
     "serve-mixed; serve-cluster"),
    ("query_p50_ms", "ms", "lower", "throughput_per_s",
     "serve-mixed; serve-cluster"),
    ("query_p90_ms", "ms", "lower", "throughput_per_s",
     "serve-mixed; serve-cluster"),
    ("write_p50_ms", "ms", "lower", "cpu_ms_per_op; throughput_per_s",
     "serve-mixed; serve-cluster"),
    ("error_ratio", "ratio", "lower", "none (correctness)", "all"),
)

#: Span name -> per-layer metric fed by its self time.
SPAN_METRICS = {
    "interchange.parse": "interchange.parse_s",
    "interchange.import": "interchange.import_s",
    "interchange.normalize": "interchange.normalize_s",
    "io.spec_parse": "io.spec_parse_s",
    "io.save_run": "io.save_run_s",
    "io.save_spec": "io.save_spec_s",
    "sptree.canonical": "sptree.canonical_s",
    "sptree.annotate_run": "sptree.annotate_run_s",
    "sptree.annotate_spec": "sptree.annotate_spec_s",
    "corpus.fingerprint": "corpus.fingerprint_s",
    "corpus.flush": "corpus.flush_s",
    "core.dp": "core.dp_s",
    "core.script": "core.script_s",
    "core.bound": "core.bound_s",
    "query.select": "query.select_s",
    "stream.apply_batch": "stream.apply_batch_s",
    "stream.close": "stream.close_s",
}

_UNITS = {name: unit for name, unit, *_ in END_TO_END}
_UNITS.update({name: unit for name, unit, *_ in PER_LAYER})


def end_to_end(**values: float) -> Dict[str, dict]:
    missing = {name for name, *_ in END_TO_END} - set(values)
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {name: metric(values[name], _UNITS[name]) for name, *_ in END_TO_END}


def per_layer(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric; a layer this workload never reached is 0."""
    unknown = set(values) - {name for name, *_ in PER_LAYER}
    if unknown:
        raise KeyError(f"not in the catalogue: {sorted(unknown)}")
    return {
        name: metric(values.get(name, 0.0), _UNITS[name])
        for name, *_ in PER_LAYER
    }


#: Units of a duration, and of a rate, in the catalogue.
_DURATIONS = {"s", "ms", "s/op"}
_RATES = {"1/s"}


def scaled(
    metrics: Dict[str, dict], wall_factor: float, cpu_factor: float
) -> Dict[str, dict]:
    """Durations times the probe factor, rates divided by it (see
    :mod:`harness.calibrate`): CPU times by the CPU factor, the rest by
    the wall-clock one.  Other metrics are unchanged."""
    out = {}
    for name, entry in metrics.items():
        value = entry["value"]
        factor = cpu_factor if "cpu_ms" in name else wall_factor
        if entry["unit"] in _DURATIONS:
            value *= factor
        elif entry["unit"] in _RATES:
            value /= factor
        out[name] = metric(value, entry["unit"])
    return out


def span_metrics(
    self_seconds: Dict[str, float], calls: Dict[str, int], ops: int
) -> Dict[str, float]:
    """Self seconds per operation of every span-fed metric."""
    values = {
        metric_name: ratio(self_seconds.get(span_name, 0.0), ops)
        for span_name, metric_name in SPAN_METRICS.items()
    }
    values["corpus.flush_calls"] = ratio(calls.get("corpus.flush", 0), ops)
    return values


def overhead_pct(untraced: Iterable[float], traced: Iterable[float]) -> float:
    """Traced vs untraced median latency, in percent."""
    base = median(list(untraced))
    return (median(list(traced)) - base) / base * 100.0 if base else 0.0


def check_manifest(path: str) -> None:
    """Refuse to run when ``BENCHMARK.json`` and this catalogue differ."""
    with open(path, encoding="utf8") as handle:
        manifest = json.load(handle)
    listed = (
        [w["name"] for w in manifest["workloads"]],
        [(m["name"], m["unit"], m["better"], m["bound"])
         for m in manifest["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
    )
    expected = (
        list(WORKLOADS),
        [tuple(row) for row in END_TO_END],
        [tuple(row[:3]) for row in PER_LAYER],
    )
    if listed != expected:
        raise ValueError(f"{path} does not match perfbench/harness/layers.py")
