"""``serve-mixed`` and ``serve-cluster``: reads beside writes over HTTP.

Set-up imports one pipeline family, starts ``repro serve`` on it (one
process with the thread backend, or ``--workers 2`` for the cluster),
and warms it through the wire: the family's distance matrix, every
directed pair of a slice of runs (the warm diff pool and query slice),
and every query page the traffic asks for.

Two closed-loop client connections (``RemoteWorkspace``) then send a
seeded mix, counted by operations:

* ``GET /diff`` — most operations; about 5 % of them go to a pair never
  requested before, so they pay the cold DP and edit script;
* paged ``POST /query`` over the warm slice (kind, touches and cost
  shapes);
* a write — a fresh run streamed over ``POST /stream/events`` up to
  ``run_close``, which prices it against the corpus and flushes the
  derived state.

Program counters (CPU, ``wchar``, peak RSS) come from ``/proc`` of the
serving processes.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, List

from harness import common, inputs, layers, procstat, spans

CONNECTIONS = 2
#: Query pages per shape (the cursors the traffic follows).
QUERY_PAGES = 2
#: Streamed runs available to each connection per run.
WRITES_PER_CONNECTION = 48
#: Served diffs (per class) compared with in-process diffs per run.
DIFF_AUDIT = 6
BOOT_TIMEOUT = 60.0
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


@dataclass
class Record:
    kind: str
    start: float
    end: float
    ok: bool
    cold: bool = False
    detail: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self, ctx, store: str, workers: int, trace_path=None):
        command = [sys.executable]
        command += [LAUNCHER, trace_path] if trace_path else ["-m", "repro.cli"]
        command += [
            "serve", store,
            "--port", "0",
            "--backend", "thread",
            "--jobs", str(common.cpu_cores()),
            "--log-format", "off",
        ]
        if workers:
            command += ["--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        self.log = open(
            os.path.join(ctx.state, "server.log"), "a", encoding="utf8"
        )
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=env,
            cwd=ctx.root,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"at (http://\S+)", line)
        if not match:
            self.stop()
            raise common.BenchError(f"server did not start: {line!r}")
        self.url = match.group(1)
        self.health = self._await_health(workers)

    def _await_health(self, workers: int) -> dict:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            try:
                health = get_json(self.url + "/healthz")
                cluster = health.get("cluster")
                if not workers or (
                    cluster and cluster.get("alive") == workers
                ):
                    return health
            except OSError:
                pass
            time.sleep(0.05)
        self.stop()
        raise common.BenchError("server never became healthy")

    @property
    def pids(self) -> List[int]:
        members = (self.health.get("cluster") or {}).get("members", [])
        return [self.proc.pid] + [member["pid"] for member in members]

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf8"))


def _client(url):
    from repro.client import RemoteWorkspace

    # A one-entry revalidation memo: every read is a full served diff.
    return RemoteWorkspace(url, etag_cache_size=1)


def _query_args(position: int, slice_runs):
    from repro.api_types import encode_cursor

    label, shape = inputs.QUERY_SHAPES[position % len(inputs.QUERY_SHAPES)]
    page = (position // len(inputs.QUERY_SHAPES)) % QUERY_PAGES
    cursor = encode_cursor(page * inputs.QUERY_PAGE) if page else None
    return (label, page), dict(
        filter=shape,
        spec=inputs.SERVE_SPEC,
        cursor=cursor,
        limit=inputs.QUERY_PAGE,
        runs=slice_runs,
    )


def _setup(ctx, family, pools, workers, attempt, trace_path=None):
    from repro import ReproConfig, Workspace

    store = common.fresh_dir(os.path.join(ctx.state, f"serve-store-{attempt}"))
    started = time.perf_counter()
    workspace = Workspace(store, ReproConfig(log_format="off"))
    for document in family:
        workspace.import_prov(
            document.document, name=document.run_name, diff=False
        )
    server = Server(ctx, store, workers, trace_path)
    try:
        _warm(server.url, pools)
    except BaseException:
        server.stop()
        raise
    return store, server, time.perf_counter() - started


def _warm(url, pools) -> None:
    """Make warm what the traffic treats as warm, over the wire."""
    client = _client(url)
    client.matrix(spec=inputs.SERVE_SPEC)
    warm = pools["warm"]

    def warm_part(part):
        remote = _client(url)
        for a, b in warm[part::CONNECTIONS]:
            remote.diff(a, b, spec=inputs.SERVE_SPEC)

    threads = [
        threading.Thread(target=warm_part, args=(part,))
        for part in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for position in range(len(inputs.QUERY_SHAPES) * QUERY_PAGES):
        client.query_page(**_query_args(position, pools["slice"])[1])


def _write(remote, run, connection: int):
    session = remote.stream(
        inputs.SERVE_SPEC, run.run_name, session=f"c{connection}-{run.run_name}"
    )
    for node, label in run.activities:
        session.activity(node, label)
    for src, dst in run.edges:
        session.edge(src, dst)
    return session.close_run()


def _connection(url, connection, seed, pools, writes, deadline, records):
    """One closed-loop client: the next operation after the last reply."""
    remote = _client(url)
    rng = random.Random(f"client|{seed}|{connection}")
    warm = pools["warm"]
    cold = pools["cold"][connection::CONNECTIONS]
    writes = list(writes)
    queries = 0
    for kind in inputs.traffic(seed, connection, 100_000):
        if time.perf_counter() >= deadline:
            return
        detail = None
        is_cold = False
        began = time.perf_counter()
        try:
            if kind == "diff":
                is_cold = bool(cold) and rng.random() < inputs.COLD_DIFF_SHARE
                a, b = cold.pop() if is_cold else rng.choice(warm)
                began = time.perf_counter()
                outcome = remote.diff(a, b, spec=inputs.SERVE_SPEC)
                ok = (outcome.run_a, outcome.run_b) == (a, b)
                detail = outcome
            elif kind == "query":
                key, arguments = _query_args(queries, pools["slice"])
                queries += 1
                began = time.perf_counter()
                page = remote.query_page(**arguments)
                ok = page.total_matches >= len(page.items)
                detail = (key, page)
            else:
                if not writes:
                    continue
                run = writes.pop(0)
                began = time.perf_counter()
                ack = _write(remote, run, connection)
                ok = True
                detail = (run.run_name, ack)
        except Exception as exc:  # noqa: BLE001 - counted, not raised
            ok = False
            detail = repr(exc)
        records.append(
            Record(kind, began, time.perf_counter(), ok, is_cold, detail)
        )


def _traffic(ctx, server, pools, writes, seconds) -> List[Record]:
    records: List[List[Record]] = [[] for _ in range(CONNECTIONS)]
    deadline = time.perf_counter() + seconds
    threads = [
        threading.Thread(
            target=_connection,
            args=(
                server.url, connection, ctx.seed, pools,
                writes[connection::CONNECTIONS], deadline,
                records[connection],
            ),
        )
        for connection in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(
        (record for part in records for record in part),
        key=lambda record: record.start,
    )


# ---------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------
def _check(server, store, records, slice_runs, tally) -> None:
    """Writes land once; served diffs and pages equal in-process ones."""
    from repro import ReproConfig, Workspace

    for record in records:
        tally.op(record.ok, "" if record.ok else f"{record.kind}: {record.detail}")
    written = [r.detail[0] for r in records if r.kind == "write" and r.ok]
    listed = _client(server.url).runs(inputs.SERVE_SPEC)
    duplicated = [name for name in written if listed.count(name) != 1]
    tally.check(not duplicated, f"streamed runs not landed once: {duplicated[:3]}")
    tally.check(
        len(listed) == inputs.SERVE_RUNS + len(written),
        f"{len(listed)} runs listed after {len(written)} writes",
    )
    server.stop()

    local = Workspace(store, ReproConfig(log_format="off", persistent=False))
    for cold in (False, True):
        served = [
            r.detail for r in records
            if r.kind == "diff" and r.ok and r.cold == cold
        ][:DIFF_AUDIT]
        for outcome in served:
            again = local.diff(outcome.run_a, outcome.run_b, spec=inputs.SERVE_SPEC)
            tally.check(
                again.distance == outcome.distance
                and [op.to_dict() for op in again.operations]
                == [op.to_dict() for op in outcome.operations],
                f"served diff {outcome.run_a}->{outcome.run_b} differs",
            )
    pages: Dict[object, object] = {}
    for record in records:
        if record.kind == "query" and record.ok:
            pages.setdefault(record.detail[0], record.detail[1])
    for position in range(len(inputs.QUERY_SHAPES) * QUERY_PAGES):
        key, arguments = _query_args(position, slice_runs)
        if key not in pages:
            continue
        again = local.query_page(**arguments)
        served = pages[key]
        tally.check(
            again.total_matches == served.total_matches
            and [(i.run_a, i.run_b, i.distance) for i in again.items]
            == [(i.run_a, i.run_b, i.distance) for i in served.items],
            f"served query page {key} differs",
        )


# ---------------------------------------------------------------------
# Scraped counters
# ---------------------------------------------------------------------
def _samples(metrics: dict, name: str) -> List[dict]:
    return metrics.get(name, {}).get("samples", [])


def _total(metrics: dict, name: str) -> float:
    return sum(sample.get("value", 0.0) for sample in _samples(metrics, name))


def _route_seconds(metrics: dict, route: str):
    total = count = 0.0
    for sample in _samples(metrics, "server_request_seconds"):
        if sample["labels"].get("route") == route:
            total += sample["sum"]
            count += sample["count"]
    return total, count


def _per_worker(metrics: dict, name: str) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for sample in _samples(metrics, name):
        worker = sample["labels"].get("worker", "0")
        counts[worker] = counts.get(worker, 0.0) + sample["value"]
    return counts


def _scrape(url: str) -> dict:
    stats = get_json(url + "/stats")
    metrics = get_json(url + "/metrics?format=json")["metrics"]
    return {"stats": stats, "metrics": metrics}


def _delta(after: dict, before: dict, key: str) -> float:
    return after["stats"]["counters"].get(key, 0) - before["stats"][
        "counters"
    ].get(key, 0)


def _route_ms(after, before, route) -> float:
    total_a, count_a = _route_seconds(after["metrics"], route)
    total_b, count_b = _route_seconds(before["metrics"], route)
    return common.ratio(total_a - total_b, count_a - count_b) * 1e3


# ---------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------
def run(ctx) -> dict:
    workers = 2 if ctx.workload == "serve-cluster" else 0
    family = inputs.serve_family(ctx.seed)
    names = sorted(document.run_name for document in family)
    pools = inputs.serve_pairs(ctx.seed, names)
    writes = inputs.streamed_runs(ctx.seed, WRITES_PER_CONNECTION * CONNECTIONS)
    tally = common.Tally()
    trace_path = None
    if ctx.trace:
        trace_path = os.path.join(
            ctx.state, f"trace-{ctx.workload}-{ctx.seed}.jsonl"
        )
    setups = []
    server = None
    try:
        for attempt in range(1 if ctx.trace else common.SETUP_REPEATS):
            if server is not None:
                server.stop()
            store, server, seconds = _setup(
                ctx, family, pools, workers, attempt, trace_path
            )
            setups.append(seconds)
        seconds = ctx.seconds * (2 if ctx.trace else 1)
        before = _scrape(server.url) if ctx.trace else None
        if ctx.trace:
            server.signal(signal.SIGUSR1)
        with procstat.Phase(server.pids) as phase:
            records = _traffic(ctx, server, pools, writes, seconds)
        if ctx.trace:
            server.signal(signal.SIGUSR2)
        after = _scrape(server.url) if ctx.trace else None
        _check(server, store, records, pools["slice"], tally)
    finally:
        if server is not None and server.proc.poll() is None:
            server.stop()
    elapsed = records[-1].end - records[0].start
    if not ctx.trace:
        return {
            "tally": tally,
            "window": phase.window,
            "metrics": layers.end_to_end(
                setup_s=common.median(setups),
                peak_rss_mb=phase.peak_mb,
                throughput_per_s=len(records) / elapsed,
                latency_p50_ms=common.median([r.seconds for r in records]) * 1e3,
                cpu_ms_per_op=phase.cpu_s * 1e3 / len(records),
            ),
        }
    return {
        "tally": tally,
        "window": phase.window,
        "metrics": layers.per_layer(
            _layer_values(workers, records, phase, before, after, trace_path,
                          tally)
        ),
    }


def _classify(records: List[Record], toggles: List[float]):
    """Split records into untraced and traced by the server's periods;
    a record that straddles a flip belongs to neither."""
    untraced, traced = [], []
    for record in records:
        first = bisect.bisect_right(toggles, record.start)
        last = bisect.bisect_right(toggles, record.end)
        if first == last:
            (traced if first % 2 else untraced).append(record)
    return untraced, traced


def _layer_values(workers, records, phase, before, after, trace_path,
                  tally) -> Dict[str, float]:
    span_list, header = spans.load(trace_path)
    untraced, traced = _classify(records, header["toggles"])
    self_s, calls = spans.self_times(span_list)
    requests = calls.get("request", 0)
    checked, violating = spans.check_op_accounting(span_list, "request")
    tally.check(
        violating == 0, f"{violating} of {checked} requests over-account time"
    )
    values = layers.span_metrics(self_s, calls, requests)
    counts = header["counts"]
    stats_after = after["stats"]
    server_requests = _delta(after, before, "server_requests") or _delta(
        after, before, "cluster_requests"
    )
    lookups = sum(
        _delta(after, before, key) for key in ("memory_hits", "disk_hits", "misses")
    )
    script_hits = _delta(after, before, "script_memory_hits") + _delta(
        after, before, "script_disk_hits"
    )
    script_lookups = script_hits + _delta(after, before, "script_misses")
    computed = _delta(after, before, "computed_pairs")
    skipped = _delta(after, before, "dp_skipped_by_bound")
    writes = [r for r in records if r.kind == "write"]
    lock_wait = stats_after["derived"].get("lock_wait_seconds", 0.0) - before[
        "stats"
    ]["derived"].get("lock_wait_seconds", 0.0)

    def kind(group, name):
        return [r.seconds * 1e3 for r in group if r.kind == name]

    diffs = kind(untraced, "diff")
    queries = kind(untraced, "query")
    values.update(
        {
            "corpus.bytes_written_per_write": common.ratio(
                phase.bytes_written, len(writes)
            ),
            "corpus.memory_hit_ratio": common.ratio(
                _delta(after, before, "memory_hits"), lookups
            ),
            "corpus.script_hit_ratio": common.ratio(script_hits, script_lookups),
            "corpus.lock_wait_s": common.ratio(lock_wait, server_requests),
            "core.dp_calls": common.ratio(
                computed + _delta(after, before, "computed_scripts"),
                server_requests,
            ),
            "core.dp_skip_ratio": common.ratio(skipped, computed + skipped),
            "query.candidates_per_match": common.ratio(
                counts.get("query.candidates", 0),
                counts.get("query.select.items", 0),
            ),
            "query.scripts_topped_up": spans.descendants_of(
                span_list, "query.select", "core.script"
            ),
            "service.diff_server_ms": _route_ms(after, before, "/diff/{a}/{b}"),
            "service.query_server_ms": _route_ms(after, before, "/query"),
            "service.stream_server_ms": _route_ms(after, before, "/stream/events"),
            "service.cpu_ms_per_request": common.ratio(
                phase.cpu_s * 1e3, server_requests
            ),
            "requests_per_s": len(records)
            / (records[-1].end - records[0].start),  # the whole phase
            "diff_p50_ms": common.percentile(diffs, 0.5),
            "diff_p99_ms": common.percentile(diffs, 0.99),
            "query_p50_ms": common.percentile(queries, 0.5),
            "query_p90_ms": common.percentile(queries, 0.9),
            "write_p50_ms": common.percentile(
                [r.seconds * 1e3 for r in writes], 0.5
            ),
            "error_ratio": common.ratio(tally.failed, tally.attempted),
            "obs.trace_overhead_pct": layers.overhead_pct(
                [r.seconds for r in untraced], [r.seconds for r in traced]
            ),
        }
    )
    if workers:
        metrics_a, metrics_b = after["metrics"], before["metrics"]
        per_worker = {
            worker: count - _per_worker(metrics_b, "server_requests_total").get(
                worker, 0.0
            )
            for worker, count in _per_worker(
                metrics_a, "server_requests_total"
            ).items()
        }
        client_diff_ms = common.median(
            [r.seconds * 1e3 for r in records if r.kind == "diff" and not r.cold]
        )
        values.update(
            {
                "cluster.parent_ms": client_diff_ms
                - _route_ms(after, before, "/diff/{a}/{b}"),
                "cluster.worker_skew": common.ratio(
                    max(per_worker.values()), min(per_worker.values())
                ),
                "cluster.coalesced": _total(
                    metrics_a, "cluster_coalesced_requests_total"
                )
                - _total(metrics_b, "cluster_coalesced_requests_total"),
                "cluster.proxied": _total(
                    metrics_a, "cluster_proxied_requests_total"
                )
                - _total(metrics_b, "cluster_proxied_requests_total"),
            }
        )
    return values
