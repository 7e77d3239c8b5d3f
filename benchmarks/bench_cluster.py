"""Cluster serving benchmark: single-thread vs threaded vs pre-forked.

Measures cold ``GET /diff/{a}/{b}`` throughput over the same generated
corpus in three serving regimes, on two corpora: the light runs of the
original benchmark, and DP-heavy runs on which one cold diff takes
about 50-60 ms on a 2-core VM:

* **single-thread** — one client, one single-process server: the
  baseline the paper's service layer was measured at;
* **threaded** — ``T`` client threads against one single-process
  server: request handling overlaps, but every DP still runs in one
  interpreter (the GIL bounds the speedup);
* **cluster** — the same ``T`` client threads against
  ``repro serve --workers W``: worker processes accepting from one
  socket run DPs on separate cores; no process relays a request.

Each regime gets its own freshly generated store (identical seeds →
identical corpora, all caches cold) so the sweeps are comparable.
Also checks the cluster's coalescing bound: ``K`` concurrent identical
cold diffs against a fresh cluster perform at most one DP per worker
(each worker's single-flight table; nothing coalesces across workers),
counted from the merged ``/metrics`` scrape.

The issue's ≥2x cluster-vs-single criterion only holds on a multi-core
box; ``cpu_cores`` is recorded alongside the numbers so a 1-core CI
result reads honestly.  Emits ``benchmarks/results/BENCH_cluster.json``.

Scale with ``REPRO_BENCH_SCALE`` or pass ``--quick`` for CI smoke.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from _workloads import RESULTS_DIR, emit, scaled

from repro.client import RemoteWorkspace
from repro.cluster.server import ClusterServer
from repro.config import ReproConfig
from repro.io.store import WorkflowStore
from repro.service.server import DiffServer
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation

PARAMS = ExecutionParams(
    prob_parallel=0.8,
    max_fork=4,
    prob_fork=0.7,
    max_loop=2,
    prob_loop=0.6,
)

#: Runs whose cold diffs the DP dominates (about 50-60 ms each).
HEAVY_PARAMS = ExecutionParams(
    prob_parallel=0.95,
    max_fork=11,
    prob_fork=0.92,
    max_loop=5,
    prob_loop=0.88,
)

WORKERS = 2
CLIENT_THREADS = 4
COALESCE_K = 8


def build_corpus(
    root: Path, n_runs: int, params: ExecutionParams = PARAMS
) -> WorkflowStore:
    store = WorkflowStore(root)
    spec = protein_annotation()
    store.save_specification(spec)
    for seed in range(1, n_runs + 1):
        store.save_run(
            execute_workflow(spec, params, seed=seed, name=f"r{seed:03d}")
        )
    return store


def sweep_single(url: str, pairs) -> float:
    """Seconds for one client to fetch every pair's diff sequentially."""
    client = RemoteWorkspace(url)
    start = time.perf_counter()
    for a, b in pairs:
        client.diff(a, b, spec="PA")
    return time.perf_counter() - start


def sweep_threaded(url: str, pairs, threads: int) -> float:
    """Seconds for ``threads`` clients to fetch a partition each."""
    chunks = [pairs[i::threads] for i in range(threads)]
    errors = []
    barrier = threading.Barrier(threads + 1)

    def worker(chunk):
        client = RemoteWorkspace(url)
        try:
            barrier.wait(timeout=60)
            for a, b in chunk:
                client.diff(a, b, spec="PA")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [
        threading.Thread(target=worker, args=(chunk,))
        for chunk in chunks
    ]
    for thread in pool:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def coalescing_proof(url: str, pair) -> dict:
    """Fire K identical cold diffs at once; count DPs from /metrics."""
    a, b = pair
    barrier = threading.Barrier(COALESCE_K)
    statuses = []
    lock = threading.Lock()

    def fire():
        barrier.wait(timeout=60)
        with urllib.request.urlopen(
            f"{url}/diff/{a}/{b}?spec=PA", timeout=120
        ) as reply:
            status = reply.status
            reply.read()
        with lock:
            statuses.append(status)

    pool = [threading.Thread(target=fire) for _ in range(COALESCE_K)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    with urllib.request.urlopen(
        f"{url}/metrics?format=json", timeout=60
    ) as reply:
        snapshot = json.loads(reply.read())
    dps = sum(
        sample["value"]
        for sample in snapshot["metrics"]
        .get("dp_invocations_total", {"samples": []})["samples"]
    )
    assert statuses == [200] * COALESCE_K, statuses
    return {"concurrent_requests": COALESCE_K, "dp_invocations": dps}


def measure(base: Path, n_runs: int, params, config) -> dict:
    """The three regimes' cold sweeps over one generated corpus."""
    names = [f"r{seed:03d}" for seed in range(1, n_runs + 1)]
    pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
    ]
    store = build_corpus(base / "single", n_runs, params)
    with DiffServer(store, config) as server:
        single = sweep_single(server.url, pairs)
    store = build_corpus(base / "threaded", n_runs, params)
    with DiffServer(store, config) as server:
        threaded = sweep_threaded(server.url, pairs, CLIENT_THREADS)
    # Workers re-open the store from its path in their own processes.
    build_corpus(base / "cluster", n_runs, params)
    with ClusterServer(base / "cluster", config, workers=WORKERS) as cluster:
        clustered = sweep_threaded(cluster.url, pairs, CLIENT_THREADS)
    row = {"corpus_runs": n_runs, "diff_requests": len(pairs)}
    for regime, seconds in (
        ("single_thread", single),
        ("threaded", threaded),
        ("cluster", clustered),
    ):
        row[regime] = {
            "seconds": seconds,
            "requests_per_second": len(pairs) / seconds,
        }
    row["cluster_speedup_vs_single_thread"] = single / clustered
    return row


def main() -> None:
    quick = "--quick" in sys.argv[1:]
    base = Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    cores = os.cpu_count() or 1
    config = ReproConfig(backend="serial", log_format="off")
    light = measure(
        base / "light", scaled(6 if quick else 10, minimum=4), PARAMS, config
    )
    heavy = measure(
        base / "heavy", scaled(5 if quick else 12, minimum=4),
        HEAVY_PARAMS, config,
    )
    # Each worker's single-flight table coalesces; nothing coalesces
    # across workers, so K identical cold diffs cost 1..WORKERS DPs.
    build_corpus(base / "coalesce", 2)
    with ClusterServer(
        base / "coalesce", config, workers=WORKERS
    ) as cluster:
        coalescing = coalescing_proof(cluster.url, ("r001", "r002"))

    results = {
        **light,
        "dp_heavy": heavy,
        "cpu_cores": cores,
        "workers": WORKERS,
        "client_threads": CLIENT_THREADS,
        "coalescing": coalescing,
    }
    lines = [
        f"Cluster serving (protein annotation, {WORKERS} workers, "
        f"{CLIENT_THREADS} client threads, {cores} cpu core(s))",
    ]
    for label, row in (("light", light), ("dp-heavy", heavy)):
        lines.append(
            f"{label} corpus: {row['corpus_runs']} runs, "
            f"{row['diff_requests']} cold diff requests"
        )
        lines.append(f"  {'regime':<16}{'seconds':>10}{'req/s':>10}")
        for regime in ("single_thread", "threaded", "cluster"):
            lines.append(
                f"  {regime.replace('_', '-'):<16}"
                f"{row[regime]['seconds']:>10.4f}"
                f"{row[regime]['requests_per_second']:>10.1f}"
            )
        lines.append(
            f"  cluster is {row['cluster_speedup_vs_single_thread']:.2f}x "
            "the single-thread sweep"
        )
    lines.append(
        f"coalescing: {coalescing['concurrent_requests']} concurrent "
        f"identical cold diffs performed "
        f"{coalescing['dp_invocations']:.0f} DP(s) "
        f"(at most {WORKERS}: one per worker)"
    )
    assert 1 <= coalescing["dp_invocations"] <= WORKERS, coalescing

    emit("BENCH_cluster", lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_cluster.json"
    out.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf8",
    )
    print(f"\nwrote {out}")
    shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
