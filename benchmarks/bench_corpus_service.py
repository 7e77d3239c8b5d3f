"""Corpus service benchmark: cold vs warm cache, serial vs parallel.

Measures the :class:`repro.corpus.service.DiffService` on the paper's
generated workloads (the protein-annotation specification with varied
fork/loop behaviour):

* ``distance_matrix`` — cold cache serial, cold cache parallel, warm
  in-memory cache, and warm disk cache (fresh service instance);
* ``nearest_runs`` — cold and warm one-vs-many queries;
* ``add_run`` — incremental growth vs recomputing the full matrix.

Besides the usual printed table under ``benchmarks/results/``, the run
emits machine-readable ``benchmarks/results/BENCH_corpus.json`` so later
PRs can track the trajectory of these numbers.

Scale with ``REPRO_BENCH_SCALE`` (default corpus: 10 runs).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from _workloads import RESULTS_DIR, emit, scaled

from repro.corpus.service import DiffService
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation

PARAMS = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


def build_corpus(root: Path, n_runs: int) -> WorkflowStore:
    store = WorkflowStore(root)
    spec = protein_annotation()
    store.save_specification(spec)
    for seed in range(1, n_runs + 1):
        store.save_run(
            execute_workflow(spec, PARAMS, seed=seed, name=f"r{seed:03d}")
        )
    return store


def fresh_store(base: Path, tag: str, n_runs: int) -> WorkflowStore:
    """A corpus with no derived state (every service starts cold)."""
    root = base / tag
    if root.exists():
        shutil.rmtree(root)
    return build_corpus(root, n_runs)


def timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def main() -> None:
    n_runs = scaled(10, minimum=4)
    base = Path(tempfile.mkdtemp(prefix="bench-corpus-"))
    results = {"corpus_runs": n_runs}
    lines = [
        "Corpus diff service (protein annotation, "
        f"{n_runs} runs, {n_runs * (n_runs - 1) // 2} pairs)",
        f"{'workload':<38}{'seconds':>10}{'DPs':>6}",
    ]

    def record(key: str, label: str, seconds: float, dps: int) -> None:
        results[key] = {"seconds": seconds, "computed_pairs": dps}
        lines.append(f"{label:<38}{seconds:>10.4f}{dps:>6}")

    # -- distance_matrix: cold serial vs cold parallel ------------------
    store = fresh_store(base, "serial", n_runs)
    serial = DiffService(store, max_workers=1)
    seconds, matrix = timed(serial.distance_matrix, "PA")
    record("matrix_cold_serial", "matrix, cold cache, serial",
           seconds, serial.computed_pairs)

    store = fresh_store(base, "parallel", n_runs)
    parallel = DiffService(store, backend="thread")
    seconds, parallel_matrix = timed(parallel.distance_matrix, "PA")
    record("matrix_cold_parallel", "matrix, cold cache, parallel",
           seconds, parallel.computed_pairs)
    assert parallel_matrix == matrix

    # -- distance_matrix: warm tiers ------------------------------------
    seconds, warm_matrix = timed(parallel.distance_matrix, "PA")
    record("matrix_warm_memory", "matrix, warm memory cache",
           seconds, 0)
    assert warm_matrix == matrix

    reopened = DiffService(store)
    seconds, disk_matrix = timed(reopened.distance_matrix, "PA")
    record("matrix_warm_disk", "matrix, warm disk cache (restart)",
           seconds, reopened.computed_pairs)
    assert disk_matrix == matrix

    # -- nearest_runs ----------------------------------------------------
    store = fresh_store(base, "nearest", n_runs)
    service = DiffService(store)
    seconds, _ = timed(service.nearest_runs, "PA", "r001")
    record("nearest_cold", "nearest_runs, cold cache",
           seconds, service.computed_pairs)
    before = service.computed_pairs
    seconds, _ = timed(service.nearest_runs, "PA", "r001")
    record("nearest_warm", "nearest_runs, warm cache",
           seconds, service.computed_pairs - before)

    # -- incremental add_run vs full recompute ---------------------------
    store = fresh_store(base, "add", n_runs)
    service = DiffService(store)
    service.distance_matrix("PA")
    before = service.computed_pairs
    spec = store.load_specification("PA")
    newcomer = execute_workflow(
        spec, PARAMS, seed=10_000, name="newcomer"
    )
    seconds, _ = timed(service.add_run, newcomer)
    record("add_run_incremental", "add_run (N new pairs only)",
           seconds, service.computed_pairs - before)

    cold_store = fresh_store(base, "addfull", n_runs)
    cold_store.save_run(newcomer)
    full = DiffService(cold_store)
    seconds, _ = timed(full.distance_matrix, "PA")
    record("add_run_full_recompute", "full recompute of grown corpus",
           seconds, full.computed_pairs)

    emit("BENCH_corpus", lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_corpus.json"
    out.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf8",
    )
    print(f"\nwrote {out}")
    shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
