"""Corpus service benchmark: cold vs warm cache, serial vs parallel.

Measures the :class:`repro.corpus.service.DiffService` on the paper's
generated workloads (the protein-annotation specification with varied
fork/loop behaviour):

* ``distance_matrix`` — cold cache serial, cold cache parallel, warm
  in-memory cache, and warm disk cache (fresh service instance);
* ``nearest_runs`` — cold and warm one-vs-many queries;
* ``add_run`` — incremental growth vs recomputing the full matrix;
* the family analytics — ``medoid``, ``outliers(top=5)`` and
  ``nearest_runs(k=5)`` on a pipeline family from
  :mod:`repro.scale.workloads`, each timed in three states: cold (no
  derived state), after 10 runs' rows were priced, and over a warm
  database in a fresh service (no family view, as after a restart).
  Each records its seconds, DPs and backend batches, and every answer
  must equal :mod:`repro.corpus.analytics` over a fresh full matrix.

Besides the usual printed table under ``benchmarks/results/``, the run
emits machine-readable ``benchmarks/results/BENCH_corpus.json`` so later
PRs can track the trajectory of these numbers.

Scale with ``REPRO_BENCH_SCALE`` (default corpus: 10 runs; default
family: 120 runs, the size at which per-row batches lost to one
matrix batch).
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
import time
from pathlib import Path

from _workloads import RESULTS_DIR, emit, scaled, stable_seed

from repro.corpus import analytics
from repro.corpus.service import DiffService
from repro.io.store import WorkflowStore
from repro.scale.workloads import make_workload
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


#: The family analytics, as (key, label, call on a service).
ANALYTICS = (
    ("medoid", "medoid", lambda service, spec, anchor: service.medoid(spec)),
    ("outliers", "outliers(top=5)",
     lambda service, spec, anchor: service.outliers(spec, top=5)),
    ("nearest", "nearest(k=5)",
     lambda service, spec, anchor: service.nearest_runs(spec, anchor, k=5)),
)

#: Runs whose rows are priced before the "10 rows" state's query.
PRICED_ROWS = 10


def batches(service: DiffService) -> int:
    """Backend batches the service dispatched (the ``dp_batch_size``
    histogram's count)."""
    samples = service.metrics.snapshot()["dp_batch_size"]["samples"]
    return int(sum(sample["count"] for sample in samples))


def family_section(base: Path, n_runs: int, record) -> None:
    """Time the family analytics in three states, against an oracle."""
    workload = make_workload(
        "pipeline", "family",
        seed=stable_seed("bench_corpus_service", "family"), runs=n_runs,
    )
    root = base / "family"
    store = WorkflowStore(root)
    for document in workload.documents():
        store.ingest_prov(
            document.document,
            run_name=document.run_name,
            spec_name=document.spec_name,
        )
    spec = workload.name
    names = store.list_runs(spec)
    anchor = names[-1]
    matrix = DiffService(store, persistent=False).distance_matrix(spec)
    expected = {
        "medoid": analytics.medoid(matrix, names=names),
        "outliers": analytics.outliers(matrix, names=names, top=5),
        "nearest": analytics.k_nearest(matrix, anchor, k=5, names=names),
    }

    def fresh_index() -> None:
        shutil.rmtree(root / "index", ignore_errors=True)

    def measure(state: str, label: str) -> None:
        for key, name, call in ANALYTICS:
            if state != "warm":
                fresh_index()
            service = DiffService(store)
            if state == "rows":
                for run in names[:PRICED_ROWS]:
                    service.nearest_runs(spec, run)
            dps, dispatched = service.computed_pairs, batches(service)
            gc.collect()
            seconds, answer = timed(call, service, spec, anchor)
            assert answer == expected[key], (state, key, answer)
            record(
                f"family_{state}_{key}", f"{name}, {label}", seconds,
                service.computed_pairs - dps,
                batches(service) - dispatched,
            )

    measure("cold", "cold")
    measure("rows", f"{PRICED_ROWS} rows priced")
    fresh_index()
    DiffService(store).distance_matrix(spec)  # the warm database
    measure("warm", "warm db, no view")


def main() -> None:
    n_runs = scaled(10, minimum=4)
    base = Path(tempfile.mkdtemp(prefix="bench-corpus-"))
    results = {"corpus_runs": n_runs}
    lines = [
        "Corpus diff service (protein annotation, "
        f"{n_runs} runs, {n_runs * (n_runs - 1) // 2} pairs)",
        f"{'workload':<38}{'seconds':>10}{'DPs':>6}",
    ]

    def record(
        key: str, label: str, seconds: float, dps: int, batches=None
    ) -> None:
        results[key] = {"seconds": seconds, "computed_pairs": dps}
        line = f"{label:<38}{seconds:>10.4f}{dps:>6}"
        if batches is not None:
            results[key]["batches"] = batches
            line += f"{batches:>9}"
        lines.append(line)

    # -- distance_matrix: cold serial vs cold parallel ------------------
    store = fresh_store(base, "serial", n_runs)
    serial = DiffService(store)
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

    # -- family analytics -------------------------------------------------
    family_runs = scaled(120, minimum=PRICED_ROWS + 2)
    results["family_runs"] = family_runs
    lines += [
        "",
        f"Family analytics (pipeline family, {family_runs} runs)",
        f"{'workload':<38}{'seconds':>10}{'DPs':>6}{'batches':>9}",
    ]
    family_section(base, family_runs, record)

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
