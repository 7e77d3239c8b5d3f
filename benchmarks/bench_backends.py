"""Execution-backend benchmark: serial vs thread.

Times a **cold** ``distance_matrix`` (and a cold batch of edit
scripts) over a generated protein-annotation corpus on each
:mod:`repro.backends` implementation, against ``serial`` — the
reference and the default.  The edit-distance DP is pure Python, so
threads only contend for the GIL; both backends share one
:class:`~repro.core.memo.SharedTables` of tables and DP cells per
batch.  Both must produce identical matrices (asserted here and in the
equivalence property suite).

Besides the printed table, the run emits machine-readable
``benchmarks/results/BENCH_backends.json`` recording per-backend
wall-clock, the DP counts, the host's CPU count, the thread backend's
cold-matrix speedup over serial (``thread_vs_serial``, above 1 when it
wins) and the ``fastest`` backend.

Scale with ``REPRO_BENCH_SCALE`` (default corpus: 20 runs — the cold
matrix is 190 pairs) or pass ``--quick`` for CI smoke (8 runs).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from _workloads import RESULTS_DIR, emit, scaled, timed

from repro.backends.base import BACKEND_NAMES
from repro.corpus.service import DiffService
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation

# Heavier runs than the corpus-service benchmark, so the O(|E|³) DP
# dominates each pair's cost.
PARAMS = ExecutionParams(
    prob_parallel=0.9,
    max_fork=5,
    prob_fork=0.8,
    max_loop=3,
    prob_loop=0.7,
)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_corpus(root: Path, n_runs: int) -> WorkflowStore:
    store = WorkflowStore(root)
    spec = protein_annotation()
    store.save_specification(spec)
    for seed in range(1, n_runs + 1):
        store.save_run(
            execute_workflow(spec, PARAMS, seed=seed, name=f"r{seed:03d}")
        )
    return store


def main() -> None:
    quick = "--quick" in sys.argv[1:]
    n_runs = scaled(8 if quick else 20, minimum=4)
    n_pairs = n_runs * (n_runs - 1) // 2
    cores = cpu_count()
    base = Path(tempfile.mkdtemp(prefix="bench-backends-"))
    store = build_corpus(base / "corpus", n_runs)
    script_pairs = [
        (f"r{a:03d}", f"r{a + 1:03d}") for a in range(1, n_runs)
    ]

    results = {
        "corpus_runs": n_runs,
        "matrix_pairs": n_pairs,
        "cpu_count": cores,
        "backends": {},
    }
    lines = [
        f"Execution backends (protein annotation, {n_runs} runs, "
        f"{n_pairs} cold pairs, {cores} cpu(s))",
        f"{'backend':<14}{'matrix s':>10}{'scripts s':>11}{'DPs':>6}",
    ]

    matrices = {}
    for name in BACKEND_NAMES:
        # persistent=False: every backend pays the full cold cost —
        # nothing is shared through the on-disk cache tiers.
        service = DiffService(store, persistent=False, backend=name)
        matrix_seconds, matrix = timed(
            service.distance_matrix, "PA"
        )
        matrices[name] = matrix
        script_service = DiffService(
            store, persistent=False, backend=name
        )
        script_seconds, _ = timed(
            script_service.edit_scripts, "PA", script_pairs
        )
        results["backends"][name] = {
            "matrix_seconds": matrix_seconds,
            "scripts_seconds": script_seconds,
            "computed_pairs": service.computed_pairs,
        }
        lines.append(
            f"{name:<14}{matrix_seconds:>10.4f}{script_seconds:>11.4f}"
            f"{service.computed_pairs:>6}"
        )

    assert matrices["thread"] == matrices["serial"], (
        "thread backend disagrees with serial"
    )
    lines.append("both backends produced identical matrices")

    seconds = {
        name: timing["matrix_seconds"]
        for name, timing in results["backends"].items()
    }
    speedup = seconds["serial"] / seconds["thread"]
    results["thread_vs_serial"] = speedup
    lines.append(
        f"thread vs serial on the cold matrix: {speedup:.2f}x "
        + ("(faster)" if speedup > 1 else "(slower)")
    )
    results["fastest"] = min(seconds, key=seconds.get)
    lines.append(f"fastest on the cold matrix: {results['fastest']}")

    emit("BENCH_backends", lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_backends.json"
    out.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf8",
    )
    print(f"\nwrote {out}")
    shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
