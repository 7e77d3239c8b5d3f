"""DP benchmark: the fast paths vs the pre-optimisation DP.

The baseline reproduces what every pair cost before the fast paths
landed: load the corpus, then — per pair — realign specifications,
build both :class:`DeletionTables` and the :class:`SpecCostTables`
from scratch, and fill the identity-keyed DP table
(:class:`~repro.baselines.identity_dp.IdentityKeyedComputation`)
*eagerly* over the full product of homologous node pairs (the original
``_run`` loop).  The optimised side is a cold
:meth:`DiffService.distance_matrix` on the serial backend, which layers
fingerprint seeding, lazy demand-driven cells, the ``≡``-shortcut,
batch-shared tables and shapes, and batch-shared DP cells.

One cold matrix takes about 0.1 s, too short for one reading to mean
much, so both sides are timed in alternating rounds on one store (5,
or 3 with ``--quick``), and the optimised matrix is asserted
bit-identical to the baseline in every round.  Each side's median and
quartiles, and the ratio of the medians, are written to
``benchmarks/results/BENCH_dp.json`` so later changes can track them.

``--quick`` shrinks the corpus for CI smoke runs; the full run uses
the 50-run corpus the acceptance numbers quote.  Scale further with
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from _workloads import RESULTS_DIR, emit, scaled

from repro.backends.base import SerialBackend
from repro.baselines.identity_dp import IdentityKeyedComputation
from repro.core.api import _align_specs
from repro.corpus.service import DiffService
from repro.costs.standard import UnitCost
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


def _group_by_origin(tree):
    groups = {}
    for node in tree.iter_nodes("pre"):
        groups.setdefault(id(node.origin), []).append(node)
    return groups


def baseline_matrix(store: WorkflowStore, cost) -> "tuple[float, dict]":
    """The pre-optimisation evaluation: eager DP, fresh tables per pair.

    Mirrors the original computation faithfully — the ``_decide*``
    bodies are unchanged, so forcing every homologous product through
    the identity-keyed ``decision`` with per-pair tables reproduces the
    old cost profile (and its exact float results, which the optimised
    paths must hit bit-for-bit).
    """
    start = time.perf_counter()
    spec = store.load_specification("PA")
    names = sorted(store.list_runs(spec.name))
    runs = {name: store.load_run(spec, name) for name in names}
    matrix = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            run1, run2 = runs[a], runs[b]
            run2 = _align_specs(run1, run2)
            comp = IdentityKeyedComputation(
                run1.spec, run1.tree, run2.tree, cost
            )
            groups1 = _group_by_origin(run1.tree)
            groups2 = _group_by_origin(run2.tree)
            for spec_node in run1.spec.tree.iter_nodes("post"):
                for v1 in groups1.get(id(spec_node), []):
                    for v2 in groups2.get(id(spec_node), []):
                        comp.decision(v1, v2)
            matrix[(a, b)] = comp.distance
    return time.perf_counter() - start, matrix


def optimised_matrix(store: WorkflowStore, cost) -> "tuple[float, dict]":
    """A cold service pricing the same corpus with all fast paths on."""
    start = time.perf_counter()
    service = DiffService(store, persistent=False, backend=SerialBackend())
    matrix = service.distance_matrix("PA", cost=cost)
    return time.perf_counter() - start, matrix


def summarise(samples) -> dict:
    """Median and quartiles of one side's round timings."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": median,
        "q1_s": q1,
        "q3_s": q3,
        "samples_s": list(samples),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus and 3 rounds for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n_runs = scaled(12, minimum=6) if args.quick else scaled(50, minimum=50)
    rounds = 3 if args.quick else 5

    base = Path(tempfile.mkdtemp(prefix="bench-dp-"))
    store = build_corpus(base, n_runs)
    cost = UnitCost()

    baseline_times, optimised_times = [], []
    for index in range(rounds):
        baseline_seconds, oracle = baseline_matrix(store, cost)
        seconds, matrix = optimised_matrix(store, cost)
        if matrix != oracle:
            raise AssertionError(
                f"round {index}: the optimised matrix disagrees with "
                "the eager baseline"
            )
        baseline_times.append(baseline_seconds)
        optimised_times.append(seconds)

    baseline = summarise(baseline_times)
    optimised = summarise(optimised_times)
    speedup = baseline["median_s"] / optimised["median_s"]
    results = {
        "corpus_runs": n_runs,
        "pairs": n_runs * (n_runs - 1) // 2,
        "quick": args.quick,
        "rounds": rounds,
        "baseline": baseline,
        "matrix_cold": {**optimised, "identical_to_baseline": True},
        "speedup_of_medians": round(speedup, 2),
    }
    lines = [
        f"DP fast paths (protein annotation, {n_runs} runs, "
        f"{results['pairs']} pairs, UnitCost, {rounds} rounds)",
        f"{'configuration':<44}{'median s':>10}{'q1-q3 s':>17}"
        f"{'speedup':>9}",
    ]
    for label, side, ratio in (
        ("per-pair eager DP, fresh tables", baseline, 1.0),
        ("cold distance_matrix", optimised, speedup),
    ):
        spread = f"{side['q1_s']:.4f}-{side['q3_s']:.4f}"
        lines.append(
            f"{label:<44}{side['median_s']:>10.4f}{spread:>17}"
            f"{ratio:>8.2f}x"
        )

    emit("BENCH_dp", lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_dp.json"
    out.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf8",
    )
    print(f"\nwrote {out}")
    shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
