"""Querying a corpus of diffs: the provenance diff query engine.

Builds a corpus of protein-annotation runs, then asks the questions the
paper's PDiffView scenarios motivate but its one-pair-at-a-time viewer
cannot answer:

* which pairs of runs dropped an annotation module?
* how does the corpus edit, overall (operation-kind histogram)?
* which modules churn the most?
* where do two groups of executions diverge?

Run with:  python examples/query_demo.py
"""

import tempfile
import time

from repro import ExecutionParams, Q, Workspace
from repro.workflow.real_workflows import protein_annotation


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="query-") as root:
        ws = Workspace(root)
        ws.register(protein_annotation())

        varied = ExecutionParams(
            prob_parallel=0.7,
            max_fork=3,
            prob_fork=0.6,
            max_loop=2,
            prob_loop=0.6,
        )
        for seed in range(1, 11):
            ws.generate_run(f"run{seed:02d}", params=varied, seed=seed)
        print("corpus:", ", ".join(ws.runs()))
        print()

        # "Which runs dropped the GO annotation module, non-trivially?"
        # — a composable predicate, evaluated through the inverted
        # index.  The first query pays the pairwise diffs once (they
        # are cached and indexed as they are computed); repeats are
        # pure index reads.
        predicate = (
            Q.op_kind("path-deletion")
            & Q.touches("getGOAnnot")
            & Q.cost(min=2.0)
        )
        start = time.perf_counter()
        docs = ws.query(predicate)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        ws.query(predicate)
        warm = time.perf_counter() - start
        print(f"query: {predicate.describe()}")
        print(f"  cold {cold * 1e3:.1f} ms (diff + index build), "
              f"warm {warm * 1e3:.1f} ms (indexed)")
        for doc in docs[:5]:
            print(f"  {doc}")
        print()

        engine = ws.engine

        # How does this corpus edit, overall?
        print("operation-kind histogram:")
        for kind, count in sorted(engine.histogram("PA").items()):
            print(f"  {kind}: {count}")
        print()

        # Which modules churn the most across all diffs?
        print("module churn (top 5):")
        for entry in engine.churn("PA")[:5]:
            print(
                f"  {entry.label}: {entry.operations} ops, "
                f"cost {entry.total_cost:g} across {entry.pairs} pairs"
            )
        print()

        # Where do the first five executions diverge from the last five?
        report = engine.divergence(
            "PA",
            [f"run{i:02d}" for i in range(1, 6)],
            [f"run{i:02d}" for i in range(6, 11)],
        )
        print("group divergence (run01-05 vs run06-10):")
        for line in report.summary_lines():
            print(f"  {line}")
        print()

        # Everything is persistent: a fresh workspace over the same
        # store answers the same query from the on-disk index, zero diffs.
        fresh = Workspace(root)
        start = time.perf_counter()
        fresh.query(predicate)
        restart = time.perf_counter() - start
        print(
            f"fresh workspace, same store: query in {restart * 1e3:.1f} ms "
            f"({fresh.stats['computed_scripts']} scripts recomputed)"
        )


if __name__ == "__main__":
    main()
