"""The corpus diff service: cached, parallel, incremental differencing.

Builds a small corpus of protein-annotation runs in a
:class:`repro.Workspace`, then exercises the corpus workloads the
paper's conclusions call for: the all-pairs distance matrix (cold vs
warm cache), nearest-run queries, incremental corpus growth, and the
medoid / outlier analytics that reveal which executions cluster
together and which differ from the majority.

Run with:  python examples/corpus_service.py
"""

import tempfile
import time

from repro import ExecutionParams, Workspace, execute_workflow
from repro.workflow.real_workflows import protein_annotation


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="corpus-") as root:
        ws = Workspace(root)
        ws.register(protein_annotation())

        varied = ExecutionParams(
            prob_parallel=0.7,
            max_fork=3,
            prob_fork=0.6,
            max_loop=2,
            prob_loop=0.6,
        )
        for seed in range(1, 9):
            ws.generate_run(f"run{seed}", params=varied, seed=seed)
        print("corpus:", ", ".join(ws.runs()))
        print()

        # Cold call: every pair is an O(|E|^3) DP.  Warm call: pure
        # cache hits — zero DPs, served from the fingerprint-keyed
        # two-tier cache under <root>/index/.
        start = time.perf_counter()
        matrix = ws.matrix()
        cold = time.perf_counter() - start
        start = time.perf_counter()
        ws.matrix()
        warm = time.perf_counter() - start
        print(
            f"distance matrix over {len(matrix)} pairs: "
            f"cold {cold * 1e3:.1f} ms, warm {warm * 1e3:.2f} ms "
            f"({ws.stats['computed_pairs']} DPs total)"
        )
        print()

        # Which execution is most representative?  Which differ most?
        name, mean = ws.medoid()
        print(f"medoid run: {name} (mean distance {mean:.2f})")
        print("top outliers:")
        for outlier, distance in ws.outliers(top=3):
            print(f"  {outlier}: mean distance {distance:.2f}")
        print()

        # Nearest neighbours of one run (one-vs-many, never N^2 work).
        print("nearest to run1:")
        for other, distance in ws.nearest("run1", k=3):
            print(f"  {other}: {distance:g}")
        print()

        # Incremental growth: only the 8 new pairs are computed.
        before = ws.stats["computed_pairs"]
        newcomer = execute_workflow(
            ws.specification("PA"), varied, seed=99, name="run99"
        )
        new_pairs = ws.add_run(newcomer)
        print(
            f"add_run('run99'): {len(new_pairs)} new pairs, "
            f"{ws.stats['computed_pairs'] - before} DPs"
        )

        # A brand-new workspace over the same store starts warm from disk.
        reopened = Workspace(root)
        start = time.perf_counter()
        reopened.matrix()
        restart = time.perf_counter() - start
        print(
            f"fresh workspace, same store: full matrix in "
            f"{restart * 1e3:.2f} ms with "
            f"{reopened.stats['computed_pairs']} DPs"
        )


if __name__ == "__main__":
    main()
