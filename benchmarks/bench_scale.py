"""BENCH_scale: the 10³–10⁴-run corpus harness as a regression gate.

Builds a seeded realistic corpus (``repro.scale``: pipeline fan-out /
fan-in families, adversarial non-SP shapes, bounded-mutation drift,
heterogeneous mixes — all entering through the real import path) into
a scratch store, then drives the workloads that matter: bulk ingest
throughput, cold/warm distance-matrix time, indexed query latency, and
warm analytics plus one streamed write on the 400-run pipeline family.
Emits ``benchmarks/results/BENCH_scale.json`` and compares it against
the committed baseline with the ratio thresholds in
``repro.scale.gate``.

Modes::

    python benchmarks/bench_scale.py --quick   # 1k corpus, trimmed drivers
    python benchmarks/bench_scale.py           # 1000 runs (the gate)
    python benchmarks/bench_scale.py --full    # 10000 runs

The gate starts advisory: findings print but exit code stays 0 unless
``REPRO_SCALE_GATE=hard``.  ``--store DIR`` reuses a directory across
invocations (the build is resumable); default is a temp dir.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _workloads import RESULTS_DIR, emit  # noqa: E402

from repro import ReproConfig, Workspace  # noqa: E402
from repro.scale.build import BuildPlan, CorpusBuilder  # noqa: E402
from repro.scale.drivers import (  # noqa: E402
    DriverConfig,
    drive_workloads,
)
from repro.scale.gate import (  # noqa: E402
    evaluate_gate,
    gate_mode,
    skip_reason,
)

BASELINE = RESULTS_DIR / "BENCH_scale.json"


def measure(
    runs: int, store: Path, seed: int, quick: bool = False
) -> dict:
    workspace = Workspace(
        store, ReproConfig(backend="thread", persistent=True)
    )
    plan = BuildPlan(runs=runs, seed=seed)
    started = time.perf_counter()
    build = CorpusBuilder(workspace, plan).build()
    drivers = drive_workloads(
        workspace,
        DriverConfig(
            seed=seed,
            probe_runs=16 if quick else 32,
            query_repeats=5 if quick else 15,
        ),
    )
    report = {
        "benchmark": "scale",
        "corpus_runs": runs,
        "seed": seed,
        "cpu_cores": multiprocessing.cpu_count(),
        "total_seconds": round(time.perf_counter() - started, 2),
        "build": build.to_dict(),
    }
    report.update(drivers)
    return report


def render(report: dict) -> list:
    build = report["build"]
    ingest = report["ingest"]
    matrix = report["matrix"]
    query = report["query"]
    family = report["family"]
    stats = report["stats"]
    return [
        f"Scale harness ({report['corpus_runs']} planned runs, seed "
        f"{report['seed']}, {report['cpu_cores']} cpu core(s))",
        f"{'workload':<22}{'value':>14}",
        f"{'build runs/s':<22}{build['runs_per_second']:>14g}",
        f"{'build imported':<22}{build['imported']:>14d}",
        f"{'build skipped':<22}{build['skipped']:>14d}",
        f"{'forced-serial ratio':<22}"
        f"{build['forced_serialization_ratio']:>14g}",
        f"{'ingest runs/s':<22}{ingest['runs_per_second']:>14g}",
        f"{'matrix cold s':<22}{matrix['cold_seconds']:>14g}",
        f"{'matrix warm s':<22}{matrix['warm_seconds']:>14g}",
        f"{'query p50 ms':<22}{query['p50_ms']:>14g}",
        f"{'query p95 ms':<22}{query['p95_ms']:>14g}",
        f"{'family runs':<22}{family['runs']:>14d}",
        f"{'family medoid ms':<22}{family['medoid_ms']:>14g}",
        f"{'family run_open ms':<22}{family['run_open_ms']:>14g}",
        f"{'family write ms':<22}{family['write_ms']:>14g}",
        f"{'dp skipped by bound':<22}"
        f"{stats['dp_skipped_by_bound']:>14d}",
        f"{'dp skip ratio':<22}{stats['dp_skip_ratio']:>14g}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="same 1k corpus, trimmed driver repeats (CI budget)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="10k-run corpus (the 10^4 point; takes a while)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="override corpus size"
    )
    parser.add_argument("--seed", type=int, default=20090329)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="reuse this store directory (resumable) instead of a "
        "temp dir",
    )
    parser.add_argument(
        "--no-commit",
        action="store_true",
        help="print the report without rewriting the baseline",
    )
    args = parser.parse_args()
    # --quick keeps the 1k corpus (the committed-baseline point, so
    # the gate still compares like with like) but trims the driver
    # repeats to stay minutes-bounded in CI.
    if args.runs is not None:
        runs = args.runs
    elif args.full:
        runs = 10_000
    else:
        runs = 1_000

    baseline = None
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text(encoding="utf8"))

    scratch = args.store is None
    store = args.store or Path(
        tempfile.mkdtemp(prefix="bench-scale-")
    )
    try:
        report = measure(runs, store, args.seed, quick=args.quick)
    finally:
        if scratch:
            shutil.rmtree(store, ignore_errors=True)

    emit("BENCH_scale", render(report))

    findings = []
    if baseline is not None:
        reason = skip_reason(report, baseline)
        if reason is not None:
            print(f"\n{reason}: gate skipped")
        else:
            findings = evaluate_gate(report, baseline)
            for finding in findings:
                print(f"GATE: {finding.render()}")
            if not findings:
                print("\ngate: all thresholds green vs baseline")

    if not args.no_commit:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf8",
        )
        print(f"wrote {BASELINE}")

    if findings and gate_mode() == "hard":
        print(
            f"\n{len(findings)} hard gate failure(s) "
            "(REPRO_SCALE_GATE=hard)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
