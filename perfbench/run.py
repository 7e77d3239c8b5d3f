"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest-flood --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice as long, alternating untraced and traced operations,
and prints every per-layer metric.  Durations and rates are scaled by
the speed probe of :mod:`harness.calibrate`.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the environment
stamp.  The program is imported from ``src/`` of the checkout; the
benchmark writes only under ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import calibrate, common, layers  # noqa: E402


@dataclass
class Context:
    root: str
    state: str
    workload: str
    seed: int
    seconds: int
    trace: bool


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _workload_module(name: str):
    if name == "ingest-flood":
        from harness import ingest

        return ingest
    if name == "matrix-cold":
        from harness import matrix

        return matrix
    from harness import serve

    return serve


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1, --seed >= 0", file=sys.stderr)
        return 2
    try:
        layers.check_manifest(os.path.join(ROOT, "BENCHMARK.json"))
        common.require_program(ROOT)
    except (common.BenchError, ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 3
    ctx = Context(
        root=ROOT,
        state=common.state_dir(ROOT),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    info = common.stamp(ROOT, ctx.workload, ctx.seed, ctx.trace, ctx.seconds)
    with calibrate.Probe() as probe:
        outcome = _workload_module(ctx.workload).run(ctx)
    wall_factor, cpu_factor = probe.factors(outcome["window"])
    info.update(probe_wall_factor=wall_factor, probe_cpu_factor=cpu_factor)
    tally = outcome["tally"]
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": layers.scaled(outcome["metrics"], wall_factor, cpu_factor),
    }
    for failure in tally.failures[:20]:
        print(f"failure: {failure}", file=sys.stderr)
    common.write_result(ROOT, info, dict(result, unscaled=outcome["metrics"]))
    print(json.dumps({"env": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
