"""Compare two sets of benchmark results, refusing unlike environments.

Each ``perfbench/run.py`` run keeps a stamped copy of its result under
``.perfbench/results/``.  Point this script at the result files of a
base and of a change::

    python3 perfbench/compare.py --base base/*.json --change new/*.json

For every workload and metric it prints both medians, the change as a
share of the base median, and whether that stays within the metric's
bound from ``BENCHMARK.json``.  Results taken on different
``cpu_cores`` are never compared (exit 2).  Runs on the held-out seed
are listed apart, because that seed confirms a claim; it does not tune
one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf8") as handle:
            result = json.load(handle)
        env = result["env"]
        key = (env["workload"], bool(env["trace"]), env["held_out_seed"])
        groups[key].append(result)
    return groups


def _cores(groups):
    return {
        result["env"]["cpu_cores"]
        for results in groups.values()
        for result in results
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    cores = _cores(base) | _cores(change)
    if len(cores) != 1:
        print(
            f"refusing to compare: results span cpu_cores {sorted(cores)}",
            file=sys.stderr,
        )
        return 2
    with open(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf8"
    ) as handle:
        manifest = json.load(handle)
    specs = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    worse_than_bound = 0
    for key in sorted(set(base) & set(change)):
        workload, trace, held_out = key
        label = f"{workload} trace={int(trace)}" + (" HELD-OUT" if held_out else "")
        print(f"== {label}: {len(base[key])} base runs, {len(change[key])} change runs")
        for name in sorted(base[key][0]["metrics"]):
            old = statistics.median(r["metrics"][name]["value"] for r in base[key])
            new = statistics.median(r["metrics"][name]["value"] for r in change[key])
            spec = specs.get(name, {})
            share = (new - old) / old if old else 0.0
            worse = share if spec.get("better") == "lower" else -share
            verdict = ""
            if "bound" in spec:
                within = worse <= spec["bound"]
                worse_than_bound += not within
                verdict = "ok" if within else f"WORSE than bound {spec['bound']}"
            unit = base[key][0]["metrics"][name]["unit"]
            print(f"  {name:32s} {old:14.6g} -> {new:14.6g} {unit:8s} "
                  f"{share:+8.2%} {verdict}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
