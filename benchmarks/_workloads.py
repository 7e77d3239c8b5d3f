"""Shared workload helpers for the benchmark suite.

The paper's evaluation ran a Java implementation on a 2008 Pentium IV with
runs of up to 2000 edges and 100-200 samples per point.  This pure-Python
reproduction scales the sweeps down (sizes and sample counts) while
keeping every workload *shape* identical; set the environment variable
``REPRO_BENCH_SCALE`` (default ``1.0``) to grow or shrink the sweeps.

Every benchmark writes its printed table to ``benchmarks/results/`` so the
figures can be compared against the paper after a run (the committed
``BENCH_*`` files and ``docs/PERFORMANCE.md`` record such runs).
"""

from __future__ import annotations

import os
import time
import zlib
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def scaled(value: int, minimum: int = 1) -> int:
    """Scale a sweep size by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(round(value * SCALE)))


def emit(name: str, lines: List[str]) -> None:
    """Print a results table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf8")


def stable_seed(*parts: object) -> int:
    """A seed in ``[0, 10000)`` that is the same in every process.

    ``hash`` of a string is salted per process (``PYTHONHASHSEED``), so
    a sweep seeded with it would time different inputs on every run.
    """
    key = "|".join(str(part) for part in parts)
    return zlib.crc32(key.encode()) % 10_000


def timed(func: Callable, *args, **kwargs) -> Tuple[float, object]:
    """(elapsed seconds, result) of one call."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def run_pair_with_total_edges(
    spec: WorkflowSpecification,
    target_total: int,
    seed: int,
    tolerance: float = 0.25,
    max_attempts: int = 40,
) -> Tuple[WorkflowRun, WorkflowRun]:
    """Generate a run pair whose total edge count approximates a target.

    Mirrors Fig. 11's x-axis ("total number of edges in two runs"): fork
    and loop replication factors are searched until the pair lands within
    ``tolerance`` of ``target_total``.  While the factor can step down,
    an attempt whose first run alone overshoots the target by more than
    ``tolerance`` builds no second run (it could never be kept); after
    ``max_attempts`` the closest pair built is returned.
    """
    base_edges = 2 * spec.num_edges
    factor = max(1, round(target_total / max(1, base_edges)))
    best: Optional[Tuple[WorkflowRun, WorkflowRun]] = None
    best_gap = float("inf")
    for attempt in range(max_attempts):
        params = ExecutionParams(
            prob_parallel=0.95,
            max_fork=max(1, factor),
            prob_fork=0.7,
            max_loop=max(1, factor),
            prob_loop=0.7,
        )
        one = execute_workflow(
            spec, params, seed=seed * 1000 + attempt * 2, name="a"
        )
        if factor > 1 and one.num_edges > target_total * (1 + tolerance):
            # This pair can never be kept: build no second run, and
            # step the factor down as an overshooting pair would.
            factor -= 1
            continue
        two = execute_workflow(
            spec, params, seed=seed * 1000 + attempt * 2 + 1, name="b"
        )
        total = one.num_edges + two.num_edges
        gap = abs(total - target_total) / target_total
        if gap < best_gap:
            best_gap = gap
            best = (one, two)
        if gap <= tolerance:
            return one, two
        if total < target_total:
            factor += 1
        elif factor > 1:
            factor -= 1
    assert best is not None
    return best
