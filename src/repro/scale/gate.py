"""Regression-gate arithmetic for the scale benchmark.

``benchmarks/bench_scale.py`` compares a fresh driver report against
the committed ``benchmarks/results/BENCH_scale.json`` baseline using
the ratio thresholds below, after :func:`skip_reason` has confirmed
that both reports measure the same corpus size on the same core
count.  The gate starts **advisory** (findings are printed, exit code
stays 0) and flips to **hard** via ``REPRO_SCALE_GATE=hard`` once two
green CI runs have established run-to-run variance — thresholds are
deliberately loose (2x-class) because they must catch *algorithmic*
regressions (a lost fast path, an accidental O(N²) scan), not
CI-runner jitter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

#: metric path -> (direction, ratio limit).  ``min`` metrics regress by
#: falling (current must stay >= baseline * ratio); ``max`` metrics by
#: rising (current must stay <= baseline * ratio).
DEFAULT_THRESHOLDS: Dict[str, Tuple[str, float]] = {
    "ingest.runs_per_second": ("min", 0.5),
    "matrix.cold_seconds": ("max", 2.0),
    "matrix.warm_seconds": ("max", 3.0),
    "query.p50_ms": ("max", 2.5),
    "query.p95_ms": ("max", 2.5),
    # On the 400-run family an O(N²) step per request costs seconds
    # against milliseconds, far past these ratios.
    "family.medoid_ms": ("max", 4.0),
    "family.run_open_ms": ("max", 4.0),
    "family.write_ms": ("max", 4.0),
}

#: Below these floors a metric is considered noise-dominated and the
#: gate skips it (e.g. a warm matrix in the low milliseconds).
ABSOLUTE_FLOORS: Dict[str, float] = {
    "matrix.warm_seconds": 0.05,
    "query.p50_ms": 2.0,
    "query.p95_ms": 2.0,
    "family.medoid_ms": 20.0,
    "family.run_open_ms": 30.0,
    "family.write_ms": 100.0,
}


@dataclass(frozen=True)
class GateFinding:
    """One threshold violation, human-renderable."""

    metric: str
    baseline: float
    current: float
    limit: float
    direction: str

    def render(self) -> str:
        verb = "fell below" if self.direction == "min" else "exceeded"
        return (
            f"{self.metric}: {self.current:g} {verb} the "
            f"{self.direction}-ratio limit {self.limit:g} "
            f"(baseline {self.baseline:g})"
        )


def _lookup(report: dict, path: str) -> Optional[float]:
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def skip_reason(current: dict, baseline: dict) -> Optional[str]:
    """Why ``current`` cannot be gated against ``baseline``, or ``None``.

    The gate compares like with like: a different corpus size or a
    different core count measures another machine or another
    workload, so the comparison is skipped rather than failed.
    """
    for key in ("corpus_runs", "cpu_cores"):
        if current.get(key) != baseline.get(key):
            return (
                f"baseline has {key}={baseline.get(key)}, this pass "
                f"has {current.get(key)}"
            )
    return None


def evaluate_gate(
    current: dict,
    baseline: dict,
    thresholds: Optional[Dict[str, Tuple[str, float]]] = None,
) -> List[GateFinding]:
    """Threshold violations of ``current`` against ``baseline``.

    Metrics missing from either report are skipped (a new metric
    cannot retroactively fail old baselines); metrics whose baseline
    sits under the absolute noise floor are skipped too.
    """
    findings: List[GateFinding] = []
    for metric, (direction, ratio) in sorted(
        (thresholds or DEFAULT_THRESHOLDS).items()
    ):
        if direction not in ("min", "max"):
            raise ReproError(
                f"threshold for {metric!r} has unknown direction "
                f"{direction!r}"
            )
        base = _lookup(baseline, metric)
        now = _lookup(current, metric)
        if base is None or now is None:
            continue
        floor = ABSOLUTE_FLOORS.get(metric)
        if floor is not None and base < floor and now < floor:
            continue
        limit = base * ratio
        violated = (
            now < limit if direction == "min" else now > limit
        )
        if violated:
            findings.append(
                GateFinding(
                    metric=metric,
                    baseline=base,
                    current=now,
                    limit=limit,
                    direction=direction,
                )
            )
    return findings


def gate_mode() -> str:
    """``"advisory"`` (default) or ``"hard"`` from REPRO_SCALE_GATE."""
    mode = os.environ.get("REPRO_SCALE_GATE", "advisory").lower()
    if mode not in ("advisory", "hard"):
        raise ReproError(
            f"REPRO_SCALE_GATE must be 'advisory' or 'hard', "
            f"got {mode!r}"
        )
    return mode
