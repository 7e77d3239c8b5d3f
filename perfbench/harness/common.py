"""Shared plumbing: paths, the environment stamp, percentiles, tallies."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median  # noqa: F401 - the harness-wide median
from typing import Dict, List, Sequence

#: Reserved for confirming a claimed gain after the change is written.
#: Tune and explore on other seeds; never on this one.
HELD_OUT_SEED = 90001

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run (missing program, bad arguments)."""


def state_dir(root: str) -> str:
    """Scratch space of the benchmark inside the checkout."""
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def require_program(root: str):
    """Import ``repro`` from the checkout's ``src/`` — and only there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    location = os.path.realpath(repro.__file__)
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"repro resolved outside the checkout: {location}")
    return repro


def cpu_cores() -> int:
    return len(os.sched_getaffinity(0))


def source_id(root: str) -> str:
    """The commit, or a digest of ``src/`` when there is no git."""
    try:
        # Only this checkout's own repository names the commit.
        if os.path.exists(os.path.join(root, ".git")):
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def stamp(root: str, workload: str, seed: int, trace: bool, seconds: int):
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
        "trace": trace,
        "seconds": seconds,
        "cpu_cores": cpu_cores(),
        "python": platform.python_version(),
        "commit": source_id(root),
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    if not samples:
        raise BenchError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Tally:
    """Operations and output checks: what was attempted, what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """An output check counts as one attempted operation."""
        self.op(ok, f"check failed: {what}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def write_result(root: str, info: dict, result: dict) -> str:
    """Keep a stamped copy of the result under ``.perfbench/results``."""
    folder = os.path.join(state_dir(root), "results")
    os.makedirs(folder, exist_ok=True)
    name = "{workload}-seed{seed}-trace{trace}-{stamp}.json".format(
        workload=info["workload"],
        seed=info["seed"],
        trace=int(info["trace"]),
        stamp=time.strftime("%Y%m%dT%H%M%S"),
    )
    path = os.path.join(folder, name)
    with open(path, "w", encoding="utf8") as handle:
        json.dump({"env": info, **result}, handle, indent=2, sort_keys=True)
    return path


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

