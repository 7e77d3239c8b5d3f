"""Repository hygiene guards.

Benchmark runs build scratch stores; only source files and
``benchmarks/results/`` artifacts may ever be committed under
``benchmarks/``.  This test (tier-1) fails the moment a transient
store — like the historical
``benchmarks/<...WorkflowStore object at 0x...>/`` directory — gets
tracked, and ``.gitignore`` keeps untracked scratch out of ``git add``
reach.
"""

import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def tracked(prefix: str):
    try:
        output = subprocess.run(
            ["git", "ls-files", prefix],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("not a usable git checkout")
    return [line for line in output.splitlines() if line]


class TestBenchmarksTree:
    def test_only_sources_and_results_are_tracked(self):
        offenders = []
        for path in tracked("benchmarks"):
            parts = Path(path).parts
            if len(parts) == 2 and parts[1].endswith(".py"):
                continue  # benchmarks/*.py
            if len(parts) >= 2 and parts[1] == "results":
                continue  # benchmarks/results/**
            offenders.append(path)
        assert offenders == [], (
            "unexpected files tracked under benchmarks/ — scratch "
            f"stores must never be committed: {offenders}"
        )

    def test_no_repr_named_paths_anywhere(self):
        offenders = [
            path for path in tracked(".") if "object at 0x" in path
        ]
        assert offenders == []

    def test_gitignore_covers_benchmark_scratch(self):
        text = (REPO / ".gitignore").read_text(encoding="utf8")
        assert "benchmarks/*/" in text
        assert "!benchmarks/results/" in text
