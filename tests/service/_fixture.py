"""The deterministic fixture corpus shared by the service suite.

Imported by ``conftest.py`` for in-process fixtures, and runnable as a
script to materialise the same corpus on disk for an *external* server
(the CI job boots ``repro serve`` over it and points the remote half of
the conformance suite at it via ``REPRO_REMOTE_URL``)::

    python tests/service/_fixture.py /path/to/store

Determinism is the point: ``execute_workflow`` is seeded, so every
invocation — in any process, on any host — produces byte-identical
runs with identical fingerprints.  That is what lets the conformance
suite assert *bit-identical* distances and scripts between a local
workspace and a remote server built from this script.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from repro.config import ReproConfig
from repro.workflow.execution import ExecutionParams
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

SPEC_NAME = "PA"

#: Execution variability used for every fixture run (kept modest so the
#: O(|E|³) diffs stay fast in CI).
VARIED = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)

#: Seeds of the corpus runs ``r01`` .. ``r04``.
RUN_SEEDS = (1, 2, 3, 4)


def run_name(seed: int) -> str:
    """The fixture run name for a seed."""
    return f"r{seed:02d}"


def forget_sessions(root) -> None:
    """Delete a store's stream journals: sessions outlive a workspace,
    so a test that wants none open starts from here."""
    shutil.rmtree(Path(root) / "streams", ignore_errors=True)


def build_corpus(root) -> Workspace:
    """Materialise the fixture corpus at ``root`` (idempotent)."""
    workspace = Workspace(root, ReproConfig(backend="serial"))
    workspace.register(protein_annotation())
    for seed in RUN_SEEDS:
        workspace.generate_run(
            run_name(seed), params=VARIED, seed=seed
        )
    return workspace


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: _fixture.py STORE_DIR")
    built = build_corpus(sys.argv[1])
    print(
        f"fixture corpus at {built.store.root}: "
        f"{built.runs(SPEC_NAME)}"
    )
