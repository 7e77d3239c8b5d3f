"""``run_open`` on a warm family loads no run and stays O(N).

Opening a streaming session freezes the family's label counts and its
medoid.  Both come from derived state — label counts from the
fingerprint index entries, the medoid from the family view — so a warm
open parses no run XML and probes the distance cache O(N) times, not
once per pair, even in a process that never loaded the family.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter

import pytest

from repro import ReproConfig, Workspace
from repro.io.store import WorkflowStore
from repro.stream.events import RunOpen

from tests.corpus.conftest import populate_store

FAMILY = 120


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    """A 120-run PA family whose matrix one workspace already priced."""
    root = tmp_path_factory.mktemp("warm-family")
    populate_store(root, FAMILY)
    Workspace(root, ReproConfig(backend="serial")).matrix("PA")
    return root


def _open(workspace, session="s1", run="fresh"):
    return workspace.stream_hub.apply_batch(
        [RunOpen(session=session, spec_name="PA", run_name=run)]
    )


def _count_loads(monkeypatch):
    loads = []
    real = WorkflowStore.load_run

    def counting(self, spec, name):
        loads.append(name)
        return real(self, spec, name)

    monkeypatch.setattr(WorkflowStore, "load_run", counting)
    return loads


def _count_probes(monkeypatch, cache):
    probes = []
    for method in ("get", "peek"):
        real = getattr(cache, method)

        def counting(*args, _real=real, **kwargs):
            probes.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cache, method, counting)
    return probes


def test_warm_open_loads_no_run_and_probes_linearly(warm_root, monkeypatch):
    workspace = Workspace(warm_root, ReproConfig(backend="serial"))
    workspace.matrix("PA")  # warm from the database: no DP, no load
    loads = _count_loads(monkeypatch)
    probes = _count_probes(monkeypatch, workspace.service.cache)
    ack = _open(workspace)
    assert ack.status == "open"
    assert ack.live.medoid_run == workspace.medoid()[0]
    assert loads == []
    # One row for the medoid (per fingerprint among near-ties), never
    # the FAMILY * (FAMILY - 1) / 2 pairs of a per-pair scan.
    assert 0 < len(probes) <= 4 * FAMILY


def test_label_counts_survive_a_restart(warm_root, monkeypatch):
    reference = Workspace(warm_root, ReproConfig(backend="serial"))
    expected = {
        name: dict(Counter(reference.run(name).graph.labels().values()))
        for name in reference.runs("PA")
    }
    loads = _count_loads(monkeypatch)
    fresh = Workspace(warm_root, ReproConfig(backend="serial"))
    ack = _open(fresh, session="s2", run="fresh2")
    assert loads == []
    assert fresh.service.label_counts("PA", sorted(expected)) == expected
    assert ack.live.nearest_bound == 0.0  # nothing streamed yet


def test_entries_without_label_counts_are_backfilled(tmp_path):
    populate_store(tmp_path, 4)
    Workspace(tmp_path, ReproConfig(backend="serial")).matrix("PA")
    # Strip the counts, as a database written by an older version has.
    database = sqlite3.connect(str(tmp_path / "index" / "derived.db"))
    with database:
        for spec, run, text in database.execute(
            "SELECT spec, run, entry FROM fingerprints"
        ).fetchall():
            entry = json.loads(text)
            entry.pop("labels", None)
            database.execute(
                "UPDATE fingerprints SET entry = ? WHERE spec = ? AND run = ?",
                (json.dumps(entry), spec, run),
            )
    database.close()

    workspace = Workspace(tmp_path, ReproConfig(backend="serial"))
    run = workspace.run("r01")
    counts = workspace.service.label_counts("PA", ["r01"])
    assert counts == {"r01": dict(Counter(run.graph.labels().values()))}
    # The backfill reached the database: a later process reads it.
    database = sqlite3.connect(str(tmp_path / "index" / "derived.db"))
    (text,) = database.execute(
        "SELECT entry FROM fingerprints WHERE spec = 'PA' AND run = 'r01'"
    ).fetchone()
    database.close()
    assert json.loads(text)["labels"] == counts["r01"]
