"""One identity for specifications: the stored file.

A run means something only against the exact specification it
executed.  Every workspace, service and index over a store resolves a
specification name through its stored file (a ``stat`` decides whether
the content last read is still there), every value derived from a
specification is keyed by the resolved object, and every run write
meets the store's same-name guard.  Each case here once failed: a memo
keyed by the name kept an old specification (or its op ceiling) after
a re-registration, or a write path skipped the guard and stored a run
that no reader could load.
"""

from __future__ import annotations

import pytest

from repro import Q, ReproConfig, Workspace
from repro.corpus.fingerprint import spec_fingerprint
from repro.errors import ConflictError
from repro.graphs.flow_network import FlowNetwork
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import emboss, protein_annotation
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

VARIED = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)
FORK_HEAVY = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.9, max_loop=2, prob_loop=0.6
)


def stripped_pa() -> WorkflowSpecification:
    """PA's graph under its own name, without forks or loops."""
    return WorkflowSpecification(protein_annotation().graph, name="PA")


def branch_spec(length: int) -> WorkflowSpecification:
    """``S``: an edge ``s -> t`` beside a ``length``-edge path."""
    graph = FlowNetwork()
    graph.add_node("s", "s")
    graph.add_node("t", "t")
    graph.add_edge("s", "t")
    previous = "s"
    for index in range(1, length):
        graph.add_node(f"a{index}", f"a{index}")
        graph.add_edge(previous, f"a{index}")
        previous = f"a{index}"
    graph.add_edge(previous, "t")
    return WorkflowSpecification(graph, name="S")


def branch_run(spec, name: str, long_branch: bool) -> WorkflowRun:
    """A run of :func:`branch_spec`: the edge, and the path if asked."""
    graph = FlowNetwork()
    graph.add_node("s", "s")
    graph.add_node("t", "t")
    graph.add_edge("s", "t")
    if long_branch:
        previous = "s"
        inner = len(spec.graph.labels()) - 2
        for index in range(1, inner + 1):
            graph.add_node(f"a{index}", f"a{index}")
            graph.add_edge(previous, f"a{index}")
            previous = f"a{index}"
        graph.add_edge(previous, "t")
    return WorkflowRun(spec, graph, name=name)


def test_reregistered_spec_gates_queries_with_its_own_ceiling(tmp_path):
    """The cost gate's op ceiling ``L`` belongs to the specification
    object.  Kept per name, the old ``L = 2`` survived the
    re-registration, the unit packing bound of ``f``/``g`` became
    ``ceil(6/2) = 3`` above their distance 1, and the query dropped the
    matching pair."""
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    short = branch_spec(2)
    ws.register(short)
    ws.add_run(branch_run(short, "a", long_branch=False))
    ws.add_run(branch_run(short, "b", long_branch=False))
    assert len(ws.query(Q.cost(max=1.0), spec="S")) == 1
    long = branch_spec(6)
    ws.register(long)
    ws.add_run(branch_run(long, "f", long_branch=True))
    ws.add_run(branch_run(long, "g", long_branch=False))
    assert ws.diff("f", "g").distance == 1.0
    pairs = ["f", "g"]
    expected = [
        (doc.run_a, doc.run_b)
        for doc in ws.engine.scan("S", Q.cost(max=1.0), runs=pairs)
    ]
    assert expected == [("f", "g")]
    answered = ws.query(Q.cost(max=1.0), spec="S", runs=pairs)
    assert [(doc.run_a, doc.run_b) for doc in answered] == expected


def test_a_second_workspace_sees_a_reregistration(tmp_path):
    """Workspace ``a`` generates its next run against the specification
    stored now, not the one it registered: once it generated against
    its stale copy, the store held a fork-heavy run of a fork-free
    specification, and every later reader's matrix raised."""
    a = Workspace(tmp_path, ReproConfig(backend="serial"))
    a.register(protein_annotation())
    a.generate_run("r1", params=VARIED, seed=1)
    a.generate_run("r2", params=VARIED, seed=2)
    b = Workspace(tmp_path, ReproConfig(backend="serial"))
    b.register(stripped_pa())
    b.generate_run("r1", seed=3)
    b.generate_run("r2", seed=4)
    a.generate_run("r3", params=VARIED, seed=5)
    reader = Workspace(tmp_path, ReproConfig(backend="serial"))
    assert len(reader.matrix("PA")) == 3
    assert spec_fingerprint(a.specification("PA")) == spec_fingerprint(
        stripped_pa()
    )


def test_import_run_refuses_a_conflicting_specification(tmp_path):
    """``import_run`` meets the guard ``add_run`` meets: a fork-heavy run
    of the full PA is refused by a store holding a fork-free PA, and
    the store is left as it was (the run used to land, and every later
    matrix raised)."""
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    ws.register(stripped_pa())
    ws.generate_run("r1", seed=1)
    ws.generate_run("r2", seed=2)
    spec_file = tmp_path / "specs" / "PA.xml"
    before = spec_file.read_bytes()
    heavy = execute_workflow(
        protein_annotation(), FORK_HEAVY, seed=7, name="heavy"
    )
    with pytest.raises(ConflictError, match="different specification"):
        ws.import_run(heavy)
    assert ws.runs("PA") == ["r1", "r2"]
    assert spec_file.read_bytes() == before
    reader = Workspace(tmp_path, ReproConfig(backend="serial"))
    assert len(reader.matrix("PA")) == 1


def test_import_run_saves_a_missing_specification(tmp_path):
    """A run of a specification the store lacks lands with its
    specification, so no reader finds it orphaned."""
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    run = execute_workflow(protein_annotation(), VARIED, seed=7, name="x")
    ws.import_run(run)
    assert ws.specifications() == ["PA"]
    reader = Workspace(tmp_path, ReproConfig(backend="serial"))
    assert reader.run("x").equivalent(run)


def test_save_run_refuses_a_conflicting_specification(tmp_path):
    """The guard lives in ``WorkflowStore.save_run`` itself, so no write
    path can skip it: nothing of a refused run is written."""
    store = WorkflowStore(tmp_path)
    store.save_specification(stripped_pa())
    heavy = execute_workflow(
        protein_annotation(), FORK_HEAVY, seed=7, name="heavy"
    )
    with pytest.raises(ConflictError):
        store.save_run(heavy)
    assert store.list_runs("PA") == []
    assert not (tmp_path / "runs" / "PA").exists() or not list(
        (tmp_path / "runs" / "PA").iterdir()
    )


def test_reregistration_elsewhere_is_seen_by_a_warm_service(tmp_path):
    """A service that priced a family answers under the content stored
    now: after another workspace stores another workflow under the same
    name and regenerates the runs, the warm service's answers equal a
    fresh workspace's (its old copy could not even parse the runs)."""
    warm = Workspace(tmp_path, ReproConfig(backend="serial"))
    warm.register(protein_annotation())
    warm.generate_run("r1", params=VARIED, seed=1)
    warm.generate_run("r2", params=VARIED, seed=2)
    warm.matrix("PA")
    other = Workspace(tmp_path, ReproConfig(backend="serial"))
    other.register(WorkflowSpecification(emboss().graph, name="PA"))
    other.generate_run("r1", seed=3)
    other.generate_run("r2", seed=4)
    fresh = Workspace(
        tmp_path, ReproConfig(backend="serial", persistent=False)
    )
    assert warm.matrix("PA") == fresh.matrix("PA")
    assert warm.diff("r1", "r2").to_dict() == fresh.diff("r1", "r2").to_dict()
