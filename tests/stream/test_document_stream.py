"""A streamed run is the document its events accumulate.

The normaliser keeps that document and its successor sets, nothing
more: a cycle is found by a search at event time, a snapshot is the
whole-document import, and a close builds the run from the same
relations the importer reads (self-dependencies are no edges).
"""

from __future__ import annotations

import pytest

from repro.corpus.fingerprint import run_fingerprint, spec_fingerprint
from repro.errors import InterchangeError
from repro.interchange.normalize import _topological, normalize_document
from repro.interchange.prov_json import parse_prov_json
from repro.stream.incremental import IncrementalNormalizer
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_prov_document
from repro.workflow.real_workflows import protein_annotation

VARIED = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)


def _stream_with_a_self_dependency(ws, spec, run, mode):
    """Stream ``run``'s graph plus one self-dependency; the final ack."""
    with ws.stream(spec, run.name, mode=mode) as stream:
        labels = run.graph.labels()
        for node in run.graph.nodes():
            stream.activity(str(node), labels[node])
        for src, dst, _key in run.graph.edges():
            stream.edge(str(src), str(dst))
        some = str(next(iter(run.graph.nodes())))
        stream.edge(some, some)
        return stream.close_run()


def test_a_self_dependency_closes_in_both_modes(empty_ws):
    """A self-dependency is recorded but is no edge, in either mode:
    a validated run used to gain a self-loop and fail every close."""
    empty_ws.register(protein_annotation())
    spec = empty_ws.specification("PA")
    run = execute_workflow(spec, VARIED, seed=41, name="self-dep")

    validated = _stream_with_a_self_dependency(
        empty_ws, "PA", run, "validated"
    )
    derived = _stream_with_a_self_dependency(
        empty_ws, "PA-derived", run, "derive"
    )

    assert validated.status == derived.status == "closed"
    assert empty_ws.run("self-dep", spec="PA").equivalent(run)
    assert empty_ws.runs(spec="PA-derived") == ["self-dep"]
    assert derived.result.report["deduplicated_edges"] >= 1


def test_reverse_topological_non_sp_stream():
    """Edges arriving deepest first: a closing cycle is still refused
    at event time, and the snapshot still equals the whole import."""
    doc = parse_prov_json(
        random_prov_document(num_activities=14, edge_probability=0.4, seed=3)
    )
    whole = normalize_document(doc, name="S", run_name="r")
    assert not whole.report.was_series_parallel
    activities = doc.activity_ids()
    pairs = doc.dependency_pairs()
    rank = {node: i for i, node in enumerate(_topological(activities, pairs))}

    inc = IncrementalNormalizer("S", "r")
    for node in activities:
        inc.add_activity(node, "")
    for src, dst in sorted(pairs, key=lambda pair: -rank[pair[0]]):
        inc.add_edge(src, dst)

    successors = {}
    for src, dst in pairs:
        successors.setdefault(src, dst)
    path = [pairs[0][0]]
    while path[-1] in successors:
        path.append(successors[path[-1]])
    assert len(path) >= 3
    snapshot = inc.snapshot()
    for src, dst in [(path[-1], path[0])] + [(b, a) for a, b in pairs[:3]]:
        with pytest.raises(InterchangeError, match="cycle"):
            inc.add_edge(src, dst)
    assert inc.num_edges == len(pairs)
    assert inc.snapshot() is snapshot

    assert run_fingerprint(snapshot.run) == run_fingerprint(whole.run)
    assert spec_fingerprint(snapshot.spec) == spec_fingerprint(whole.spec)
    assert snapshot.report.to_dict() == whole.report.to_dict()
