"""What a streamed batch costs, and that batching never changes an ack.

The hub builds one live snapshot per batch (for the ack of its last
event) and keeps the label-surplus bounds exact after every event from
the label-count changes the incremental normaliser reports.  These
tests pin both halves: the number of snapshots (``normalize_document``
calls) a batch makes, and — over random foreign documents in
``derive`` mode and executed fixture runs in ``validated`` mode, with
activities referenced before they are declared under another label —
exact bounds after every event and byte-identical acks at every batch
size.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ReproConfig
from repro.interchange import normalize
from repro.interchange.prov_json import parse_prov_json
from repro.stream import incremental
from repro.stream.events import ActivityEvent, EdgeEvent, RunClose, RunOpen
from repro.workflow.execution import execute_workflow
from repro.workflow.generators import random_prov_document
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

from _fixture import (  # noqa: E402
    SPEC_NAME,
    VARIED,
    build_corpus,
    forget_sessions,
)

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

SESSION = "batch-prop"
THRESHOLDS = (None, -1.0, 0.5, 1.5, 3.0)

_dirs = itertools.count(1)


@pytest.fixture
def assemble_calls(monkeypatch):
    """Count every ``normalize_document`` call, whichever module looks
    it up."""
    calls = []
    original = normalize.normalize_document

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(normalize, "normalize_document", counting)
    monkeypatch.setattr(incremental, "normalize_document", counting)
    return calls


def _stream_events(open_event, declarations, edges, order):
    """Number ``declarations`` and ``edges`` in the given ``order``."""
    items = [("activity", d) for d in declarations] + [
        ("edge", e) for e in edges
    ]
    events = [open_event]
    for index in order:
        kind, (a, b) = items[index]
        seq = len(events) + 1
        if kind == "activity":
            events.append(
                ActivityEvent(session=SESSION, seq=seq, node=a, label=b)
            )
        else:
            events.append(EdgeEvent(session=SESSION, seq=seq, src=a, dst=b))
    return events


def _run_items(run):
    """A run's ``(node, label)`` declarations and ``(src, dst)`` edges."""
    labels = run.graph.labels()
    declarations = [(str(node), labels[node]) for node in run.graph.nodes()]
    edges = [(str(src), str(dst)) for src, dst, _key in run.graph.edges()]
    return declarations, edges


def _chain_events(activities):
    """run_open plus ``activities`` activities and the edges chaining
    them, labelled with the fixture specification's modules."""
    labels = sorted(set(protein_annotation().graph.labels().values()))
    declarations = [
        (f"ex:n{i}", labels[i % len(labels)]) for i in range(activities)
    ]
    edges = [(f"ex:n{i}", f"ex:n{i + 1}") for i in range(activities - 1)]
    return _stream_events(
        RunOpen(session=SESSION, spec_name=SPEC_NAME, run_name="cost"),
        declarations,
        edges,
        range(len(declarations) + len(edges)),
    )


# -- cost ----------------------------------------------------------------
def test_one_batch_assembles_at_most_once(corpus_ws, assemble_calls):
    events = _chain_events(100)
    assert len(events) == 200
    ack = corpus_ws.stream_hub.apply_batch(events)
    assert ack.live.mode == "validated"
    assert ack.live.activities == 100
    assert len(assemble_calls) <= 1


def test_batch_ending_in_close_assembles_nothing(tmp_path, assemble_calls):
    workspace = build_corpus(tmp_path)
    run = execute_workflow(
        workspace.specification(SPEC_NAME), VARIED, seed=31, name="c31"
    )
    declarations, edges = _run_items(run)
    events = _stream_events(
        RunOpen(session=SESSION, spec_name=SPEC_NAME, run_name="c31"),
        declarations,
        edges,
        range(len(declarations) + len(edges)),
    )
    events.append(RunClose(session=SESSION, seq=len(events) + 1))
    ack = workspace.stream_hub.apply_batch(events)
    assert ack.status == "closed"
    assert ack.live is None
    assert assemble_calls == []


def test_one_event_batches_assemble_once_per_event(corpus_ws, assemble_calls):
    events = _chain_events(12)
    hub = corpus_ws.stream_hub
    for event in events:
        hub.apply(event)
    # run_open has no activities to snapshot; every later event does.
    assert len(assemble_calls) == len(events) - 1


# -- exact bounds, batch-invariant acks ----------------------------------
def _corpus_labels(workspace, spec):
    return {
        name: Counter(workspace.run(name, spec=spec).graph.labels().values())
        for name in workspace.runs(spec=spec)
    }


def _expected_bounds(label_counts, corpus):
    return {
        name: sum(
            max(0, count - have.get(label, 0))
            for label, count in label_counts.items()
        )
        for name, have in corpus.items()
    }


def _check_batching(root, events, corpus):
    """Bounds exact after every event; acks equal at every batch size."""
    singles = []
    forget_sessions(root)
    hub = Workspace(root, ReproConfig(backend="serial")).stream_hub
    for event in events:
        singles.append(hub.apply(event).to_dict())
        session = hub._sessions[SESSION]
        assert session.bounds == _expected_bounds(
            session.normalizer.label_counts(), corpus
        )
    for size in (3, 64):
        forget_sessions(root)
        hub = Workspace(root, ReproConfig(backend="serial")).stream_hub
        for start in range(0, len(events), size):
            batch = events[start:start + size]
            ack = hub.apply_batch(batch)
            assert ack.to_dict() == singles[batch[-1].seq - 1]
    return singles


@st.composite
def _relabelled(draw, nodes, labels):
    """A declared label per node: its own, another node's, or alien."""
    return [
        (
            node,
            draw(st.sampled_from([label, "alien"] + sorted(set(labels)))),
        )
        for node, label in zip(nodes, labels)
    ]


@SETTINGS
@given(
    num_activities=st.integers(min_value=2, max_value=9),
    edge_probability=st.floats(min_value=0.2, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10**6),
    threshold=st.sampled_from(THRESHOLDS),
    data=st.data(),
)
def test_derive_stream_bounds_and_acks(
    tmp_path_factory, num_activities, edge_probability, seed, threshold, data
):
    text = random_prov_document(
        num_activities=num_activities,
        edge_probability=edge_probability,
        seed=seed,
    )
    doc = parse_prov_json(text)
    root = tmp_path_factory.mktemp(f"batch-derive{next(_dirs)}")
    workspace = Workspace(root, ReproConfig(backend="serial"))
    # The original document is the corpus; the stream relabels it.
    workspace.import_prov(text, name="c1", spec_name="S")
    corpus = _corpus_labels(workspace, "S")
    nodes = doc.activity_ids()
    declarations = data.draw(_relabelled(nodes, nodes))
    edges = doc.dependency_pairs()
    order = data.draw(st.permutations(range(len(declarations) + len(edges))))
    events = _stream_events(
        RunOpen(
            session=SESSION,
            spec_name="S",
            run_name="r",
            threshold=threshold,
            mode="derive",
        ),
        declarations,
        edges,
        order,
    )
    singles = _check_batching(root, events, corpus)
    assert all(ack["live"]["mode"] == "derive" for ack in singles)


@SETTINGS
@given(
    seed=st.integers(min_value=11, max_value=60),
    aliens=st.integers(min_value=0, max_value=3),
    threshold=st.sampled_from(THRESHOLDS),
    data=st.data(),
)
def test_validated_stream_bounds_and_acks(
    corpus_root, seed, aliens, threshold, data
):
    workspace = Workspace(corpus_root, ReproConfig(backend="serial"))
    corpus = _corpus_labels(workspace, SPEC_NAME)
    run = execute_workflow(
        workspace.specification(SPEC_NAME), VARIED, seed=seed, name="v"
    )
    declarations, edges = _run_items(run)
    declarations = data.draw(_relabelled(*zip(*declarations)))
    declarations += [(f"ex:alien{i}", "alien") for i in range(aliens)]
    order = data.draw(st.permutations(range(len(declarations) + len(edges))))
    events = _stream_events(
        RunOpen(
            session=SESSION,
            spec_name=SPEC_NAME,
            run_name="v",
            threshold=threshold,
            mode="validated",
        ),
        declarations,
        edges,
        order,
    )
    singles = _check_batching(corpus_root, events, corpus)
    assert all(ack["live"]["mode"] == "validated" for ack in singles)
