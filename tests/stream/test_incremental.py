"""Incremental SP-ization semantics.

The :class:`IncrementalNormalizer` must agree with the whole-document
importer on every observable (graphs, labels, report accounting) while
catching stream-level inconsistencies — cycles, relabels — at event
time rather than at close.
"""

from __future__ import annotations

import pytest

from repro.corpus.fingerprint import run_fingerprint, spec_fingerprint
from repro.errors import InterchangeError
from repro.interchange.normalize import normalize_document
from repro.interchange.prov_json import parse_prov_json
from repro.stream.incremental import IncrementalNormalizer
from repro.workflow.generators import random_prov_document


def _feed(normalizer, activities, edges):
    for node, label in activities:
        normalizer.add_activity(node, label)
    for src, dst in edges:
        normalizer.add_edge(src, dst)


def test_duplicate_and_self_edges_feed_the_dedup_accounting():
    inc = IncrementalNormalizer("S", "r")
    _feed(
        inc,
        [("ex:a", "align"), ("ex:b", "blast")],
        [("ex:a", "ex:b"), ("ex:a", "ex:b"), ("ex:a", "ex:a")],
    )
    assert inc.num_activities == 2
    assert inc.num_edges == 1  # deduplicated DAG edge count
    result = inc.finish()
    assert result.report.deduplicated_edges == 2


def test_cycle_is_rejected_at_event_time():
    inc = IncrementalNormalizer("S", "r")
    _feed(inc, [], [("ex:a", "ex:b"), ("ex:b", "ex:c")])
    with pytest.raises(InterchangeError, match="cycle"):
        inc.add_edge("ex:c", "ex:a")
    # The poisoned edge left no trace: the DAG still normalises.
    assert inc.num_edges == 2
    assert inc.finish().run.graph.num_nodes >= 3


def test_relabel_is_refused_but_identical_redeclare_is_idempotent():
    inc = IncrementalNormalizer("S", "r")
    inc.add_activity("ex:a", "align")
    inc.add_activity("ex:a", "align")  # idempotent
    with pytest.raises(InterchangeError, match="redeclared"):
        inc.add_activity("ex:a", "blast")
    assert inc.label_counts() == {"align": 1}


def test_referenced_then_declared_adjusts_label_counts():
    """Each event returns the ``(label, old, new)`` changes it made."""
    inc = IncrementalNormalizer("S", "r")
    # Both referenced-only: counted under their local names.
    assert inc.add_edge("ex:a", "ex:b") == [("a", 0, 1), ("b", 0, 1)]
    assert inc.label_counts() == {"a": 1, "b": 1}
    assert inc.add_edge("ex:a", "ex:b") == []  # duplicate edge
    # A late declaration renames.
    assert inc.add_activity("ex:a", "align") == [
        ("a", 1, 0),
        ("align", 0, 1),
    ]
    assert inc.label_counts() == {"align": 1, "b": 1}
    # An empty label keeps the local name; a redeclare changes nothing.
    assert inc.add_activity("ex:b") == []
    assert inc.add_activity("ex:b") == []
    assert inc.label_counts() == {"align": 1, "b": 1}
    assert inc.add_activity("ex:c", "align") == [("align", 1, 2)]


def test_empty_session_cannot_normalise():
    with pytest.raises(InterchangeError, match="no activities"):
        IncrementalNormalizer("S", "r").finish()


def test_snapshot_is_cached_until_the_next_event():
    inc = IncrementalNormalizer("S", "r")
    inc.add_edge("ex:a", "ex:b")
    first = inc.snapshot()
    assert inc.snapshot() is first
    inc.add_edge("ex:b", "ex:c")
    second = inc.snapshot()
    assert second is not first
    assert second.run.graph.num_nodes > first.run.graph.num_nodes


def test_open_snapshot_matches_whole_import_of_the_prefix():
    """A mid-stream snapshot equals importing the prefix as a document."""
    text = random_prov_document(
        num_activities=10, edge_probability=0.45, seed=11
    )
    doc = parse_prov_json(text)
    inc = IncrementalNormalizer("S", "r")
    pairs = doc.dependency_pairs()
    cut = len(pairs) // 2
    for node in doc.activity_ids():
        inc.add_activity(node, "")
    for src, dst in pairs[:cut]:
        inc.add_edge(src, dst)
    snap = inc.snapshot()

    whole = normalize_document(inc.doc, name="S", run_name="r")
    assert run_fingerprint(snap.run) == run_fingerprint(whole.run)
    assert spec_fingerprint(snap.spec) == spec_fingerprint(whole.spec)
    assert snap.report.to_dict() == whole.report.to_dict()


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 19])
def test_finish_matches_whole_document_import(seed):
    text = random_prov_document(
        num_activities=12, edge_probability=0.4, seed=seed
    )
    doc = parse_prov_json(text)
    whole = normalize_document(doc, name="S", run_name="r")

    inc = IncrementalNormalizer("S", "r")
    for node in doc.activity_ids():
        inc.add_activity(node, "")
    for src, dst in doc.dependency_pairs():
        inc.add_edge(src, dst)
    got = inc.finish()

    assert run_fingerprint(got.run) == run_fingerprint(whole.run)
    assert spec_fingerprint(got.spec) == spec_fingerprint(whole.spec)
    assert got.report.to_dict() == whole.report.to_dict()
    assert got.activity_nodes == whole.activity_nodes
