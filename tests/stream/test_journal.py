"""Stream sessions live in the store's journals, not in one hub.

A hub over a store resumes any session of that store: after its own
process restarts (a fresh ``Workspace``), or when another process —
another worker of the cluster — applied the last batches.  These
tests drive two hubs over one store in process and compare every ack
with what one hub returns for the same batches on an unchanged copy of
the corpus.
"""

from __future__ import annotations

import builtins
import json
import os
import shutil
import sys
import threading
import time
import urllib.request

import pytest

from _fixture import SPEC_NAME, VARIED, build_corpus

from repro.config import ReproConfig
from repro.errors import StreamProtocolError
from repro.interchange.prov_json import parse_prov_json
from repro.obs.promcheck import parse_exposition
from repro.service.server import DiffServer
from repro.stream import journal as journal_module
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    RunClose,
    RunOpen,
    events_from_document,
)
from repro.workflow.execution import execute_workflow
from repro.workflow.generators import random_prov_document
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

SESSION = "journal-s1"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The fixture corpus with no derived state and no journal."""
    root = tmp_path_factory.mktemp("journal-corpus")
    build_corpus(root)
    shutil.rmtree(root / "index", ignore_errors=True)
    return root


@pytest.fixture
def copies(pristine, tmp_path):
    """Two independent copies of the corpus: one to stream into, one
    for the single-hub reference."""
    roots = []
    for name in ("store", "reference"):
        roots.append(tmp_path / name)
        shutil.copytree(pristine, roots[-1])
    return roots


def _hub(root):
    return Workspace(root, ReproConfig(backend="serial")).stream_hub


def _events(session=SESSION, run="jr1", seed=41):
    """run_open, an executed fixture run's activities and edges, close."""
    run_obj = execute_workflow(
        protein_annotation(), VARIED, seed=seed, name=run
    )
    labels = run_obj.graph.labels()
    events = [RunOpen(session=session, spec_name=SPEC_NAME, run_name=run)]
    for node in run_obj.graph.nodes():
        events.append(
            ActivityEvent(
                session=session, seq=len(events) + 1, node=str(node),
                label=labels[node],
            )
        )
    for src, dst, _key in run_obj.graph.edges():
        events.append(
            EdgeEvent(
                session=session, seq=len(events) + 1, src=str(src),
                dst=str(dst),
            )
        )
    events.append(RunClose(session=session, seq=len(events) + 1))
    return events


def _batches(events):
    """Four batches, each after the first re-handshaking with run_open
    as a client does after a reconnect."""
    cut = [0, 5, 11, len(events) - 1, len(events)]
    batches = [events[cut[0]:cut[1]]]
    for start, end in zip(cut[1:], cut[2:]):
        batches.append([events[0]] + events[start:end])
    return batches


def _reference(root, batches):
    hub = _hub(root)
    return [hub.apply_batch(batch).to_dict() for batch in batches]


def test_a_fresh_hub_resumes_an_open_session(copies):
    """One process restarts between every two batches: each batch
    reaches a fresh ``Workspace`` and ``StreamHub`` over the store."""
    store, reference = copies
    batches = _batches(_events())
    acks = [_hub(store).apply_batch(batch).to_dict() for batch in batches]
    assert acks == _reference(reference, batches)
    assert acks[-1]["status"] == "closed"
    assert Workspace(store).runs(spec=SPEC_NAME).count("jr1") == 1


def test_two_hubs_alternate_batches_and_count_once(copies):
    store, reference = copies
    batches = _batches(_events())
    hubs = [_hub(store), _hub(store)]
    acks = [
        hubs[i % 2].apply_batch(batch).to_dict()
        for i, batch in enumerate(batches)
    ]
    assert acks == _reference(reference, batches)
    ingested = sum(hub.summary().events_ingested for hub in hubs)
    assert ingested == len(_events())


def test_a_lost_close_answers_its_final_ack(copies):
    """The final ack is lost on the way back; a fresh hub answers the
    replayed ``run_open`` and ``run_close`` with it."""
    store, _ = copies
    events = _events()
    final = _hub(store).apply_batch(events)
    again = _hub(store)
    resumed = again.apply_batch([events[0]])
    replayed = again.apply_batch([events[-1]])
    for ack in (resumed, replayed):
        assert ack.status == "closed"
        assert ack.acked_seq == final.acked_seq
        assert ack.result.to_dict() == final.result.to_dict()
    assert (resumed.resumed, replayed.duplicates) == (True, 1)
    assert Workspace(store).runs(spec=SPEC_NAME).count("jr1") == 1


def test_a_close_cut_short_after_the_run_landed(copies):
    """A crash between landing the run and journaling its final ack:
    the replayed close finds the run landed by this session and
    answers the final ack instead of landing it twice."""
    store, _ = copies
    events = _events()
    final = _hub(store).apply_batch(events)
    streams = store / "streams"
    (closed,) = streams.glob("*.closed.ndjson")
    lines = closed.read_bytes().splitlines(keepends=True)
    assert b'"final"' in lines[-1]
    reopened = closed.with_name(
        closed.name.replace(".closed.", ".open.")
    )
    reopened.write_bytes(b"".join(lines[:-1]))
    closed.unlink()
    ack = _hub(store).apply_batch(events)
    assert ack.status == "closed"
    assert ack.result.to_dict() == final.result.to_dict()
    assert Workspace(store).runs(spec=SPEC_NAME).count("jr1") == 1


def test_replay_equals_the_in_memory_session(tmp_path):
    """A session rebuilt from its journal has the bounds, flag and live
    view of the one that applied the events."""
    text = random_prov_document(
        num_activities=8, edge_probability=0.4, seed=5
    )
    workspace = Workspace(tmp_path, ReproConfig(backend="serial"))
    workspace.import_prov(text, name="c1", spec_name="S")
    events = events_from_document(
        parse_prov_json(text), SESSION, "S", "r2", mode="derive",
        threshold=0.5,
    )[:-1]
    live = workspace.stream_hub
    live.apply_batch(events)
    replayed = _hub(tmp_path)
    assert [s.to_dict() for s in replayed.live()] == [
        s.to_dict() for s in live.live()
    ]
    ours, theirs = live._sessions[SESSION], replayed._sessions[SESSION]
    for attribute in ("bounds", "last_seq", "flagged", "flagged_at_seq"):
        assert getattr(theirs, attribute) == getattr(ours, attribute)
    assert replayed.summary().events_ingested == 0


def test_a_torn_last_line_is_ignored(copies):
    store, reference = copies
    batches = _batches(_events())
    _hub(store).apply_batch(batches[0])
    (journal,) = (store / "streams").glob("*.open.ndjson")
    intact = journal.read_bytes()
    with open(journal, "ab") as handle:
        handle.write(b'{"kind": "activity", "seq": 6, "sess')
    acks = [_hub(store).apply_batch(batch).to_dict() for batch in batches[1:]]
    assert acks == _reference(reference, batches)[1:]
    (closed,) = (store / "streams").glob("*.closed.ndjson")
    assert closed.read_bytes().startswith(intact + b"{")
    assert b'"sess\n' not in closed.read_bytes()


def test_closed_journals_keep_the_most_recent(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "MAX_CLOSED_RETAINED", 3)
    hub = _hub(tmp_path)
    sessions = [f"keep{i}" for i in range(5)]
    for session in sessions:
        hub.apply_batch(
            [
                RunOpen(session=session, spec_name=session, run_name="r"),
                ActivityEvent(session=session, seq=2, node="ex:a"),
                RunClose(session=session, seq=3),
            ]
        )
        # Distinct modification times order the retention.
        time.sleep(0.02)
    assert len(list((tmp_path / "streams").glob("*.closed.ndjson"))) == 3
    fresh = _hub(tmp_path)
    assert fresh.apply(RunClose(session="keep4", seq=3)).status == "closed"
    with pytest.raises(StreamProtocolError, match="no open session"):
        fresh.apply(RunClose(session="keep0", seq=3))


def test_a_store_that_never_streamed_has_no_streams_directory(tmp_path):
    workspace = build_corpus(tmp_path)
    workspace.matrix(spec=SPEC_NAME)
    workspace.diff("r01", "r02", spec=SPEC_NAME)
    assert workspace.stream_hub.summary().open_sessions == 0
    assert workspace.stream_live() == []
    with pytest.raises(StreamProtocolError):
        workspace.stream_hub.apply(RunClose(session="ghost", seq=2))
    assert not (tmp_path / "streams").exists()


def test_every_hub_lists_every_open_session(copies):
    store, _ = copies
    first, second = _hub(store), _hub(store)
    first.apply_batch(_events(session="a", run="ja")[:4])
    second.apply_batch(_events(session="b", run="jb", seed=42)[:3])
    for hub in (first, second, _hub(store)):
        assert [s.session for s in hub.live()] == ["a", "b"]
        assert hub.summary().open_sessions == 2
    payload = json.loads(
        (next((store / "streams").glob("*.open.ndjson"))).read_text()
        .splitlines()[0]
    )
    assert payload["open"]["kind"] == "run_open"


def test_a_scrape_counts_open_journals_without_reading_them(
    copies, monkeypatch
):
    """``stream_open_sessions`` in /stats and /metrics comes from the
    journals' names: a scrape opens none of 50 idle sessions' files."""
    store, _ = copies
    hub = _hub(store)
    for index in range(50):
        hub.apply(
            RunOpen(
                session=f"idle{index}", spec_name=SPEC_NAME,
                run_name=f"i{index}",
            )
        )
    journals = []

    def spy(real):
        def opener(path, *args, **kwargs):
            if str(path).endswith(".ndjson"):
                journals.append(path)
            return real(path, *args, **kwargs)

        return opener

    config = ReproConfig(backend="serial", log_format="off")
    with DiffServer(store, config) as server:
        monkeypatch.setattr(builtins, "open", spy(builtins.open))
        monkeypatch.setattr(os, "open", spy(os.open))
        with urllib.request.urlopen(f"{server.url}/stats") as response:
            stats = json.loads(response.read())
        with urllib.request.urlopen(f"{server.url}/metrics") as response:
            metrics = parse_exposition(response.read().decode("utf8"))
    assert stats["counters"]["stream_open_sessions"] == 50
    assert [
        value for _, _, value in metrics["stream_open_sessions"]["samples"]
    ] == [50.0]
    assert journals == []


def test_hubs_racing_on_one_session_apply_each_event_once(copies):
    """Four hubs over one store send the same batches of one session at
    once, with a short switch interval: every event is ingested exactly
    once across them, and the run lands once."""
    store, _ = copies
    events = _events()
    batches = _batches(events)
    hubs = [_hub(store) for _ in range(4)]
    errors = []

    def client(hub):
        try:
            for batch in batches:
                hub.apply_batch(batch)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(h,)) for h in hubs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    summaries = [hub.summary() for hub in hubs]
    assert sum(s.events_ingested for s in summaries) == len(events)
    assert sum(s.runs_closed for s in summaries) == 1
    assert Workspace(store).runs(spec=SPEC_NAME).count("jr1") == 1
