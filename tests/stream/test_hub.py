"""StreamHub protocol semantics: sequencing, resume, close, analytics.

The contract under test: contiguous sequence numbers, idempotent
replay, resume-by-``run_open``, nothing visible before ``run_close``,
and a failed close that is cleanly retryable.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConflictError,
    NotFoundError,
    StreamProtocolError,
)
from repro.interchange.prov_json import parse_prov_json
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    RunClose,
    RunOpen,
    events_from_document,
)
from repro.workflow.generators import random_prov_document


def _small_stream(session, spec="trace", run="r1", **open_kwargs):
    """open + 3 activities + 2 edges + close, contiguous seqs."""
    return [
        RunOpen(
            session=session, spec_name=spec, run_name=run, **open_kwargs
        ),
        ActivityEvent(session=session, seq=2, node="ex:a", label="a"),
        ActivityEvent(session=session, seq=3, node="ex:b", label="b"),
        ActivityEvent(session=session, seq=4, node="ex:c", label="c"),
        EdgeEvent(session=session, seq=5, src="ex:a", dst="ex:b"),
        EdgeEvent(session=session, seq=6, src="ex:a", dst="ex:c"),
        RunClose(session=session, seq=7),
    ]


# -- sequencing ---------------------------------------------------------
def test_whole_stream_in_one_batch_closes_the_run(empty_ws):
    hub = empty_ws.stream_hub
    ack = hub.apply_batch(_small_stream("s1"))
    assert ack.status == "closed"
    assert ack.acked_seq == 7
    assert ack.result is not None
    assert ack.result.origin == "stream"
    assert "trace" in empty_ws.specifications()
    assert "r1" in empty_ws.runs(spec="trace")
    summary = hub.summary()
    assert summary.open_sessions == 0
    assert summary.sessions_opened == 1
    assert summary.runs_closed == 1
    assert summary.events_ingested == 7


def test_out_of_order_seq_is_rejected_and_does_not_advance(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    hub.apply(events[0])
    with pytest.raises(StreamProtocolError, match="expected 2"):
        hub.apply(events[2])  # seq 3 skips ahead
    assert hub.summary().rejected_frames == 1
    # seq 2 is still the expected next frame.
    ack = hub.apply(events[1])
    assert ack.acked_seq == 2


def test_duplicate_frames_are_acknowledged_idempotently(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    hub.apply_batch(events[:3])
    replay = hub.apply(events[2])  # seq 3, already applied
    assert replay.duplicates == 1
    assert replay.acked_seq == 3
    assert replay.status == "open"
    assert hub.summary().duplicates == 1
    # The duplicate did not double-ingest the activity.
    assert replay.live.activities == 2


def test_batch_must_address_one_session(empty_ws):
    hub = empty_ws.stream_hub
    with pytest.raises(StreamProtocolError, match="one session"):
        hub.apply_batch(
            [
                RunOpen(session="s1", spec_name="t", run_name="r"),
                RunOpen(session="s2", spec_name="t", run_name="r"),
            ]
        )
    with pytest.raises(StreamProtocolError, match="empty"):
        hub.apply_batch([])


def test_event_without_open_session_is_rejected(empty_ws):
    with pytest.raises(StreamProtocolError, match="run_open first"):
        empty_ws.stream_hub.apply(
            ActivityEvent(session="ghost", seq=2, node="ex:a")
        )


def test_failed_batch_keeps_the_applied_prefix(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    bad = events[:3] + [
        ActivityEvent(session="s1", seq=9, node="ex:z")
    ]
    with pytest.raises(StreamProtocolError, match="expected 4"):
        hub.apply_batch(bad)
    # The prefix (open + 2 activities) survived: resume from seq 4.
    ack = hub.apply_batch(events[3:])
    assert ack.status == "closed"
    assert ack.acked_seq == 7


# -- resume -------------------------------------------------------------
def test_run_open_replay_resumes_a_live_session(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    hub.apply_batch(events[:4])
    # A reconnecting client replays run_open plus its unacked tail.
    ack = hub.apply_batch([events[0]] + events[2:5])
    assert ack.resumed is True
    assert ack.duplicates == 2  # seqs 3 and 4 replayed
    assert ack.acked_seq == 5
    assert hub.summary().resumed == 1


def test_run_open_replay_with_different_payload_conflicts(empty_ws):
    hub = empty_ws.stream_hub
    hub.apply(RunOpen(session="s1", spec_name="t", run_name="r"))
    with pytest.raises(ConflictError, match="different run_open"):
        hub.apply(
            RunOpen(session="s1", spec_name="t", run_name="other")
        )


def test_closed_session_replays_its_final_ack(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    final = hub.apply_batch(events)
    # Replaying the close (e.g. the final ack was lost) returns the
    # cached result instead of re-ingesting.
    replay = hub.apply(events[-1])
    assert replay.status == "closed"
    assert replay.duplicates == 1
    assert replay.result is not None
    assert replay.result.to_dict() == final.result.to_dict()
    # Replaying the identical run_open is equally idempotent.
    reopen = hub.apply(events[0])
    assert reopen.status == "closed"
    assert reopen.resumed is True
    # But the session id cannot be reused for a different run...
    with pytest.raises(ConflictError, match="already used"):
        hub.apply(
            RunOpen(session="s1", spec_name="t", run_name="other")
        )
    # ...and frames beyond the final seq have nowhere to go.
    with pytest.raises(StreamProtocolError, match="closed"):
        hub.apply(ActivityEvent(session="s1", seq=8, node="ex:z"))


# -- visibility ---------------------------------------------------------
def test_half_ingested_run_is_invisible_until_close(empty_ws):
    hub = empty_ws.stream_hub
    events = _small_stream("s1")
    hub.apply_batch(events[:-1])  # everything but run_close
    assert empty_ws.specifications() == []
    assert hub.summary().open_sessions == 1
    hub.apply(events[-1])
    assert "trace" in empty_ws.specifications()
    assert empty_ws.runs(spec="trace") == ["r1"]


def test_failed_close_is_retryable_and_leaves_no_trace(corpus_ws, spec_name):
    hub = corpus_ws.stream_hub
    runs_before = corpus_ws.runs(spec=spec_name)
    # A derive-mode stream aimed at the registered spec name: its
    # derived specification fingerprint cannot match, so add_run
    # conflicts at close.
    events = _small_stream(
        "bad-close", spec=spec_name, run="hub-x1", mode="derive"
    )
    hub.apply_batch(events[:-1])
    with pytest.raises(ConflictError):
        hub.apply(events[-1])
    # The close failed cleanly: nothing entered the corpus, the
    # session is still open at the same seq, and the close can be
    # retried (failing the same way, not with a sequence error).
    assert corpus_ws.runs(spec=spec_name) == runs_before
    assert hub.summary().open_sessions == 1
    assert hub.summary().runs_closed == 0
    with pytest.raises(ConflictError):
        hub.apply(events[-1])


# -- modes and conflicts at open ----------------------------------------
def test_auto_mode_resolves_by_spec_registration(corpus_ws, empty_ws, spec_name):
    ack = corpus_ws.stream_hub.apply(
        RunOpen(session="m1", spec_name=spec_name, run_name="hub-m1")
    )
    assert ack.live.mode == "validated"
    ack = empty_ws.stream_hub.apply(
        RunOpen(session="m2", spec_name="nope", run_name="r")
    )
    assert ack.live.mode == "derive"


def test_validated_mode_requires_a_registered_spec(empty_ws):
    with pytest.raises(NotFoundError, match="no stored specification"):
        empty_ws.stream_hub.apply(
            RunOpen(
                session="m3",
                spec_name="nope",
                run_name="r",
                mode="validated",
            )
        )


def test_run_name_collision_is_refused_at_open(corpus_ws, spec_name):
    with pytest.raises(ConflictError, match="already exists"):
        corpus_ws.stream_hub.apply(
            RunOpen(session="m4", spec_name=spec_name, run_name="r01")
        )


# -- online analytics ---------------------------------------------------
def test_live_bounds_flag_a_diverging_run_before_close(corpus_ws, spec_name):
    hub = corpus_ws.stream_hub
    flags_before = hub.summary().flagged
    hub.apply(
        RunOpen(
            session="div1",
            spec_name=spec_name,
            run_name="hub-div1",
            threshold=1.5,
        )
    )
    # Stream activities whose labels no corpus run has ever executed:
    # every one raises the label-surplus bound to *all* corpus runs.
    acks = [
        hub.apply(
            ActivityEvent(
                session="div1",
                seq=seq,
                node=f"ex:alien{seq}",
                label="alien",
            )
        )
        for seq in (2, 3, 4)
    ]
    assert acks[0].live.flagged is False
    assert acks[-1].live.flagged is True
    assert acks[-1].live.flagged_at_seq is not None
    assert acks[-1].live.flagged_at_seq <= 4  # before any run_close
    assert acks[-1].live.nearest_run is not None
    assert acks[-1].live.nearest_bound > 1.5
    assert hub.summary().flagged == flags_before + 1


def _flags_metric(workspace) -> float:
    family = workspace.metrics.snapshot()["stream_flags_total"]
    return sum(sample["value"] for sample in family["samples"])


def test_flag_armed_by_a_late_relabel_is_counted(corpus_ws, spec_name):
    """A referenced-only activity declared under a new label raises the
    bound on the declaring event; that flag counts like any other."""
    hub = corpus_ws.stream_hub
    flags_before = hub.summary().flagged
    metric_before = _flags_metric(corpus_ws)
    hub.apply(
        RunOpen(
            session="late1",
            spec_name=spec_name,
            run_name="hub-late1",
            threshold=0.5,
        )
    )
    # Both endpoints are undeclared; their local names are labels every
    # fixture run executes, so no run is exceeded yet.
    ack = hub.apply(
        EdgeEvent(
            session="late1",
            seq=2,
            src="ex:getProteinSeq",
            dst="ex:FastaFormat",
        )
    )
    assert ack.live.nearest_bound == 0.0
    assert ack.live.flagged is False
    # Declaring one of them under a label no run has moves its count.
    ack = hub.apply(
        ActivityEvent(
            session="late1", seq=3, node="ex:getProteinSeq", label="alien"
        )
    )
    assert ack.live.nearest_bound == 1.0
    assert ack.live.flagged is True
    assert ack.live.flagged_at_seq == 3
    assert hub.summary().flagged == flags_before + 1
    assert _flags_metric(corpus_ws) == metric_before + 1
    # Reading the live view does not count it a second time.
    hub.live()
    assert hub.summary().flagged == flags_before + 1


def test_flag_armed_by_run_open_is_counted(corpus_ws, spec_name):
    """Every bound starts at 0, so a negative threshold fires on the
    run_open itself — checked and counted like any other event."""
    hub = corpus_ws.stream_hub
    ack = hub.apply(
        RunOpen(
            session="neg1",
            spec_name=spec_name,
            run_name="hub-neg1",
            threshold=-1.0,
        )
    )
    assert ack.live.flagged is True
    assert ack.live.flagged_at_seq == 1
    assert hub.summary().flagged == 1
    assert _flags_metric(corpus_ws) == 1


def test_live_view_lists_open_sessions_with_bounds(corpus_ws, spec_name):
    hub = corpus_ws.stream_hub
    text = random_prov_document(
        num_activities=6, edge_probability=0.4, seed=3
    )
    doc = parse_prov_json(text)
    events = events_from_document(
        doc, "live1", "foreign", "hub-live1", mode="derive"
    )
    hub.apply_batch(events[:-1])
    statuses = {s.session: s for s in hub.live()}
    assert "live1" in statuses
    status = statuses["live1"]
    assert status.mode == "derive"
    assert status.activities == 6
    assert status.sp_report  # partial SP-ization report is live
    assert "was_series_parallel" in status.sp_report
    # Foreign spec: no corpus view, bounds disarmed but well-formed.
    assert status.nearest_run is None
    assert status.outlier_score == 0.0


def test_summary_counters_agree_with_metrics(empty_ws):
    hub = empty_ws.stream_hub
    hub.apply_batch(_small_stream("s1"))
    with pytest.raises(StreamProtocolError):
        hub.apply(ActivityEvent(session="ghost", seq=2, node="ex:a"))
    summary = hub.summary()
    snapshot = empty_ws.metrics.snapshot()

    def total(name):
        return sum(
            sample["value"]
            for sample in snapshot[name]["samples"]
        )

    assert total("stream_sessions_opened_total") == (
        summary.sessions_opened
    )
    assert total("stream_runs_closed_total") == summary.runs_closed
    assert total("stream_events_total") == summary.events_ingested
    assert total("stream_rejected_frames_total") == (
        summary.rejected_frames
    )
    assert total("stream_open_sessions") == summary.open_sessions
