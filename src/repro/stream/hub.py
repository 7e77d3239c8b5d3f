"""The server side of streaming ingestion: sessions, sequencing, analytics.

A :class:`StreamHub` owns every open streaming session of one
workspace.  It enforces the event protocol (contiguous sequence
numbers, idempotent replay, resume-by-``run_open``), feeds each
session's :class:`~repro.stream.incremental.IncrementalNormalizer`,
maintains **online analytics** for the open run against the frozen
corpus, and — on ``run_close`` — folds the finished run into the
corpus through the existing incremental
:meth:`~repro.corpus.service.DiffService.add_run`.

**A session lives in its journal** (:mod:`repro.stream.journal`); a
hub's in-memory session is a cache of it, replayed through the same
apply path (counting nothing twice) whenever the journal is not what
the hub applied — so a session resumes on any process over the store.
Nothing is visible before ``run_close`` lands the run.  A failed close
(validation or conflict) does not advance the sequence number, so the
client can repair and retry the same ``run_close``.

Two session modes, chosen at ``run_open``:

* ``validated`` — the named specification is registered: the streamed
  node/edge graph is validated as a :class:`WorkflowRun` of it at
  close (the monitor-a-running-campaign scenario, where forks and
  loops repeat module labels);
* ``derive`` — a foreign stream: the incremental normaliser's derived
  specification is used, exactly as a whole-document import would.

``mode="auto"`` (the default) picks ``validated`` when the
specification is registered.  Foreign streams aimed at a corpus whose
specification was itself *derived* by an earlier import should pass
``mode="derive"`` explicitly.

Analytics are **label-surplus lower bounds** (see
:class:`~repro.stream.events.LiveStatus`) kept per corpus run, exact
after every event at O(corpus) per label-count change it makes — no DP
runs while a session is open.  The flag is checked after every event,
so a run whose nearest-run bound crosses the session threshold is
**provably diverging no matter how it completes** (under the length
cost model), and is flagged before its ``run_close``.  Only the ack's
``LiveStatus`` needs a snapshot (a full SP-ization) of the partial
run: one per batch, as of its last event, none when it ends in
``run_close``.

Every mutation updates the hub's counters and the ``stream_*`` metric
families in the same locked region, so ``GET /stats`` (via
:meth:`summary`) and ``GET /metrics`` always agree.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.api_types import ImportSummary, StreamSummary
from repro.errors import (
    ConflictError,
    NotFoundError,
    ReproError,
    StreamProtocolError,
)
from repro.graphs.flow_network import FlowNetwork
from repro.obs.runmeta import capture_run_metadata
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    LiveStatus,
    RunClose,
    RunOpen,
    StreamAck,
    StreamEvent,
    encode_events,
    event_from_dict,
)
from repro.stream.incremental import IncrementalNormalizer, LabelChange
from repro.stream.journal import Journal, JournalDirectory
from repro.workflow.run import WorkflowRun

MODE_AUTO = "auto"
MODE_VALIDATED = "validated"
MODE_DERIVE = "derive"


class _Session:
    """One open streaming session: its journal, applied in memory.

    ``frozen`` is the journal's first record: the ``open`` frame, the
    ``mode``, the corpus view at open (label ``counters``, ``medoid``)
    and when the session ``started`` (ISO) and was ``opened`` (ns).
    """

    def __init__(self, frozen: dict):
        self.frozen = frozen
        self.open_payload = frozen["open"]
        self.open_event = event_from_dict(frozen["open"])
        self.session_id = self.open_event.session
        self.spec_name = self.open_event.spec_name
        self.run_name = self.open_event.run_name
        self.threshold = self.open_event.threshold
        self.mode = frozen["mode"]
        self.last_seq = 1
        self.normalizer = IncrementalNormalizer(
            name=self.spec_name, run_name=self.run_name
        )
        #: Frozen corpus view: per-run label multisets at open time.
        self.corpus_counters: Dict[str, Dict[str, int]] = frozen["counters"]
        self.medoid_run: Optional[str] = frozen["medoid"]
        #: Label-surplus bound per corpus run, exact after every event.
        self.bounds: Dict[str, int] = dict.fromkeys(self.corpus_counters, 0)
        self.flagged = False
        self.flagged_at_seq: Optional[int] = None
        #: The journal's ``(inode, size)`` this session reflects.
        self.stamp: Tuple[int, int] = (0, 0)

    # -- online bounds ---------------------------------------------------
    def update_bounds(self, changes: List[LabelChange]) -> None:
        """Fold the normaliser's label-count changes into the bounds.

        A run's bound sums ``max(0, open[l] - have[l])`` over labels,
        so moving ``open[l]`` from ``old`` to ``new`` moves it by the
        difference of the two surpluses.
        """
        for label, old, new in changes:
            for run_name, counters in self.corpus_counters.items():
                have = counters.get(label, 0)
                surplus = max(0, new - have) - max(0, old - have)
                self.bounds[run_name] += surplus

    def nearest(self) -> Tuple[Optional[str], float]:
        if not self.bounds:
            return None, 0.0
        name = min(self.bounds, key=lambda n: (self.bounds[n], n))
        return name, float(self.bounds[name])

    def check_flag(self, seq: int) -> bool:
        """Arm the divergence flag; True when it fires *now*."""
        if self.flagged or self.threshold is None or not self.bounds:
            return False
        _, bound = self.nearest()
        if bound > self.threshold:
            self.flagged = True
            self.flagged_at_seq = seq
            return True
        return False

    def live_status(self) -> LiveStatus:
        nearest_run, nearest_bound = self.nearest()
        outlier = (
            sum(self.bounds.values()) / len(self.bounds)
            if self.bounds
            else 0.0
        )
        sp_report: dict = {}
        if self.normalizer.num_activities:
            snapshot = self.normalizer.snapshot()
            sp_report = snapshot.report.to_dict()
        return LiveStatus(
            session=self.session_id,
            spec_name=self.spec_name,
            run_name=self.run_name,
            seq=self.last_seq,
            activities=self.normalizer.num_activities,
            edges=self.normalizer.num_edges,
            mode=self.mode,
            nearest_run=nearest_run,
            nearest_bound=nearest_bound,
            medoid_run=self.medoid_run,
            medoid_bound=(
                float(self.bounds[self.medoid_run])
                if self.medoid_run in self.bounds
                else 0.0
            ),
            outlier_score=float(outlier),
            threshold=self.threshold,
            flagged=self.flagged,
            flagged_at_seq=self.flagged_at_seq,
            sp_report=sp_report,
        )


#: A closed session: its ``run_open`` payload and its final ack.
_Closed = Tuple[dict, StreamAck]


class StreamHub:
    """Every streaming session of one workspace, lock-disciplined.

    One coarse lock serialises event application in this process, and
    each session's journal lock serialises it across processes (the
    corpus service below has its own monitor); reads (:meth:`live`,
    :meth:`summary`) take the same locks briefly.  Shared by the
    in-process :meth:`Workspace.stream` transport and the HTTP route,
    so both faces see one session namespace — the store's.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        self.journals = JournalDirectory(workspace.store.root)
        self._lock = threading.RLock()
        #: Open sessions by id: a cache of their journals.
        self._sessions: Dict[str, _Session] = {}
        self._counters = {
            "sessions_opened": 0,
            "events_ingested": 0,
            "runs_closed": 0,
            "resumed": 0,
            "duplicates": 0,
            "rejected_frames": 0,
            "flagged": 0,
        }
        metrics = workspace.metrics
        self._events_metric = metrics.counter(
            "stream_events_total",
            "Streaming events ingested, by event kind.",
        )
        self._opened_metric = metrics.counter(
            "stream_sessions_opened_total",
            "Streaming sessions opened.",
        )
        self._closed_metric = metrics.counter(
            "stream_runs_closed_total",
            "Streamed runs completed and folded into the corpus.",
        )
        self._resumed_metric = metrics.counter(
            "stream_resumed_total",
            "Session resumes (run_open replays onto live sessions).",
        )
        self._duplicates_metric = metrics.counter(
            "stream_duplicates_total",
            "Idempotently replayed event frames.",
        )
        self._rejected_metric = metrics.counter(
            "stream_rejected_frames_total",
            "Event frames rejected by the protocol, by error type.",
        )
        self._flags_metric = metrics.counter(
            "stream_flags_total",
            "Open runs flagged as diverging before run_close.",
        )
        metrics.gauge(
            "stream_open_sessions",
            "Streaming sessions currently open in the store.",
        ).set_function(self.open_sessions)

    # -- introspection ----------------------------------------------------
    def open_sessions(self) -> int:
        """Open sessions in the store (its open journals)."""
        return self.journals.open_count()

    def summary(self) -> StreamSummary:
        """The hub's counters as a typed :class:`StreamSummary`."""
        with self._lock:
            return StreamSummary(
                open_sessions=self.open_sessions(),
                **self._counters,
            )

    def live(self) -> List[LiveStatus]:
        """Analytics snapshots of every open session, oldest first."""
        sessions = []
        with self._lock:
            for session_id in self.journals.open_sessions():
                journal = self.journals.lock(session_id)
                if journal is None:
                    continue  # closed meanwhile
                try:
                    state = self._load(session_id, journal)
                finally:
                    journal.release()
                if isinstance(state, _Session):
                    sessions.append(state)
            sessions.sort(key=lambda s: (s.frozen["opened"], s.session_id))
            return [session.live_status() for session in sessions]

    # -- event application ------------------------------------------------
    def apply(self, event: StreamEvent) -> StreamAck:
        """Apply one event (see :meth:`apply_batch`)."""
        return self.apply_batch([event])

    def apply_batch(self, events: List[StreamEvent]) -> StreamAck:
        """Apply a batch of events; one ack for the batch's session.

        All events of a batch must address one session (the client
        sends one POST per session).  Events apply in order; the first
        protocol violation aborts the batch with a
        :class:`~repro.errors.StreamProtocolError` (or a more specific
        :class:`~repro.errors.ReproError`), leaving the already-applied
        prefix journaled and acknowledged — the client re-handshakes
        with ``run_open`` and resumes from the acked sequence number.
        An open session's ack carries the batch's one ``LiveStatus``.
        """
        if not events:
            raise StreamProtocolError("empty event batch")
        session_ids = {event.session for event in events}
        if len(session_ids) != 1:
            raise StreamProtocolError(
                "one batch must address one session, got "
                + ", ".join(sorted(repr(s) for s in session_ids))
            )
        (session_id,) = session_ids
        with self._lock:
            journal = self.journals.lock(
                session_id, create=isinstance(events[0], RunOpen)
            )
            try:
                state = self._load(session_id, journal)
                applied: List[StreamEvent] = []
                duplicates, resumed = 0, False
                try:
                    for event in events:
                        state, ack = self._apply_locked(
                            state, event, journal, applied
                        )
                        duplicates += ack.duplicates
                        resumed = resumed or ack.resumed
                except ReproError:
                    self._counters["rejected_frames"] += 1
                    self._rejected_metric.inc()
                    raise
                finally:
                    if isinstance(state, _Session):
                        journal.append(encode_events(applied))
                        state.stamp = journal.stamp()
                        self._sessions[session_id] = state
            finally:
                if journal is not None:
                    if journal.stamp()[1] == 0:
                        # A run_open that failed: no session after all.
                        os.unlink(journal.path)
                    journal.release()
            ack.duplicates = duplicates
            ack.resumed = resumed
            if ack.status == "open":
                ack.live = state.live_status()
            return ack

    def _load(
        self, session_id: str, journal: Optional[Journal]
    ) -> Union[_Session, _Closed, None]:
        """The session as its journal has it: cached, or replayed."""
        cached = self._sessions.pop(session_id, None)
        if journal is None:
            return None
        if cached is not None and cached.stamp == journal.stamp():
            self._sessions[session_id] = cached
            return cached
        records = journal.records()
        if not records:
            return None
        session = _Session(records[0])
        self._advance(session, session.open_event, replay=True)
        for record in records[1:]:
            if "final" in record:
                return session.open_payload, StreamAck.from_dict(
                    record["final"]
                )
            self._advance(session, event_from_dict(record), replay=True)
        session.stamp = journal.stamp()
        self._sessions[session_id] = session
        return session

    def _apply_locked(self, state, event, journal, applied):
        """Apply one event to ``state``; the new state and its ack."""
        if isinstance(event, RunOpen):
            return self._open(state, event, journal)
        if not isinstance(state, _Session):
            return state, self._event_without_session(state, event)
        if event.seq <= state.last_seq:
            # Idempotent replay of an already-applied frame.
            self._counters["duplicates"] += 1
            self._duplicates_metric.inc()
            return state, self._ack(state, duplicates=1)
        if event.seq != state.last_seq + 1:
            raise StreamProtocolError(
                f"session {event.session!r}: out-of-order seq "
                f"{event.seq} (expected {state.last_seq + 1}; "
                f"resume from the last acknowledged frame)"
            )
        if isinstance(event, RunClose):
            return self._close(state, event, journal, applied)
        if not isinstance(event, (ActivityEvent, EdgeEvent)):
            raise StreamProtocolError(  # pragma: no cover - exhaustive
                f"unknown event kind {event.kind!r}"
            )
        self._advance(state, event)
        applied.append(event)
        return state, self._ack(state)

    def _advance(
        self, session: _Session, event: StreamEvent, replay: bool = False
    ) -> None:
        """Apply one frame to ``session``, then check the divergence
        flag; a replay counts nothing."""
        if isinstance(event, ActivityEvent):
            changes = session.normalizer.add_activity(event.node, event.label)
        elif isinstance(event, EdgeEvent):
            changes = session.normalizer.add_edge(event.src, event.dst)
        else:
            changes = []
        session.update_bounds(changes)
        session.last_seq = event.seq
        fired = session.check_flag(event.seq)
        if replay:
            return
        self._counters["events_ingested"] += 1
        self._events_metric.inc(kind=event.kind)
        if fired:
            self._counters["flagged"] += 1
            self._flags_metric.inc()

    def _event_without_session(
        self, closed: Optional[_Closed], event: StreamEvent
    ) -> StreamAck:
        if closed is not None:
            _, final_ack = closed
            if event.seq <= final_ack.acked_seq:
                # Replay of a frame the closed session already applied:
                # answer with its final ack.
                self._counters["duplicates"] += 1
                self._duplicates_metric.inc()
                return self._copy_final(final_ack, duplicates=1)
            raise StreamProtocolError(
                f"session {event.session!r} is closed "
                f"(final seq {final_ack.acked_seq}); open a new "
                "session to stream another run"
            )
        raise StreamProtocolError(
            f"no open session {event.session!r}; send run_open first"
        )

    # -- open / resume -----------------------------------------------------
    def _open(self, state, event: RunOpen, journal: Journal):
        if state is not None:
            is_open = isinstance(state, _Session)
            if (state.open_payload if is_open else state[0]) != (
                event.to_dict()
            ):
                raise ConflictError(
                    f"session {event.session!r} is already open with "
                    "a different run_open payload"
                    if is_open
                    else f"session id {event.session!r} was already "
                    "used by a different run"
                )
            self._counters["resumed"] += 1
            self._resumed_metric.inc()
            if is_open:
                return state, self._ack(state, resumed=True)
            return state, self._copy_final(state[1], resumed=True)
        spec_known = self.workspace.store.has_specification(event.spec_name)
        mode = self._resolve_mode(event, spec_known)
        counters, medoid = (
            self._corpus_view(event) if spec_known else ({}, None)
        )
        frozen = {
            "open": event.to_dict(), "mode": mode, "counters": counters,
            "medoid": medoid, "opened": time.time_ns(),
            "started": capture_run_metadata(origin="stream").started,
        }
        # The journal holds the session before anything acknowledges it.
        journal.append((json.dumps(frozen) + "\n").encode("utf8"))
        session = _Session(frozen)
        self._counters["sessions_opened"] += 1
        self._opened_metric.inc()
        self._advance(session, event)
        return session, self._ack(session)

    def _resolve_mode(self, event: RunOpen, spec_known: bool) -> str:
        mode = event.mode
        if mode == MODE_AUTO:
            return MODE_VALIDATED if spec_known else MODE_DERIVE
        if mode == MODE_VALIDATED and not spec_known:
            raise NotFoundError(
                f"no stored specification named {event.spec_name!r} "
                "to validate the streamed run against"
            )
        return mode

    def _corpus_view(
        self, event: RunOpen
    ) -> Tuple[Dict[str, Dict[str, int]], Optional[str]]:
        """Freeze a registered spec's corpus for online bounds.

        Loads no run: label counts come from the fingerprint index and
        the medoid from the family view, so a warm family opens in
        O(N) — a listing and a ``stat`` per run for each of the two.
        """
        run_names = self.workspace.runs(spec=event.spec_name)
        if event.run_name in run_names:
            raise ConflictError(
                f"run {event.run_name!r} already exists for "
                f"specification {event.spec_name!r}"
            )
        counters = self.workspace.service.label_counts(
            event.spec_name, run_names
        )
        medoid_run: Optional[str] = None
        if len(run_names) == 1:
            medoid_run = run_names[0]
        elif len(run_names) >= 2:
            medoid_run = self.workspace.medoid(spec=event.spec_name)[0]
        return counters, medoid_run

    # -- close -------------------------------------------------------------
    def _close(
        self,
        session: _Session,
        event: RunClose,
        journal: Journal,
        applied: List[StreamEvent],
    ):
        """Validate/normalise, land the run, then journal the final ack.

        A raise (validation failure, conflict) leaves the sequence
        number untouched, so the client may repair and retry.  The run's
        ``<meta>`` names the session: a close replayed after a crash
        between landing and journaling finds its run landed.
        """
        if session.mode == MODE_VALIDATED:
            run, report_dict, report_lines = self._validated_run(session)
        else:
            result = session.normalizer.finish()
            run = result.run
            report_dict = result.report.to_dict()
            report_lines = list(result.report.summary_lines())
        service = self.workspace.service
        cost = self.workspace.config.cost
        landed = self.workspace.store.run_metadata(run.spec.name, run.name)
        if landed is not None and landed.session == session.session_id:
            distances = service.distances(
                run.spec.name,
                [
                    (name, run.name)
                    for name in service.runs(run.spec.name)
                    if name != run.name
                ],
                cost,
            )
        else:
            distances = service.add_run(
                run,
                cost=cost,
                meta=capture_run_metadata(
                    origin="stream",
                    started=session.frozen["started"],
                    session=session.session_id,
                ),
            )
        summary = ImportSummary(
            spec_name=run.spec.name,
            run_name=run.name,
            origin="stream",
            nodes=run.graph.num_nodes,
            edges=run.graph.num_edges,
            report=report_dict,
            report_lines=report_lines,
            new_pairs=dict(distances),
        )
        self._advance(session, event)
        self._counters["runs_closed"] += 1
        self._closed_metric.inc()
        final_ack = StreamAck(
            session=session.session_id,
            acked_seq=session.last_seq,
            status="closed",
            result=summary,
        )
        journal.append(
            encode_events(applied)
            + (
                json.dumps({"final": final_ack.to_dict()}, sort_keys=True)
                + "\n"
            ).encode("utf8")
        )
        applied.clear()
        self.journals.retire(journal)
        self._sessions.pop(session.session_id, None)
        closed = (session.open_payload, final_ack)
        return closed, self._copy_final(final_ack)

    def _validated_run(self, session: _Session):
        """Build and validate the streamed graph as a run of the
        registered specification (``validated`` mode)."""
        spec = self.workspace.specification(session.spec_name)
        normalizer = session.normalizer
        graph = FlowNetwork(name=session.run_name)
        doc = normalizer.doc
        for node in doc.activity_ids():
            graph.add_node(node, normalizer.effective_label(node))
        for relation in doc.relations:
            # A self-dependency is no edge of the run, as for the
            # importer; duplicates stay (a fork's parallel edges).
            if relation.object != relation.subject:
                graph.add_edge(relation.object, relation.subject)
        run = WorkflowRun(spec, graph, name=session.run_name)
        lines = [
            f"validated against registered specification "
            f"{session.spec_name!r}"
        ]
        return run, {}, lines

    # -- ack assembly ------------------------------------------------------
    @staticmethod
    def _ack(
        session: _Session,
        duplicates: int = 0,
        resumed: bool = False,
    ) -> StreamAck:
        """An open session's ack; :meth:`apply_batch` adds its live view."""
        return StreamAck(
            session=session.session_id,
            acked_seq=session.last_seq,
            status="open",
            resumed=resumed,
            duplicates=duplicates,
        )

    @staticmethod
    def _copy_final(
        final_ack: StreamAck,
        duplicates: int = 0,
        resumed: bool = False,
    ) -> StreamAck:
        return StreamAck(
            session=final_ack.session,
            acked_seq=final_ack.acked_seq,
            status=final_ack.status,
            resumed=resumed,
            duplicates=duplicates,
            result=final_ack.result,
        )
