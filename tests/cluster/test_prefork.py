"""Pre-forked workers on one socket: streams, health and failures.

Every worker accepts from the parent's socket, so a stream's batches
— each sent here over a fresh connection — reach whichever worker wins
the accept, and a session resumes on any of them through its journal
in the store.  The acks are compared with what one ``DiffServer``
returns for the same batches over an unchanged copy of the corpus.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import threading
import time
import urllib.request

import pytest

from _fixture import SPEC_NAME, VARIED
from _util import get_json, http_get

from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.service.server import DiffServer
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    RunClose,
    RunOpen,
    encode_events,
)
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import protein_annotation


def _events(session: str, run: str, seed: int):
    executed = execute_workflow(
        protein_annotation(), VARIED, seed=seed, name=run
    )
    labels = executed.graph.labels()
    events = [RunOpen(session=session, spec_name=SPEC_NAME, run_name=run)]
    for node in executed.graph.nodes():
        events.append(
            ActivityEvent(
                session=session, seq=len(events) + 1, node=str(node),
                label=labels[node],
            )
        )
    for src, dst, _key in executed.graph.edges():
        events.append(
            EdgeEvent(
                session=session, seq=len(events) + 1, src=str(src),
                dst=str(dst),
            )
        )
    events.append(RunClose(session=session, seq=len(events) + 1))
    return events


def _post_batch(url: str, events) -> dict:
    """One batch over a fresh connection; the ack as JSON."""
    request = urllib.request.Request(
        f"{url}/stream/events",
        data=encode_events(events),
        headers={"Content-Type": "application/x-ndjson"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as reply:
        return json.loads(reply.read())


def _batches(events, size: int = 3):
    """Small batches, each after the first re-handshaking with run_open;
    then one batch replayed, and the close replayed after it landed."""
    batches = [events[:size]]
    for start in range(size, len(events), size):
        batches.append([events[0]] + events[start:start + size])
    return batches[:2] + [batches[1]] + batches[2:] + [[events[-1]]]


@pytest.fixture
def reference(fresh_corpus, tmp_path):
    """One process over an unchanged copy of the cluster's corpus."""
    root = tmp_path / "reference"
    shutil.copytree(fresh_corpus, root)
    config = ReproConfig(backend="serial", log_format="off")
    with DiffServer(root, config) as single:
        yield single


def _landed(url: str, run: str) -> int:
    return get_json(f"{url}/runs?spec={SPEC_NAME}")["runs"].count(run)


def test_a_stream_across_workers_acks_as_one_process(
    fresh_cluster, reference
):
    batches = _batches(_events("across", "x1", seed=51))
    acks = [_post_batch(fresh_cluster.url, batch) for batch in batches]
    expected = [_post_batch(reference.url, batch) for batch in batches]
    assert acks == expected
    assert acks[-2]["status"] == acks[-1]["status"] == "closed"
    assert acks[-1]["duplicates"] == 1
    assert acks[-1]["result"] == acks[-2]["result"]
    assert _landed(fresh_cluster.url, "x1") == 1


def test_a_stream_survives_every_worker_dying(fresh_cluster):
    client = RemoteWorkspace(fresh_cluster.url)
    events = _events("dying", "x2", seed=52)
    session = client.stream(SPEC_NAME, "x2", session="dying", batch_size=8)
    for event in events[1:9]:
        if isinstance(event, ActivityEvent):
            session.activity(event.node, event.label)
    first = session.flush()
    assert first.status == "open"
    for member in get_json(f"{fresh_cluster.url}/healthz")["cluster"][
        "members"
    ]:
        os.kill(member["pid"], signal.SIGKILL)
    # The next batch waits in the socket's backlog for a restarted
    # worker, which resumes the session from its journal.
    for event in events[9:-1]:
        if isinstance(event, ActivityEvent):
            session.activity(event.node, event.label)
        else:
            session.edge(event.src, event.dst)
    final = session.close_run()
    assert final.status == "closed"
    assert final.acked_seq == len(events)
    assert _landed(fresh_cluster.url, "x2") == 1
    restarts = get_json(f"{fresh_cluster.url}/healthz")["cluster"]["restarts"]
    assert restarts >= 1
    client.close()


def test_live_lists_sessions_opened_through_both_workers(fresh_cluster):
    url = fresh_cluster.url
    opened = []
    for index in range(200):
        session = f"live{index}"
        _post_batch(url, _events(session, f"l{index}", seed=60)[:3])
        opened.append(session)
        metrics = get_json(f"{url}/metrics?format=json")["metrics"]
        workers = {
            sample["labels"]["worker"]
            for sample in metrics["server_requests_total"]["samples"]
            if sample["labels"]["route"] == "/stream/events"
        }
        if len(workers) == 2:
            break
    else:
        pytest.fail("one worker accepted every stream batch")
    for _ in range(4):
        live = get_json(f"{url}/stream/live")["sessions"]
        assert sorted(s["session"] for s in live) == sorted(opened)


def test_healthz_lists_both_members_by_pid(fresh_cluster):
    pids = {
        handle.pid for handle in fresh_cluster.supervisor._handles.values()
    }
    assert len(pids) == 2
    for _ in range(8):
        block = get_json(f"{fresh_cluster.url}/healthz")["cluster"]
        assert {m["pid"] for m in block["members"]} == pids
        assert block["alive"] == 2
    assert os.getpid() not in pids


def test_scrapes_answer_while_a_sibling_is_down(fresh_cluster):
    fresh_cluster.supervisor.poll_interval = 30.0
    members = get_json(f"{fresh_cluster.url}/healthz")["cluster"]["members"]
    os.kill(members[1]["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        health = get_json(f"{fresh_cluster.url}/healthz")
        if health["status"] == "degraded":
            break
        time.sleep(0.05)
    assert health["cluster"]["alive"] == 1
    for path in ("/stats", "/metrics?format=json", "/healthz"):
        status, _, body = http_get(fresh_cluster.url + path)
        assert status == 200, body


def test_no_worker_left_closes_the_socket(fresh_corpus):
    from repro.cluster.server import ClusterServer

    config = ReproConfig(backend="serial", log_format="off")
    server = ClusterServer(fresh_corpus, config, workers=2)
    server.supervisor.restart_limit = 0
    port = server.port
    failures = []

    def serve():
        try:
            server.serve_forever()
        except ReproError as exc:
            failures.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        deadline = time.monotonic() + 60
        while len(server.supervisor._handles) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        for handle in list(server.supervisor._handles.values()):
            os.kill(handle.pid, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert failures and "restart limit" in str(failures[0])
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5)
    finally:
        server.stop()
