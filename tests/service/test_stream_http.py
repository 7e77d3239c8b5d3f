"""Streaming ingestion over HTTP: routes, envelopes, body caps, resume.

Covers the transport-level guarantees the in-process suite cannot:
structured 400/413 envelopes (never a traceback), the configurable
request-body ceiling for both ``Content-Length`` and chunked bodies,
and a mid-stream TCP disconnect followed by a clean resume — the run
is ingested exactly once.
"""

from __future__ import annotations

import json

import pytest

from _fixture import SPEC_NAME, VARIED
from _wire import raw_exchange

from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import (
    PayloadTooLargeError,
    StreamProtocolError,
    TransportError,
)
from repro.service.server import DiffServer
from repro.stream.client import StreamSession
from repro.stream.events import encode_events
from repro.workflow.execution import execute_workflow


def _post_raw(server, path, body, headers):
    """One raw POST on a fresh socket; returns (status, parsed body)."""
    head = [f"POST {path} HTTP/1.1", f"Host: {server.host}"]
    head += [f"{k}: {v}" for k, v in headers.items()]
    head += ["Connection: close", "", ""]
    status, _, raw, _ = raw_exchange(
        server.url, "\r\n".join(head).encode("ascii") + body
    )
    return status, json.loads(raw)


#: Small enough to exercise rejections, large enough for the streaming
#: suite's real event batches.
BODY_CAP = 64 * 1024


@pytest.fixture(scope="module")
def capped_server(corpus_root):
    """A live server with a deliberately small request-body ceiling."""
    with DiffServer(
        corpus_root,
        ReproConfig(
            backend="serial", log_format="off", max_body_bytes=BODY_CAP
        ),
    ) as live:
        yield live


@pytest.fixture(scope="module")
def capped_remote(capped_server) -> RemoteWorkspace:
    return RemoteWorkspace(capped_server.url)


def _stream_run(remote, seed, name, **kwargs):
    """Stream one executed fixture run over HTTP; returns the final ack."""
    spec = remote.specification(SPEC_NAME)
    run = execute_workflow(spec, VARIED, seed=seed, name=name)
    with remote.stream(SPEC_NAME, name, **kwargs) as stream:
        labels = run.graph.labels()
        for node in run.graph.nodes():
            stream.activity(node, labels[node])
        for src, dst, _key in run.graph.edges():
            stream.edge(src, dst)
        return stream.close_run()


def test_stream_round_trip_over_http(capped_server, capped_remote):
    ack = _stream_run(capped_remote, seed=21, name="http-s1")
    assert ack.status == "closed"
    assert ack.result.origin == "stream"
    assert ack.result.new_pairs  # priced against the corpus
    assert "http-s1" in capped_remote.runs(spec=SPEC_NAME)
    # The run round-trips through every read path.
    assert capped_remote.diff("r01", "http-s1").distance >= 0


def test_live_view_over_http(capped_server, capped_remote):
    with capped_remote.stream(
        SPEC_NAME, "http-live1", threshold=3.0
    ) as stream:
        stream.activity("ex:a", "alien")
        status = stream.status()
        assert status is not None
        assert status.activities == 1
        listed = {s.session for s in capped_remote.stream_live()}
        assert stream.session_id in listed
    # Leaving the block without closing keeps the session open
    # server-side; it stays visible (and resumable).
    listed = {s.session for s in capped_remote.stream_live()}
    assert stream.session_id in listed


def test_malformed_ndjson_yields_a_structured_envelope(capped_server):
    status, payload = _post_raw(
        capped_server,
        "/stream/events",
        b'{"v": 1, "kind": "nope"}\n',
        {
            "Content-Type": "application/x-ndjson",
            "Content-Length": "25",
        },
    )
    assert status == 400
    assert payload["error"]["type"] == "StreamProtocolError"
    assert "frame 1" in payload["error"]["message"]


def test_malformed_ndjson_reraises_typed_client_side(capped_remote):
    with pytest.raises(StreamProtocolError):
        capped_remote._request(
            "POST",
            "/stream/events",
            body=b"not json at all\n",
            headers={"Content-Type": "application/x-ndjson"},
        )


def test_oversized_content_length_is_413_without_reading(capped_server):
    body = b"x" * (BODY_CAP + 1)
    status, payload = _post_raw(
        capped_server,
        "/stream/events",
        body,
        {
            "Content-Type": "application/x-ndjson",
            "Content-Length": str(len(body)),
        },
    )
    assert status == 413
    assert payload["error"]["type"] == "PayloadTooLargeError"
    assert str(BODY_CAP) in payload["error"]["message"]


def test_oversized_chunked_body_is_413(capped_server):
    chunk = b"y" * 8192
    body = b""
    for _ in range(BODY_CAP // len(chunk) + 1):  # just over the cap
        body += f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
    body += b"0\r\n\r\n"
    status, payload = _post_raw(
        capped_server,
        "/stream/events",
        body,
        {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
        },
    )
    assert status == 413
    assert payload["error"]["type"] == "PayloadTooLargeError"


def test_malformed_chunk_framing_is_400(capped_server):
    status, payload = _post_raw(
        capped_server,
        "/stream/events",
        b"zz\r\nnot-hex\r\n0\r\n\r\n",
        {"Transfer-Encoding": "chunked"},
    )
    assert status == 400
    assert payload["error"]["type"] == "ReproError"
    assert "chunked" in payload["error"]["message"]


def test_cap_applies_to_every_route(capped_server):
    body = b"{}" * (BODY_CAP // 2 + 1)
    status, payload = _post_raw(
        capped_server,
        "/prov/import",
        body,
        {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
        },
    )
    assert status == 413
    assert payload["error"]["type"] == "PayloadTooLargeError"


def test_mid_stream_disconnect_then_clean_resume(
    capped_server, capped_remote
):
    """Kill the connection mid-batch, resume, and the run lands once."""
    spec = capped_remote.specification(SPEC_NAME)
    run = execute_workflow(spec, VARIED, seed=23, name="http-resume1")
    labels = run.graph.labels()
    nodes = list(run.graph.nodes())
    edges = list(run.graph.edges())

    session_id = "http-resume1-session"
    with capped_remote.stream(
        SPEC_NAME, "http-resume1", session=session_id, batch_size=1000
    ) as first:
        for node in nodes[: len(nodes) // 2]:
            first.activity(node, labels[node])
        first.flush()  # half the activities are acked server-side
        half_acked = first.acked_seq
        assert half_acked > 1

    # Simulate the disconnect: a later batch dies on the wire after
    # the server applied an unknown prefix.  The client re-handshakes
    # with run_open and replays everything unacknowledged.
    sends = {"n": 0}
    real_send = first._send

    def flaky_send(data):
        sends["n"] += 1
        if sends["n"] == 1:
            # The request reached the server (it applies the batch)
            # but the response is lost.
            real_send(data)
            raise TransportError("connection reset mid-response")
        return real_send(data)

    resumed = StreamSession(
        flaky_send,
        SPEC_NAME,
        "http-resume1",
        session_id=session_id,
        batch_size=10_000,
    )
    for node in nodes:
        resumed.activity(node, labels[node])
    for src, dst, _key in edges:
        resumed.edge(src, dst)
    ack = resumed.close_run()

    assert ack.status == "closed"
    assert resumed.retries == 1
    # Exactly-once: the run landed once, with the full graph.
    assert (
        capped_remote.runs(spec=SPEC_NAME).count("http-resume1") == 1
    )
    stored = capped_remote.run("http-resume1", spec=SPEC_NAME)
    assert stored.graph.num_nodes == run.graph.num_nodes
    assert stored.graph.num_edges == run.graph.num_edges


def test_streaming_conformance_against_live_server(server_url):
    """The full wire contract against whatever server ``server_url``
    points at — the in-thread fixture locally, a real external
    ``repro serve`` process under ``REPRO_REMOTE_URL`` in CI."""
    remote = RemoteWorkspace(server_url)
    before = remote.stats_snapshot().counters.get(
        "stream_runs_closed", 0
    )
    ack = _stream_run(
        remote, seed=31, name="conf-stream1", threshold=50.0
    )
    assert ack.status == "closed"
    assert ack.result.new_pairs
    assert "conf-stream1" in remote.runs(spec=SPEC_NAME)
    # The streamed newcomer is diffable like any imported run.
    outcome = remote.diff("r01", "conf-stream1")
    assert outcome.distance >= 0
    after = remote.stats_snapshot().counters["stream_runs_closed"]
    assert after == before + 1
    # Replayed close frames are idempotent over the wire, too.
    live = remote.stream_live()
    assert all(s.run_name != "conf-stream1" for s in live)


def test_stream_counters_agree_between_stats_and_metrics(
    capped_server, capped_remote
):
    _stream_run(capped_remote, seed=27, name="http-count1")
    stats = capped_remote.stats_snapshot().counters
    counters = {
        key: value
        for key, value in stats.items()
        if key.startswith("stream_")
    }
    assert counters["stream_runs_closed"] >= 1
    assert counters["stream_open_sessions"] >= 0

    _, _, raw = capped_remote._request(
        "GET", "/metrics", query={"format": "json"}
    )
    metrics = json.loads(raw.decode("utf8"))["metrics"]

    def total(name):
        return sum(s["value"] for s in metrics[name]["samples"])

    assert total("stream_runs_closed_total") == (
        counters["stream_runs_closed"]
    )
    assert total("stream_sessions_opened_total") == (
        counters["stream_sessions_opened"]
    )
    assert total("stream_events_total") == (
        counters["stream_events_ingested"]
    )
    assert total("stream_open_sessions") == (
        counters["stream_open_sessions"]
    )
