"""The HTTP layer itself: routes, negotiation, ETags, live sockets.

Most tests drive the framework-free :class:`WorkspaceApp` directly
(request in, response out — no socket); the live-server classes at the
end exercise the real ``ThreadingHTTPServer`` through
:class:`RemoteWorkspace` and raw sockets: percent-encoded names,
persistent connections, body framing and the drain.
"""

import http.client
import json
import logging
import threading
import time

import pytest

from _wire import raw_exchange

from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import TransportError
from repro.io.xml_io import specification_to_xml
from repro.service.app import (
    HttpRequest,
    PROV_JSON_TYPE,
    WorkspaceApp,
    XML_TYPE,
)
from repro.service.server import DiffServer
from repro.workflow.real_workflows import emboss
from repro.workspace import Workspace


@pytest.fixture(scope="module")
def app(corpus_root):
    return WorkspaceApp(
        Workspace(corpus_root, ReproConfig(backend="serial"))
    )


def get(app, path, query=None, headers=None):
    return app.handle(
        HttpRequest(
            method="GET",
            path=path,
            query=dict(query or {}),
            headers={
                key.lower(): value
                for key, value in (headers or {}).items()
            },
        )
    )


def post(app, path, payload=None, query=None, body=None, headers=None):
    if payload is not None:
        body = json.dumps(payload).encode("utf8")
    return app.handle(
        HttpRequest(
            method="POST",
            path=path,
            query=dict(query or {}),
            headers={
                key.lower(): value
                for key, value in (headers or {}).items()
            },
            body=body or b"",
        )
    )


class TestRoutes:
    def test_healthz(self, app):
        response = get(app, "/healthz")
        assert response.status == 200
        payload = response.json_payload()
        assert payload["status"] == "ok"
        assert payload["specifications"] == 1

    def test_stats_carries_service_and_server_counters(self, app):
        payload = get(app, "/stats").json_payload()
        assert payload["source"] == "server"
        assert "computed_pairs" in payload["counters"]
        assert payload["counters"]["server_requests"] >= 1

    def test_specs_listing_and_summary(self, app, spec_name):
        assert get(app, "/specs").json_payload()["specs"] == [
            spec_name
        ]
        summary = get(app, f"/specs/{spec_name}").json_payload()
        assert summary["spec"] == spec_name
        assert summary["nodes"] > 0
        assert summary["runs"] == 4

    def test_spec_content_negotiation(self, app, spec_name):
        response = get(
            app, f"/specs/{spec_name}", headers={"Accept": XML_TYPE}
        )
        assert response.content_type == XML_TYPE
        assert b"<specification" in response.body

    def test_runs_listing_resolves_default_spec(self, app, spec_name):
        payload = get(app, "/runs").json_payload()
        assert payload["spec"] == spec_name
        assert payload["runs"] == ["r01", "r02", "r03", "r04"]

    def test_run_summary_and_prov_negotiation(self, app):
        summary = get(app, "/runs/r01").json_payload()
        assert summary["run"] == "r01"
        assert len(summary["fingerprint"]) == 64
        response = get(
            app, "/runs/r01", headers={"Accept": PROV_JSON_TYPE}
        )
        assert response.content_type == PROV_JSON_TYPE
        document = json.loads(response.body.decode("utf8"))
        assert "activity" in document

    def test_diff_payload_is_a_versioned_outcome(self, app):
        payload = get(app, "/diff/r01/r02").json_payload()
        assert payload["v"] == 1
        assert payload["run_a"] == "r01"
        assert payload["cost_key"] == "PowerCost(ε=0.0)"
        assert payload["distance"] == pytest.approx(
            sum(op["cost"] for op in payload["operations"])
        )

    def test_matrix_route(self, app, spec_name):
        payload = post(app, "/matrix", payload={}).json_payload()
        assert payload["spec"] == spec_name
        assert len(payload["distances"]) == 6
        subset = post(
            app, "/matrix", payload={"runs": ["r01", "r02"]}
        ).json_payload()
        assert len(subset["distances"]) == 1

    def test_query_route_pages(self, app):
        first = post(
            app, "/query", payload={"limit": 4}
        ).json_payload()
        assert first["total_matches"] == 6
        assert len(first["items"]) == 4
        assert first["next_cursor"]
        second = post(
            app,
            "/query",
            payload={"limit": 4, "cursor": first["next_cursor"]},
        ).json_payload()
        assert len(second["items"]) == 2
        assert second["next_cursor"] is None

    @pytest.mark.parametrize(
        "body",
        [
            {"limit": -1},
            {"cursor": "garbage"},
            {"spec": "nope", "limit": -1},
            {"runs": "r01", "cursor": "garbage"},
        ],
    )
    def test_query_page_faults_answered_before_any_store_work(
        self, app, body
    ):
        before = app.workspace.service.stats_counters
        response = post(app, "/query", payload=body)
        assert response.status == 400
        message = response.json_payload()["error"]["message"]
        assert "limit" in message or "cursor" in message
        assert app.workspace.service.stats_counters == before

    def test_unexpected_failure_is_a_generic_500_with_a_logged_traceback(
        self, app, monkeypatch
    ):
        def boom(request):
            raise RuntimeError("secret /private/path")

        monkeypatch.setattr(app, "_route", boom)
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        log = logging.getLogger("repro.service.app")
        level = log.level
        log.addHandler(handler)
        log.setLevel(logging.ERROR)
        errors = app.errors
        try:
            response = get(app, "/healthz", headers={"X-Request-Id": "r-500"})
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
        assert response.status == 500
        error = response.json_payload()["error"]
        assert error["type"] == "InternalServerError"
        assert "secret" not in error["message"]
        assert error["request_id"] == "r-500"
        assert app.errors == errors + 1
        [record] = records
        assert record.exc_info[0] is RuntimeError

    def test_unknown_route_is_an_envelope_404(self, app):
        response = get(app, "/nonsense")
        assert response.status == 404
        assert (
            response.json_payload()["error"]["type"] == "NotFoundError"
        )

    def test_wrong_method_is_405(self, app):
        response = post(app, "/specs/PA", payload={})
        assert response.status == 405


class TestEtagCaching:
    def test_repeated_diff_revalidates_to_304(self, app):
        first = get(app, "/diff/r01/r03")
        etag = first.headers["ETag"]
        assert etag.startswith('"')
        again = get(
            app, "/diff/r01/r03", headers={"If-None-Match": etag}
        )
        assert again.status == 304
        assert again.body == b""
        assert again.headers["ETag"] == etag

    def test_etag_differs_per_direction_and_cost(self, app):
        forward = get(app, "/diff/r01/r03").headers["ETag"]
        backward = get(app, "/diff/r03/r01").headers["ETag"]
        lengthwise = get(
            app, "/diff/r01/r03", query={"cost": "length"}
        ).headers["ETag"]
        assert len({forward, backward, lengthwise}) == 3

    def test_stale_etag_gets_a_fresh_body(self, app):
        response = get(
            app, "/diff/r01/r03", headers={"If-None-Match": '"stale"'}
        )
        assert response.status == 200
        assert response.json_payload()["run_a"] == "r01"

    def test_etag_changes_when_a_run_changes(
        self, app, varied_params
    ):
        """Rewriting a run's file invalidates the tag through the
        fingerprint index's stamp check."""
        from repro.workflow.execution import execute_workflow

        ws = app.workspace
        spec = ws.specification("PA")
        ws.import_run(
            execute_workflow(spec, varied_params, seed=401, name="mut")
        )
        first = get(app, "/diff/r01/mut").headers["ETag"]
        ws.import_run(
            execute_workflow(spec, varied_params, seed=402, name="mut")
        )
        second = get(app, "/diff/r01/mut").headers["ETag"]
        assert first != second

    def test_every_wire_cost_carries_an_identity_and_tags(self, app):
        """Every cost the wire grammar can express has a cache
        identity, so every served diff is revalidatable."""
        response = get(
            app, "/diff/r01/r02", query={"cost": "power:0.25"}
        )
        assert "ETag" in response.headers


class TestLiveServer:
    """Through the real socket: server fixture + urllib client."""

    def test_percent_encoded_names_round_trip(
        self, server, varied_params
    ):
        from repro.workflow.execution import execute_workflow

        remote = RemoteWorkspace(server.url)
        spec = server.workspace.specification("PA")
        weird = "runs/are weird? yes#1"
        run = execute_workflow(
            spec, varied_params, seed=55, name=weird
        )
        remote.import_run(run)
        assert weird in remote.runs(spec="PA")
        outcome = remote.diff("r01", weird, spec="PA")
        assert outcome.run_b == weird
        assert remote.run(weird, spec="PA").equivalent(run)

    def test_client_etag_memo_survives_across_calls(self, server):
        remote = RemoteWorkspace(server.url)
        before = server.app.not_modified
        first = remote.diff("r01", "r04")
        second = remote.diff("r01", "r04")
        assert first.to_dict() == second.to_dict()
        assert server.app.not_modified == before + 1

    def test_healthz_over_the_wire(self, server):
        assert RemoteWorkspace(server.url).healthz()["status"] == "ok"

    def test_register_over_the_wire_conflicts_on_name_mismatch(
        self, server
    ):
        import urllib.request

        from repro.errors import ConflictError

        body = specification_to_xml(emboss()).encode("utf8")
        request = urllib.request.Request(
            server.url + "/specs/not-emboss",
            data=body,
            method="PUT",
            headers={"Content-Type": XML_TYPE},
        )
        with pytest.raises(Exception):  # urllib surfaces HTTP 409
            urllib.request.urlopen(request)
        # The client maps the same failure to ConflictError.
        remote = RemoteWorkspace(server.url)
        renamed = emboss()
        with pytest.raises(ConflictError):
            remote._request(
                "PUT",
                "/specs/not-emboss",
                body=specification_to_xml(renamed).encode("utf8"),
                headers={"Content-Type": XML_TYPE},
            )


class TestCatalogueCost:
    """A warm diff costs one ``stat`` per fingerprint and no listing."""

    def test_warm_diff_lists_nothing_and_stats_once_per_fingerprint(
        self, app, monkeypatch
    ):
        import os

        from repro.corpus.index import FingerprintIndex

        query = {"spec": "PA"}
        assert get(app, "/diff/r01/r02", query=query).status == 200
        store = app.workspace.store
        run_files = {
            str(store.locate_run("PA", name)): name
            for name in ("r01", "r02")
        }
        listings = []
        stats = {name: 0 for name in run_files.values()}
        fingerprints = {name: 0 for name in run_files.values()}
        real_stat = os.stat
        real_fingerprint = FingerprintIndex.fingerprint

        def counting_stat(path, *args, **kwargs):
            name = run_files.get(os.fspath(path))
            if name is not None:
                stats[name] += 1
            return real_stat(path, *args, **kwargs)

        def counting_fingerprint(self, spec, run_name):
            fingerprints[run_name] += 1
            return real_fingerprint(self, spec, run_name)

        monkeypatch.setattr(os, "stat", counting_stat)
        monkeypatch.setattr(
            os, "listdir",
            lambda *a, **k: listings.append(a) or [],
        )
        monkeypatch.setattr(
            os, "scandir",
            lambda *a, **k: listings.append(a) or iter(()),
        )
        monkeypatch.setattr(
            FingerprintIndex, "fingerprint", counting_fingerprint
        )
        response = get(app, "/diff/r01/r02", query=query)
        assert response.status == 200
        assert listings == []
        assert all(count > 0 for count in fingerprints.values())
        assert stats == fingerprints


class TestWireEncoding:
    def test_json_bodies_are_compact_sorted_and_equivalent(self, app):
        response = get(app, "/diff/r01/r02")
        payload = app.workspace.diff("r01", "r02").to_dict()
        body = response.body.decode("utf8")
        assert json.loads(body) == payload
        assert body == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert "\n" not in body[:-1]

    def test_each_response_leaves_in_one_socket_write(
        self, server, monkeypatch
    ):
        import socketserver
        import urllib.error
        import urllib.request

        writes = []
        real_write = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(bytes(data))
            return real_write(self, data)

        monkeypatch.setattr(
            socketserver._SocketWriter, "write", counting_write
        )
        for path, status in (
            ("/diff/r01/r02?spec=PA", 200),
            ("/healthz", 200),
            ("/no/such/route", 404),
        ):
            writes.clear()
            try:
                with urllib.request.urlopen(server.url + path) as reply:
                    body = reply.read()
                    code = reply.status
            except urllib.error.HTTPError as error:
                body, code = error.read(), error.code
            assert code == status
            assert len(writes) == 1, (path, len(writes))
            assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
            assert writes[0].endswith(body)


class TestBodyFraming:
    """A request whose body cannot be delimited is refused, and its
    connection closed, before the app sees it."""

    @pytest.mark.parametrize("declared", ["abc", "-5", "+5", "1_0"])
    def test_malformed_content_length_is_a_400_envelope(
        self, server, declared
    ):
        body = b'{"spec":"PA","runs":["r01","r02"]}'
        status, headers, raw, rest = raw_exchange(
            server.url,
            b"POST /matrix HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + declared.encode() + b"\r\n\r\n" + body,
        )
        assert status == 400
        envelope = json.loads(raw)["error"]
        assert envelope["type"] == "ReproError"
        assert "Content-Length" in envelope["message"]
        assert envelope["request_id"] == headers["x-request-id"]
        # The unread body is never parsed as a next request.
        assert headers["connection"] == "close"
        assert rest == b""

    def test_well_formed_content_length_keeps_the_connection(self, server):
        body = b'{"spec":"PA","runs":["r01","r02"]}'
        request = (
            b"POST /matrix HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        close = (
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n\r\n"
        )
        status, headers, raw, rest = raw_exchange(server.url, request + close)
        assert status == 200
        assert "connection" not in headers
        assert json.loads(raw)["runs"] == ["r01", "r02"]
        assert rest.startswith(b"HTTP/1.1 200 ")


class TestPersistentConnections:
    """One kept-alive connection per client thread, not per request."""

    @staticmethod
    def count_accepts(server, monkeypatch):
        accepted = []
        real = server.httpd.get_request

        def counting():
            connection = real()
            accepted.append(connection)
            return connection

        monkeypatch.setattr(server.httpd, "get_request", counting)
        return accepted

    def test_sequential_diffs_share_one_connection(
        self, server, monkeypatch
    ):
        remote = RemoteWorkspace(server.url, etag_cache_size=1)
        remote.diff("r01", "r02", spec="PA")  # warm
        accepted = self.count_accepts(server, monkeypatch)
        for _ in range(100):
            assert remote.diff("r01", "r02", spec="PA").run_b == "r02"
        assert len(accepted) == 0  # the warm-up's connection served all

        fresh = RemoteWorkspace(server.url, etag_cache_size=1)
        for _ in range(100):
            fresh.diff("r02", "r01", spec="PA")
        assert len(accepted) == 1

    def test_client_threads_open_at_most_one_connection_each(
        self, server, monkeypatch
    ):
        accepted = self.count_accepts(server, monkeypatch)
        remote = RemoteWorkspace(server.url, etag_cache_size=1)
        barrier = threading.Barrier(8)
        failures = []

        def client(index):
            barrier.wait()
            try:
                for round_ in range(20):
                    run_b = ("r02", "r03", "r04")[(index + round_) % 3]
                    remote.diff("r01", run_b, spec="PA")
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert failures == []
        assert 1 <= len(accepted) <= 8


class TestDrain:
    """``stop()`` ends kept-alive connections: nothing is served after
    it returns, and a request in flight finishes with ``Connection:
    close``."""

    @pytest.fixture
    def live(self, corpus_root):
        before = set(threading.enumerate())
        server = DiffServer(
            corpus_root, ReproConfig(backend="serial", log_format="off")
        ).start()
        try:
            yield server, before
        finally:
            server.stop()

    def test_nothing_is_served_after_stop(self, live):
        server, before = live
        remote = RemoteWorkspace(server.url)
        assert remote.diff("r01", "r02", spec="PA").run_b == "r02"
        server.stop()
        # Every handler thread (one per connection) and the accept
        # loop have exited by the time stop() returns.
        assert set(threading.enumerate()) <= before
        with pytest.raises(TransportError):
            remote.diff("r01", "r03", spec="PA")

    def test_request_in_flight_at_stop_completes_with_close(self, live):
        server, before = live
        entered, gate = threading.Event(), threading.Event()
        real_handle = server.app.handle

        def held(request):
            if request.path == "/healthz":
                entered.set()
                gate.wait(10)
            return real_handle(request)

        server.app.handle = held
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        answers = {}

        def call():
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            answers["status"] = response.status
            answers["connection"] = response.getheader("Connection")
            answers["body"] = response.read()

        caller = threading.Thread(target=call)
        caller.start()
        assert entered.wait(10)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        deadline = time.monotonic() + 10
        while not server._connections.stopping:
            assert time.monotonic() < deadline, "stop() never began"
            time.sleep(0.01)
        gate.set()
        caller.join(10)
        stopper.join(15)
        assert not stopper.is_alive()
        assert answers["status"] == 200
        assert answers["connection"] == "close"
        assert json.loads(answers["body"])["status"] == "ok"
        assert set(threading.enumerate()) <= before
        connection.close()
