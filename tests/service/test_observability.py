"""Observability through the wire: /metrics, request IDs, drain.

The exact-count stress test is the acceptance gate: a fresh server is
hammered by 8 client threads and the scrape must account for every
single request — the instruments lock on write, so concurrency loses
nothing.  Everything here builds its own :class:`DiffServer` (silenced,
serial backend) so counters start from zero and the shared module
fixtures stay unpolluted.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api_types import STATS_WIRE_VERSION, StatsSnapshot
from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import NotFoundError
from repro.obs.logging import bound_request_id
from repro.obs.promcheck import parse_exposition
from repro.service.server import DiffServer


@pytest.fixture
def fresh_server(corpus_root):
    """A private server whose counters start at zero."""
    with DiffServer(
        corpus_root, ReproConfig(backend="serial", log_format="off")
    ) as live:
        yield live


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestMetricsEndpoint:
    def test_prometheus_is_the_default_and_validates(self, fresh_server):
        status, headers, body = fetch(fresh_server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        families = parse_exposition(body.decode("utf8"))
        assert "server_requests_total" in families
        assert "server_request_seconds" in families
        assert families["server_request_seconds"]["type"] == "histogram"
        assert "server_in_flight" in families

    def test_json_face_mirrors_the_registry(self, fresh_server):
        status, headers, body = fetch(
            fresh_server.url + "/metrics?format=json"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["v"] == 1
        assert "server_requests_total" in payload["metrics"]

    def test_accept_header_negotiates_json(self, fresh_server):
        _, headers, body = fetch(
            fresh_server.url + "/metrics",
            headers={"Accept": "application/json"},
        )
        assert headers["Content-Type"].startswith("application/json")
        json.loads(body)

    def test_unknown_format_is_an_error(self, fresh_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(fresh_server.url + "/metrics?format=xml")
        assert excinfo.value.code == 400

    def test_route_labels_are_templates(self, fresh_server):
        fetch(fresh_server.url + "/specs/PA")
        fetch(fresh_server.url + "/diff/r01/r02?spec=PA")
        _, _, body = fetch(fresh_server.url + "/metrics")
        text = body.decode("utf8")
        assert 'route="/specs/{name}"' in text
        assert 'route="/diff/{a}/{b}"' in text
        assert 'route="/specs/PA"' not in text


class TestRequestIds:
    def test_server_mints_an_id_when_none_sent(self, fresh_server):
        _, headers, _ = fetch(fresh_server.url + "/healthz")
        minted = headers["X-Request-Id"]
        assert len(minted) == 16
        int(minted, 16)

    def test_inbound_id_is_echoed(self, fresh_server):
        _, headers, _ = fetch(
            fresh_server.url + "/healthz",
            headers={"X-Request-Id": "trace-me-42"},
        )
        assert headers["X-Request-Id"] == "trace-me-42"

    def test_client_sends_and_errors_carry_the_id(self, fresh_server):
        remote = RemoteWorkspace(fresh_server.url)
        with bound_request_id("feedface00000000"):
            with pytest.raises(NotFoundError) as excinfo:
                remote.diff("r01", "no-such-run", spec="PA")
        assert excinfo.value.request_id == "feedface00000000"

    def test_client_mints_ids_outside_a_request(self, fresh_server):
        remote = RemoteWorkspace(fresh_server.url)
        with pytest.raises(NotFoundError) as excinfo:
            remote.diff("no-such", "runs", spec="PA")
        assert excinfo.value.request_id
        int(excinfo.value.request_id, 16)


class TestExactCounts:
    def test_eight_threads_are_counted_exactly(self, fresh_server):
        """8 workers x 25 requests: /stats and /metrics agree exactly."""
        workers_n, per_worker = 8, 25
        barrier = threading.Barrier(workers_n)
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=30)
                for _ in range(per_worker):
                    status, _, _ = fetch(fresh_server.url + "/healthz")
                    assert status == 200
            except Exception as exc:  # noqa: BLE001 - for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer) for _ in range(workers_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        # /stats first: its own request is counted at handle start,
        # while the metric increments at handle end — reading in this
        # order makes the two faces agree exactly.
        _, _, stats_body = fetch(fresh_server.url + "/stats")
        counters = json.loads(stats_body)["counters"]
        expected = workers_n * per_worker + 1  # + the /stats request
        assert counters["server_requests"] == expected
        assert counters["server_errors"] == 0

        _, _, metrics_body = fetch(fresh_server.url + "/metrics")
        families = parse_exposition(metrics_body.decode("utf8"))
        total = sum(
            value
            for name, labels, value in families["server_requests_total"][
                "samples"
            ]
        )
        assert total == expected
        healthz = sum(
            value
            for name, labels, value in families["server_requests_total"][
                "samples"
            ]
            if labels.get("route") == "/healthz"
        )
        assert healthz == workers_n * per_worker


class TestStatsWire:
    def test_snapshot_travels_at_v2_with_derived_ratios(
        self, fresh_server
    ):
        remote = RemoteWorkspace(fresh_server.url)
        remote.diff("r01", "r02", spec="PA")  # cold
        remote.diff("r01", "r02", spec="PA")  # warm
        snapshot = remote.stats_snapshot()
        assert snapshot.source == fresh_server.url
        payload = snapshot.to_dict()
        assert payload["v"] == STATS_WIRE_VERSION
        derived = snapshot.derived
        assert set(derived) >= {
            "memory_hit_ratio",
            "disk_hit_ratio",
            "script_hit_ratio",
            "lock_wait_seconds",
        }
        assert 0.0 <= derived["memory_hit_ratio"] <= 1.0

    def test_no_triangle_counter_on_the_wire(self, fresh_server):
        remote = RemoteWorkspace(fresh_server.url)
        remote.nearest("r01", k=1, spec="PA")
        bodies = [
            fetch(fresh_server.url + path)[2]
            for path in ("/stats", "/metrics", "/metrics?format=json")
        ]
        for body in bodies:
            assert b"dp_skipped_by_bound" in body
            assert b"dp_pruned_by_triangle" not in body

    def test_v1_payload_still_decodes(self):
        legacy = {
            "v": 1,
            "source": "server",
            "counters": {"computed_pairs": 3},
        }
        snapshot = StatsSnapshot.from_dict(legacy)
        assert snapshot.counters["computed_pairs"] == 3
        assert snapshot.derived == {}


class TestGracefulDrain:
    def test_stop_is_idempotent_and_joins(self, corpus_root):
        server = DiffServer(
            corpus_root, ReproConfig(backend="serial", log_format="off")
        ).start()
        fetch(server.url + "/healthz")
        server.stop(drain_timeout=5)
        server.stop(drain_timeout=5)  # second call is a no-op
        assert server.app.in_flight() == 0

    def test_stop_waits_for_in_flight_requests(self, corpus_root):
        server = DiffServer(
            corpus_root, ReproConfig(backend="serial", log_format="off")
        ).start()
        try:
            fetch(server.url + "/healthz")
            # Simulate one still-running request.
            server.app.begin_request()
            stopper = threading.Thread(
                target=server.stop, kwargs={"drain_timeout": 10}
            )
            stopper.start()
            time.sleep(0.3)
            # Still draining: the in-flight request pins the stop.
            assert stopper.is_alive()
            server.app.end_request()
            stopper.join(timeout=30)
            assert not stopper.is_alive()
        finally:
            server.app._in_flight = 0  # safety net on failure
            server.stop(drain_timeout=0)

    def test_drain_timeout_abandons_stragglers(self, corpus_root):
        server = DiffServer(
            corpus_root, ReproConfig(backend="serial", log_format="off")
        ).start()
        server.app.begin_request()
        try:
            started = time.monotonic()
            server.stop(drain_timeout=0.3)
            elapsed = time.monotonic() - started
            assert elapsed < 5  # gave up at the deadline, not hung
        finally:
            server.app.end_request()

    def test_drain_aborts_coalesced_followers_with_503(self, tmp_path):
        """A request blocked on another caller's in-flight computation
        is completed deterministically at the drain deadline: the stop
        path aborts the flight table and the follower answers 503
        (retryable — no work was applied) instead of hanging."""
        from _fixture import build_corpus

        from repro.corpus.fingerprint import cost_model_key, script_key
        from repro.costs.standard import UnitCost

        # A private cold store: with the shared corpus the r01–r02
        # script may already be in the persistent cache, and a cached
        # answer never joins the flight this test needs to abort.
        root = tmp_path / "drain-store"
        build_corpus(root)
        server = DiffServer(
            root, ReproConfig(backend="serial", log_format="off")
        ).start()
        service = server.workspace.service
        _, fingerprints = service._resolve("PA", ["r01", "r02"])
        key = script_key(
            fingerprints["r01"],
            fingerprints["r02"],
            cost_model_key(UnitCost()),
        )
        # Pose as a leader that will never publish: the incoming HTTP
        # request below joins this flight as a follower and blocks.
        leader, flight = service._flights.begin(("script", key))
        assert leader
        outcome = {}

        def follow():
            try:
                outcome["response"] = fetch(
                    server.url + "/diff/r01/r02?spec=PA"
                )
            except urllib.error.HTTPError as exc:
                outcome["status"] = exc.code
                outcome["body"] = json.loads(exc.read())

        follower = threading.Thread(target=follow)
        follower.start()
        deadline = time.monotonic() + 10
        while (
            service._flights.waiters() == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service._flights.waiters() == 1, "follower never joined"

        started = time.monotonic()
        server.stop(drain_timeout=0.5)
        follower.join(timeout=10)
        assert not follower.is_alive()
        assert time.monotonic() - started < 8
        assert outcome.get("status") == 503
        envelope = outcome["body"]["error"]
        assert envelope["type"] == "ServiceUnavailableError"
        assert "retry" in envelope["message"]
