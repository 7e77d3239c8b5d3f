"""The pre-forked cluster over the wire: supervision and merged scrapes.

Bit-identity of /matrix and /query against the in-process workspace
is asserted by the conformance suite (its ``served_ws`` fixture's
``cluster`` parameter); here we pin down the cluster-only behaviours —
at most one DP per worker for identical cold diffs, restart-on-crash,
the merged health and scrape shapes — plus a raw-wire byte-identity
spot check on ``/diff``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from _fixture import VARIED
from _util import get_json, http_get, http_post, metric_total

from repro.backends.base import SerialBackend
from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.service.server import DiffServer
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import emboss
from repro.workflow.specification import WorkflowSpecification
from repro.workspace import Workspace

SPEC = "PA"
RUNS = ("r01", "r02", "r03", "r04")
PAIRS = [(a, b) for a in RUNS for b in RUNS if a != b]


class TestConstruction:
    def test_rejects_zero_workers(self, tmp_path):
        from repro.cluster.server import ClusterServer

        with pytest.raises(ReproError, match="at least 1 worker"):
            ClusterServer(tmp_path, ReproConfig(), workers=0)

    def test_rejects_backend_instances(self, tmp_path):
        from repro.cluster.server import ClusterServer

        config = ReproConfig(backend=SerialBackend())
        with pytest.raises(ReproError, match="backend by name"):
            ClusterServer(tmp_path, config, workers=2)

    def test_worker_count_from_config(self, tmp_path):
        from repro.cluster.server import ClusterServer

        with pytest.raises(ReproError, match="at least 1 worker"):
            ClusterServer(tmp_path, ReproConfig(workers=0))


class TestClusterSurface:
    """Read-mostly assertions against the module-scoped cluster."""

    def test_healthz_reports_cluster_block(self, cluster):
        payload = get_json(f"{cluster.url}/healthz")
        assert payload["status"] == "ok"
        block = payload["cluster"]
        assert block["workers"] == 2
        assert block["alive"] == 2
        assert block["restarts"] == 0
        members = block["members"]
        assert [m["index"] for m in members] == [0, 1]
        for member in members:
            assert member["alive"] is True
            assert member["pid"] > 0
            assert "port" not in member
        # The single-process healthz fields survive the merge.
        assert "wire_version" in payload
        assert payload["specifications"] >= 1

    def test_diff_bytes_identical_to_single_process(
        self, cluster, corpus_root
    ):
        config = ReproConfig(backend="serial", log_format="off")
        with DiffServer(corpus_root, config) as single:
            for a, b in (("r01", "r02"), ("r03", "r01")):
                path = f"/diff/{a}/{b}?spec={SPEC}"
                c_status, c_headers, c_body = http_get(
                    cluster.url + path
                )
                s_status, s_headers, s_body = http_get(
                    single.url + path
                )
                assert (c_status, c_body) == (s_status, s_body)
                assert c_headers["ETag"] == s_headers["ETag"]

    def test_etag_revalidation_304(self, cluster):
        path = f"{cluster.url}/diff/r01/r02?spec={SPEC}"
        status, headers, _ = http_get(path)
        assert status == 200
        etag = headers["ETag"]
        status, headers, body = http_get(
            path, headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_request_id_echoed_through_proxy(self, cluster):
        status, headers, _ = http_get(
            f"{cluster.url}/diff/r01/r02?spec={SPEC}",
            headers={"X-Request-Id": "req-cluster-7"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "req-cluster-7"

    def test_unknown_run_error_relayed(self, cluster):
        status, _, body = http_get(
            f"{cluster.url}/diff/r01/nope?spec={SPEC}"
        )
        assert status == 404
        envelope = json.loads(body)["error"]
        assert "nope" in envelope["message"]

    def test_runs_listing_unified(self, cluster):
        payload = get_json(f"{cluster.url}/runs?spec={SPEC}")
        assert payload["runs"] == ["r01", "r02", "r03", "r04"]

    def test_matrix_covers_every_pair(self, cluster):
        status, _, body = http_post(
            f"{cluster.url}/matrix", {"spec": SPEC}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["runs"] == ["r01", "r02", "r03", "r04"]
        assert len(payload["distances"]) == 6

    def test_stats_aggregates_workers(self, cluster):
        payload = get_json(f"{cluster.url}/stats")
        assert payload["source"] == "cluster"
        counters = payload["counters"]
        assert counters["cluster_workers"] == 2
        assert counters["server_requests"] >= 1
        assert counters["cluster_worker_restarts"] == 0
        assert "cluster_requests" not in counters
        assert "memory_hit_ratio" in payload["derived"]
        assert "lock_wait_seconds" in payload["derived"]

    def test_metrics_prometheus_merged(self, cluster):
        status, headers, body = http_get(f"{cluster.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        assert "cluster_workers 2" in text
        assert "cluster_proxied_requests_total" not in text
        assert "cluster_requests_total" not in text

    def test_metrics_json_merged(self, cluster):
        snapshot = get_json(f"{cluster.url}/metrics?format=json")
        families = snapshot["metrics"]
        assert "cluster_workers" in families
        workers_seen = {
            sample["labels"]["worker"]
            for sample in families["server_requests_total"]["samples"]
        }
        assert workers_seen <= {"0", "1"}
        assert len(workers_seen) >= 1

    def test_metrics_rejects_unknown_format(self, cluster):
        status, _, body = http_get(
            f"{cluster.url}/metrics?format=xml"
        )
        assert status == 400
        assert "format" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize("fmt", ["xml", "Openmetrics"])
    def test_bad_metrics_format_envelope_matches_single_process(
        self, cluster, corpus_root, fmt
    ):
        config = ReproConfig(backend="serial", log_format="off")
        with DiffServer(corpus_root, config) as single:
            envelopes = []
            for base in (cluster.url, single.url):
                status, _, body = http_get(f"{base}/metrics?format={fmt}")
                error = json.loads(body)["error"]
                envelopes.append(
                    (status, error["type"], error["message"],
                     error["status"])
                )
        assert envelopes[0] == envelopes[1]
        assert envelopes[0][0] == 400


def _requests_by_route(snapshot: dict, family: str, route: str) -> float:
    """``family``'s samples for ``route``, summed over every other
    label (``worker`` included)."""
    return sum(
        sample["value"]
        for sample in snapshot["metrics"][family]["samples"]
        if sample["labels"]["route"] == route
    )


class TestOneOwner:
    """Each ``/matrix`` and ``/query`` is one worker's job: the answer
    is the full one whatever the body carries."""

    @pytest.mark.parametrize("route", ["matrix", "query"])
    def test_a_shard_key_gets_the_full_answer(self, cluster, route):
        """``shard`` is an unknown body key like any other: it neither
        splits the answer nor draws an error."""
        answers = [
            http_post(f"{cluster.url}/{route}", {"spec": SPEC, **extra})
            for extra in ({}, {"shard": {"index": 0, "count": 2}})
        ]
        assert [status for status, _, _ in answers] == [200, 200]
        plain, sharded = (json.loads(body) for _, _, body in answers)
        assert sharded == plain
        if route == "matrix":
            assert len(sharded["distances"]) == 6
        else:
            assert sharded["total_matches"] == 6
            assert len(sharded["items"]) == 6


def _fire_together(url: str, k: int) -> list:
    """``k`` barrier-synchronised GETs of ``url``; their outcomes."""
    barrier = threading.Barrier(k)
    outcomes = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        status, _, body = http_get(url)
        with lock:
            outcomes.append((status, body))

    threads = [threading.Thread(target=fire) for _ in range(k)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return outcomes


def _answered_by_worker(snapshot: dict, route: str) -> dict:
    """``route``'s request counts in a merged scrape, by worker."""
    counts: dict = {}
    for sample in snapshot["metrics"]["server_requests_total"]["samples"]:
        labels = sample["labels"]
        if labels["route"] == route:
            worker = int(labels["worker"])
            counts[worker] = counts.get(worker, 0) + sample["value"]
    return counts


def _until_both_workers(url: str, request, route: str) -> None:
    """Send ``request()`` on fresh connections until both workers
    answered ``route`` once (bounded)."""
    for _ in range(200):
        request()
        snapshot = get_json(f"{url}/metrics?format=json")
        if len(_answered_by_worker(snapshot, route)) == 2:
            return
    pytest.fail(f"one worker answered every {route}")


class TestSpecRegistration:
    """``PUT /specs/{name}`` is one write by whichever worker accepts
    it, and every worker resolves the specification from the store, so
    none needs telling."""

    def test_every_worker_sees_a_registration(
        self, fresh_cluster, fresh_corpus
    ):
        url = fresh_cluster.url
        # Both workers resolve the old PA first.
        _until_both_workers(
            url,
            lambda: http_get(f"{url}/diff/r01/r02?spec={SPEC}"),
            "/diff/{a}/{b}",
        )
        client = RemoteWorkspace(url)
        replacement = WorkflowSpecification(emboss().graph, name=SPEC)
        client.register(replacement)
        for name, seed in (("n1", 1), ("n2", 2)):
            client.import_run(
                execute_workflow(replacement, VARIED, seed=seed, name=name)
            )
        client.close()
        local = Workspace(
            fresh_corpus, ReproConfig(backend="serial", persistent=False)
        ).diff("n1", "n2", spec=SPEC)
        before = _answered_by_worker(
            get_json(f"{url}/metrics?format=json"), "/diff/{a}/{b}"
        )
        answers = set()

        def diff_new_runs():
            status, _, body = http_get(f"{url}/diff/n1/n2?spec={SPEC}")
            assert status == 200
            answers.add(body)

        for _ in range(200):
            diff_new_runs()
            after = _answered_by_worker(
                get_json(f"{url}/metrics?format=json"), "/diff/{a}/{b}"
            )
            if all(after[w] > before.get(w, 0) for w in (0, 1)):
                break
        else:
            pytest.fail("one worker answered every diff")
        assert len(answers) == 1
        assert json.loads(answers.pop()) == local.to_dict()


class TestCoalescing:
    """No cross-worker coalescing: each worker's service coalesces
    identical cold computations onto one DP, so K simultaneous
    identical cold diffs cost at most one DP per worker."""

    def test_concurrent_identical_cold_diffs_at_most_n_dps(
        self, fresh_cluster
    ):
        """K=8 identical cold ``GET /diff`` requests cost at most 2
        DPs on two workers, and every answer is identical."""
        k = 8
        outcomes = _fire_together(
            f"{fresh_cluster.url}/diff/r01/r02?spec={SPEC}", k
        )
        assert len(outcomes) == k
        statuses = {status for status, _ in outcomes}
        assert statuses == {200}
        bodies = {body for _, body in outcomes}
        assert len(bodies) == 1

        snapshot = get_json(
            f"{fresh_cluster.url}/metrics?format=json"
        )
        assert 1 <= metric_total(snapshot, "dp_invocations_total") <= 2

    def test_parent_reports_no_coalescing(self, cluster):
        """No parent-side flight table or relay: ``/stats`` carries no
        ``cluster_coalesced`` or ``cluster_proxied`` key and neither
        face of the merged scrape such a family."""
        counters = get_json(f"{cluster.url}/stats")["counters"]
        assert "cluster_coalesced" not in counters
        assert "cluster_proxied" not in counters
        snapshot = get_json(f"{cluster.url}/metrics?format=json")
        assert "cluster_coalesced_requests_total" not in snapshot["metrics"]
        assert "cluster_proxied_requests_total" not in snapshot["metrics"]
        status, _, body = http_get(f"{cluster.url}/metrics")
        assert status == 200
        assert b"cluster_coalesced" not in body


class TestSupervision:
    def test_worker_crash_is_restarted_and_serving_resumes(
        self, fresh_cluster
    ):
        for a, b in PAIRS:
            status, _, _ = http_get(
                f"{fresh_cluster.url}/diff/{a}/{b}?spec={SPEC}"
            )
            assert status == 200
        health = get_json(f"{fresh_cluster.url}/healthz")
        victim = health["cluster"]["members"][1]
        os.kill(victim["pid"], signal.SIGKILL)

        deadline = time.monotonic() + 30
        recovered = None
        while time.monotonic() < deadline:
            payload = get_json(f"{fresh_cluster.url}/healthz")
            block = payload["cluster"]
            if block["alive"] == 2 and block["restarts"] >= 1:
                recovered = payload
                break
            time.sleep(0.2)
        assert recovered is not None, "worker was not restarted"
        assert recovered["status"] == "ok"

        replacement = recovered["cluster"]["members"][1]
        assert replacement["pid"] != victim["pid"]
        assert replacement["restarts"] >= 1

        # Every pair still answers, and the restart is visible in
        # /stats.
        for a, b in PAIRS:
            status, _, _ = http_get(
                f"{fresh_cluster.url}/diff/{a}/{b}?spec={SPEC}"
            )
            assert status == 200
        stats = get_json(f"{fresh_cluster.url}/stats")
        assert stats["counters"]["cluster_worker_restarts"] >= 1

    def test_restarted_worker_answers_from_the_shared_database(
        self, fresh_cluster
    ):
        """A pair computed before every worker was killed is answered
        again, once they restart, without a new DP: workers persist
        derived state in the store's database, so a restart starts
        warm.  No worker owns a pair, so the counts are summed over the
        workers."""
        a, b = "r01", "r03"
        url = f"{fresh_cluster.url}/diff/{a}/{b}?spec={SPEC}"
        status, _, before = http_get(url)
        assert status == 200
        counters = get_json(f"{fresh_cluster.url}/stats")["counters"]
        computed = (counters["computed_pairs"], counters["computed_scripts"])
        assert computed == (0, 1)

        health = get_json(f"{fresh_cluster.url}/healthz")
        for victim in health["cluster"]["members"]:
            os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            block = get_json(f"{fresh_cluster.url}/healthz")["cluster"]
            if block["alive"] == 2 and block["restarts"] >= 2:
                break
            time.sleep(0.2)
        else:
            pytest.fail("workers were not restarted")

        status, _, after = http_get(url)
        assert (status, after) == (200, before)
        counters = get_json(f"{fresh_cluster.url}/stats")["counters"]
        # Every worker's counters start at zero after its restart: no
        # DP ran anywhere, and the answer came out of the database.
        assert (
            counters["computed_pairs"], counters["computed_scripts"]
        ) == (0, 0)
        assert counters["script_disk_hits"] == 1

    def test_healthz_degraded_while_worker_down(self, fresh_cluster):
        """Between the crash and the restart the cluster self-reports
        degraded (a watcher poll interval wide enough to observe)."""
        fresh_cluster.supervisor.poll_interval = 1.0
        health = get_json(f"{fresh_cluster.url}/healthz")
        victim = health["cluster"]["members"][1]
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 5
        saw_degraded = False
        while time.monotonic() < deadline:
            payload = get_json(f"{fresh_cluster.url}/healthz")
            if payload["status"] == "degraded":
                saw_degraded = True
                break
            if payload["cluster"]["restarts"]:
                break  # restarted before we caught the gap — fine
            time.sleep(0.05)
        if saw_degraded:
            # It must heal afterwards.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                payload = get_json(f"{fresh_cluster.url}/healthz")
                if payload["status"] == "ok":
                    break
                time.sleep(0.2)
            assert payload["status"] == "ok"
