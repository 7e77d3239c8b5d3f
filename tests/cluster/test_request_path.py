"""One request path: each worker is the single process.

A cluster worker is a ``DiffServer`` whose app runs the single
process's request frame, exposition renderer, stats derivation and
query page check.  These tests pin the places where the old routing
parent's copies once drifted: the merged text scrape, the answer to
query bodies with more than one fault, ``/stats`` against
``/metrics``, and the framing of bodies.  The drain that answers
coalesced waiters with a 503 is each worker's own ``DiffServer`` drain
(``tests/service/test_observability.py``).
"""

from __future__ import annotations

import json
import shutil

import pytest

from _util import get_json, http_get, http_post
from _wire import chunked_post, raw_exchange

from repro.api_types import QueryFilter
from repro.config import ReproConfig
from repro.obs.promcheck import parse_exposition
from repro.service.server import DiffServer
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    RunClose,
    RunOpen,
    encode_events,
)

SPEC = "PA"

#: Query bodies with a page fault.  All but the first two carry a
#: second fault (unknown spec, versionless filter, malformed ``runs``)
#: that one process used to report before the page fault.
PAGE_FAULT_BODIES = [
    {"limit": -1},
    {"cursor": "garbage"},
    {"spec": "nope", "limit": -1},
    {"spec": "nope", "cursor": "garbage"},
    {"filter": {"kinds": ["x"]}, "limit": -1},
    {"runs": "r01", "limit": -2},
]


@pytest.fixture(scope="module")
def single(corpus_root):
    """A single-process server over the cluster's corpus."""
    config = ReproConfig(backend="serial", log_format="off")
    with DiffServer(corpus_root, config) as live:
        yield live


def _scrape(url: str) -> dict:
    status, _, body = http_get(f"{url}/metrics")
    assert status == 200
    return parse_exposition(body.decode("utf-8"))


def _total(families: dict, name: str) -> float:
    return sum(value for _, _, value in families[name]["samples"])


@pytest.mark.parametrize(
    "body", PAGE_FAULT_BODIES, ids=lambda body: json.dumps(body)
)
def test_page_faults_answer_like_one_process(cluster, single, body):
    answers = []
    for base in (single.url, cluster.url):
        status, _, raw = http_post(f"{base}/query", body)
        error = json.loads(raw)["error"]
        answers.append((status, error["type"], error["message"]))
    assert answers[0] == answers[1]
    assert answers[0][:2] == (400, "ReproError")


def test_text_scrape_has_complete_histograms(cluster):
    """Every histogram series of the merged text scrape ends with a
    ``+Inf`` bucket equal to its ``_count`` (promcheck checks it too)."""
    http_get(f"{cluster.url}/diff/r01/r02?spec={SPEC}")
    families = _scrape(cluster.url)
    histograms = {
        name for name, info in families.items()
        if info["type"] == "histogram"
    }
    assert "server_request_seconds" in histograms
    assert "cluster_request_seconds" not in histograms
    for name in histograms:
        counts, infinite = {}, {}
        for sample, labels, value in families[name]["samples"]:
            series = frozenset(
                item for item in labels.items() if item[0] != "le"
            )
            if sample == f"{name}_count":
                counts[series] = value
            elif sample == f"{name}_bucket" and labels["le"] == "+Inf":
                infinite[series] = value
        assert infinite == counts, name
        if name.endswith("request_seconds"):
            assert counts, name


def test_stats_and_metrics_agree_on_worker_requests(cluster):
    """``/stats`` first: its own request counts at handle start, the
    metric at handle end, so this order makes both faces agree — summed
    over the workers, whichever of them answers each scrape."""
    _, headers, _ = http_get(f"{cluster.url}/diff/r01/r02?spec={SPEC}")
    http_get(
        f"{cluster.url}/diff/r01/r02?spec={SPEC}",
        headers={"If-None-Match": headers["ETag"]},
    )
    http_get(f"{cluster.url}/metrics?format=yaml")
    counters = get_json(f"{cluster.url}/stats")["counters"]
    families = _scrape(cluster.url)
    assert _total(families, "server_requests_total") == (
        counters["server_requests"]
    )
    assert _total(families, "server_errors_total") == (
        counters["server_errors"]
    )
    assert _total(families, "server_not_modified_total") == (
        counters["server_not_modified"]
    )
    assert counters["server_errors"] >= 1
    assert counters["server_not_modified"] >= 1
    for name, info in families.items():
        if name.startswith("server_"):
            for _, labels, _ in info["samples"]:
                assert "worker" in labels, name


@pytest.mark.parametrize("enabled", [True, False])
def test_cluster_families_follow_the_metrics_switch(tmp_path, enabled):
    from repro.cluster.server import ClusterServer

    config = ReproConfig(backend="serial", log_format="off", metrics=enabled)
    with ClusterServer(tmp_path, config, workers=2) as server:
        snapshot = get_json(f"{server.url}/metrics?format=json")["metrics"]
    assert {
        "cluster_workers",
        "cluster_worker_restarts_total",
    } == {name for name in snapshot if name.startswith("cluster_")}
    workers = snapshot["cluster_workers"]["samples"]
    if enabled:
        assert workers == [{"labels": {}, "value": 2.0}]
    else:
        assert all(not family["samples"] for family in snapshot.values())


@pytest.fixture
def cold_pair(corpus_root, tmp_path):
    """A single process and a two-worker cluster, each over its own
    copy of the corpus without derived state (cold against cold)."""
    from repro.cluster.server import ClusterServer

    roots = []
    for name in ("single", "cluster"):
        roots.append(tmp_path / name)
        shutil.copytree(
            corpus_root, roots[-1], ignore=shutil.ignore_patterns("index")
        )
    config = ReproConfig(backend="serial", log_format="off")
    with DiffServer(roots[0], config) as single, ClusterServer(
        roots[1], config, workers=2
    ) as cluster:
        yield single, cluster


def test_chunked_posts_answer_like_one_process(cold_pair):
    """A chunked body is decoded by the worker that accepts it, as by
    one process."""
    stream = encode_events(
        [
            RunOpen(
                session="chunked",
                spec_name="chunked",
                run_name="chunked1",
                mode="derive",
            ),
            ActivityEvent(session="chunked", seq=2, node="ex:a", label="a"),
            ActivityEvent(session="chunked", seq=3, node="ex:b", label="b"),
            EdgeEvent(session="chunked", seq=4, src="ex:a", dst="ex:b"),
            RunClose(session="chunked", seq=5),
        ]
    )
    requests = [
        ("/matrix", json.dumps({"spec": SPEC}).encode(), "application/json"),
        (
            "/query",
            json.dumps(
                {"spec": SPEC, "filter": QueryFilter().to_dict(), "limit": 3}
            ).encode(),
            "application/json",
        ),
        ("/stream/events", stream, "application/x-ndjson"),
    ]
    single, cluster = cold_pair
    for path, body, content_type in requests:
        request = chunked_post(path, body, content_type)
        expected = raw_exchange(single.url, request, timeout=30)
        answered = raw_exchange(cluster.url, request, timeout=30)
        assert expected[0] == 200, expected[2]
        assert answered[0] == 200, answered[2]
        assert answered[2] == expected[2], path


def test_untyped_run_upload_answers_like_one_process(cold_pair):
    """A body without ``Content-Type``: ``PUT /runs/{name}`` defaults
    to PROV-JSON in both servers."""
    single, cluster = cold_pair
    document = single.workspace.export_prov("r01", spec=SPEC).encode()
    request = (
        b"PUT /runs/untyped1 HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: " + str(len(document)).encode()
        + b"\r\nConnection: close\r\n\r\n" + document
    )
    expected = raw_exchange(single.url, request, timeout=30)
    answered = raw_exchange(cluster.url, request, timeout=30)
    assert expected[0] == 201, expected[2]
    assert (answered[0], answered[2]) == (expected[0], expected[2])
