"""Fixtures for the diff-service suite: corpus, live server, both APIs.

The ``api`` fixture is the heart of the protocol-conformance story: it
is parametrized over the local :class:`Workspace`, the
:class:`RemoteWorkspace` (talking to a live in-thread server over the
same store), and a :class:`RemoteWorkspace` over a two-worker
:class:`~repro.cluster.server.ClusterServer` — so every test written
against it proves all three implementations agree, byte for byte.

Setting ``REPRO_REMOTE_URL`` redirects the remote half at an external
``repro serve`` process instead (the CI job boots one over the corpus
that ``_fixture.py`` builds); ``REPRO_CLUSTER_URL`` does the same for
the cluster half.  Everything in ``_fixture.py`` is
seed-deterministic, so cross-process comparisons remain bit-exact.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _fixture import SPEC_NAME, VARIED, build_corpus  # noqa: E402

from repro.client import RemoteWorkspace  # noqa: E402
from repro.config import ReproConfig  # noqa: E402
from repro.service.server import DiffServer  # noqa: E402
from repro.workspace import Workspace  # noqa: E402


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    """A freshly built fixture corpus (one per test module)."""
    root = tmp_path_factory.mktemp("service-corpus")
    build_corpus(root)
    return root


@pytest.fixture(scope="module")
def local_ws(corpus_root) -> Workspace:
    """The local workspace over the fixture corpus."""
    return Workspace(corpus_root, ReproConfig(backend="serial"))


@pytest.fixture(scope="module")
def server(corpus_root):
    """A live diff server over the fixture corpus (in-thread)."""
    with DiffServer(
        corpus_root, ReproConfig(backend="serial", log_format="off")
    ) as live:
        yield live


@pytest.fixture(scope="module")
def server_url(server) -> str:
    """Base URL of the server the remote half talks to.

    ``REPRO_REMOTE_URL`` overrides with an external ``repro serve``
    process (expected to host the ``_fixture.py`` corpus).
    """
    external = os.environ.get("REPRO_REMOTE_URL")
    if external:
        return external.rstrip("/")
    return server.url


@pytest.fixture(scope="module")
def remote_ws(server_url) -> RemoteWorkspace:
    """The remote workspace client over the live server."""
    return RemoteWorkspace(server_url)


@pytest.fixture(scope="module")
def cluster_server(corpus_root):
    """A live two-worker cluster over the fixture corpus.

    Yields ``None`` when ``REPRO_CLUSTER_URL`` points at an external
    cluster (the CI job's ``repro serve --workers 2``).
    """
    if os.environ.get("REPRO_CLUSTER_URL"):
        yield None
        return
    from repro.cluster.server import ClusterServer

    with ClusterServer(
        corpus_root,
        ReproConfig(backend="serial", log_format="off"),
        workers=2,
    ) as live:
        yield live


@pytest.fixture(scope="module")
def cluster_url(cluster_server) -> str:
    """Base URL of the cluster the third conformance half talks to."""
    external = os.environ.get("REPRO_CLUSTER_URL")
    if external:
        return external.rstrip("/")
    return cluster_server.url


@pytest.fixture(scope="module")
def cluster_ws(cluster_url) -> RemoteWorkspace:
    """A remote workspace client over the two-worker cluster."""
    return RemoteWorkspace(cluster_url)


@pytest.fixture(params=["local", "remote", "cluster"])
def api(request, local_ws, remote_ws, cluster_ws):
    """Any workspace implementation — the conformance pivot."""
    return {
        "local": local_ws,
        "remote": remote_ws,
        "cluster": cluster_ws,
    }[request.param]


@pytest.fixture(params=["remote", "cluster"])
def served_ws(request, remote_ws, cluster_ws):
    """A served workspace: one server process, or the two-worker
    cluster, whose workers each answer a request in full."""
    return {"remote": remote_ws, "cluster": cluster_ws}[request.param]


@pytest.fixture
def spec_name() -> str:
    """The fixture specification's name."""
    return SPEC_NAME


@pytest.fixture
def varied_params():
    """The execution variability the fixture runs were generated with."""
    return VARIED
