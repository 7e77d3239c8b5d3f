"""What a :class:`RemoteWorkspace` keeps between calls: nothing stale.

The client holds no specification of its own: each
:meth:`~repro.client.RemoteWorkspace.specification` fetches the stored
XML and resolves it through the process's content-addressed registry,
so a client never generates a run against a specification another
client has since replaced.  And a zero count is answered before any
``/matrix`` fetch, so the server prices nothing for an empty answer.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from _fixture import VARIED

from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.corpus.fingerprint import spec_fingerprint
from repro.errors import NotFoundError
from repro.service.server import DiffServer
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.specification import WorkflowSpecification
from repro.workspace import Workspace

CONFIG = ReproConfig(backend="serial", log_format="off")


def _requests(url: str, route: str) -> float:
    """The server's ``server_requests_total`` samples for ``route``."""
    with urllib.request.urlopen(f"{url}/metrics?format=json") as reply:
        snapshot = json.loads(reply.read())
    family = snapshot["metrics"].get("server_requests_total")
    if family is None:
        return 0.0
    return sum(
        sample["value"]
        for sample in family["samples"]
        if sample["labels"].get("route") == route
    )


def test_a_stale_client_generates_against_the_stored_spec(tmp_path):
    """Client ``one`` generated a run, then client ``two`` re-registered
    PA.  ``one`` used to generate every later run against its memoised
    copy, and the server refused each upload (409) until ``one`` was
    rebuilt."""
    Workspace(tmp_path, CONFIG).register(protein_annotation())
    stripped = WorkflowSpecification(protein_annotation().graph, name="PA")
    with DiffServer(tmp_path, CONFIG) as server:
        one = RemoteWorkspace(server.url)
        two = RemoteWorkspace(server.url)
        one.generate_run("r1", params=VARIED, seed=1)
        two.register(stripped)
        run = one.generate_run("r2", params=VARIED, seed=2)
        assert spec_fingerprint(run.spec) == spec_fingerprint(stripped)
        assert one.runs(spec="PA") == ["r1", "r2"]
        one.close()
        two.close()


def test_zero_counts_price_nothing_on_the_server(tmp_path):
    """``nearest(k=0)`` and ``outliers(top=0)`` check their arguments
    and the run, then return ``[]`` without fetching ``/matrix`` (each
    used to make the server price every pair of a cold family)."""
    ws = Workspace(tmp_path, CONFIG)
    ws.register(protein_annotation())
    for seed in range(1, 7):
        ws.generate_run(f"r{seed}", params=VARIED, seed=seed)
    with DiffServer(tmp_path, CONFIG) as server:
        remote = RemoteWorkspace(server.url)
        assert remote.nearest("r1", k=0) == []
        assert remote.outliers(top=0) == []
        with pytest.raises(NotFoundError, match="no stored run"):
            remote.nearest("absent", k=0)
        assert _requests(server.url, "/matrix") == 0
        assert server.workspace.service.computed_pairs == 0
        remote.close()
