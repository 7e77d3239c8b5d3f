"""A warm ``GET /diff`` resolves its specification once.

The route checks the ``spec`` parameter, computes the revalidation tag
from the runs' fingerprints and answers the script: all three read the
specification, and each read is a ``stat`` of its file.  The request
resolves it once and the other two reuse that object.
"""

from __future__ import annotations

import pytest

from _fixture import SPEC_NAME, build_corpus

from repro.io.store import WorkflowStore
from repro.service.app import HttpRequest, WorkspaceApp


@pytest.fixture
def resolutions(monkeypatch):
    """Count every specification lookup the store answers."""
    calls = []
    for name in ("load_specification", "has_specification"):
        original = getattr(WorkflowStore, name)

        def counting(self, *args, _original=original, **kwargs):
            calls.append(args)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(WorkflowStore, name, counting)
    return calls


@pytest.mark.parametrize("revalidate", [False, True])
def test_a_warm_diff_resolves_its_specification_once(
    tmp_path, resolutions, revalidate
):
    app = WorkspaceApp(build_corpus(tmp_path))
    request = HttpRequest(
        method="GET", path="/diff/r01/r02", query={"spec": SPEC_NAME}
    )
    warm = app.handle(request)
    assert warm.status == 200
    if revalidate:
        request.headers["if-none-match"] = warm.headers["ETag"]
    resolutions.clear()
    answer = app.handle(request)
    assert answer.status == (304 if revalidate else 200)
    assert resolutions == [(SPEC_NAME,)]


def test_an_unknown_specification_is_still_a_404(tmp_path):
    app = WorkspaceApp(build_corpus(tmp_path))
    answer = app.handle(
        HttpRequest(
            method="GET", path="/diff/r01/r02",
            query={"spec": "nope", "cost": "bogus"},
        )
    )
    assert answer.status == 404
    assert "no stored specification named 'nope'" in (
        answer.json_payload()["error"]["message"]
    )
