"""Structured error envelopes: the 404/409/400 contract, end to end.

Server side: every :class:`ReproError` subclass leaves as a JSON
envelope with the documented status — never a 500 with a traceback.
Client side: the envelope re-raises as the matching exception class.
"""

import json

import pytest

from repro.api_types import ErrorEnvelope
from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.errors import (
    ConflictError,
    CostModelError,
    InterchangeError,
    NotFoundError,
    ReproError,
)
from repro.service.app import HttpRequest, WorkspaceApp
from repro.workspace import Workspace


@pytest.fixture(scope="module")
def app(corpus_root):
    return WorkspaceApp(
        Workspace(corpus_root, ReproConfig(backend="serial"))
    )


def request(app, method, path, query=None, body=b"", headers=None):
    return app.handle(
        HttpRequest(
            method=method,
            path=path,
            query=dict(query or {}),
            headers=dict(headers or {}),
            body=body,
        )
    )


def envelope_of(response):
    payload = response.json_payload()
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {
        "type", "message", "status", "request_id",
    }
    assert payload["error"]["status"] == response.status
    # Every server-minted envelope carries the correlation ID that the
    # response headers echo.
    assert (
        payload["error"]["request_id"]
        == response.headers["X-Request-Id"]
    )
    return payload["error"]


class TestServerEnvelopes:
    def test_unknown_run_is_404(self, app):
        response = request(app, "GET", "/diff/r01/ghost")
        assert response.status == 404
        error = envelope_of(response)
        assert error["type"] == "NotFoundError"
        assert "ghost" in error["message"]
        assert "Traceback" not in response.body.decode("utf8")

    def test_unknown_spec_is_404(self, app):
        for path, query in [
            ("/runs", {"spec": "ghost"}),
            ("/specs/ghost", {}),
            ("/runs/r01", {"spec": "ghost"}),
        ]:
            response = request(app, "GET", path, query=query)
            assert response.status == 404, path
            assert envelope_of(response)["type"] == "NotFoundError"

    def test_conflicting_spec_is_409(self, app):
        """Importing a same-name, different-content specification must
        conflict, not overwrite."""
        from repro.workflow.generators import random_prov_document

        document = json.dumps(random_prov_document(6, seed=3))
        first = request(
            app,
            "POST",
            "/prov/import",
            query={"name": "f1", "spec_name": "clash"},
            body=document.encode("utf8"),
        )
        assert first.status == 201
        other = json.dumps(random_prov_document(9, seed=4))
        second = request(
            app,
            "POST",
            "/prov/import",
            query={"name": "f2", "spec_name": "clash"},
            body=other.encode("utf8"),
        )
        assert second.status == 409
        assert envelope_of(second)["type"] == "ConflictError"

    def test_malformed_prov_is_400(self, app):
        response = request(
            app,
            "POST",
            "/prov/import",
            body=b"{definitely not json",
        )
        assert response.status == 400
        assert envelope_of(response)["type"] == "InterchangeError"

    def test_malformed_query_body_is_400(self, app):
        response = request(
            app, "POST", "/query", body=b"[not an object"
        )
        assert response.status == 400
        assert envelope_of(response)["type"] == "ReproError"

    def test_bad_cost_spec_is_400(self, app):
        response = request(
            app, "GET", "/diff/r01/r02", query={"cost": "quadratic"}
        )
        assert response.status == 400
        assert envelope_of(response)["type"] == "CostModelError"

    @pytest.mark.parametrize(
        "body",
        [
            {"spec": "PA", "limit": "abc"},
            {"spec": "PA", "limit": True},
            {"spec": "PA", "cursor": 123},
            {"spec": "PA", "runs": [1, 2]},
            {"spec": "PA", "runs": "r01"},
        ],
        ids=[
            "limit-str",
            "limit-bool",
            "cursor-int",
            "runs-ints",
            "runs-str",
        ],
    )
    def test_malformed_query_fields_are_400_not_500(self, app, body):
        response = request(
            app, "POST", "/query", body=json.dumps(body).encode("utf8")
        )
        assert response.status == 400
        assert envelope_of(response)["type"] == "ReproError"

    def test_malformed_matrix_runs_is_400(self, app):
        response = request(
            app,
            "POST",
            "/matrix",
            body=json.dumps({"spec": "PA", "runs": [1]}).encode(
                "utf8"
            ),
        )
        assert response.status == 400

    def test_list_shaped_cursor_is_400(self, app):
        """A cursor whose base64 decodes to non-object JSON must still
        be a clean 400 (regression: AttributeError → 500)."""
        import base64

        cursor = base64.urlsafe_b64encode(b"[1]").decode("ascii")
        response = request(
            app,
            "POST",
            "/query",
            body=json.dumps({"spec": "PA", "cursor": cursor}).encode(
                "utf8"
            ),
        )
        assert response.status == 400
        assert "cursor" in envelope_of(response)["message"]

    def test_bad_cursor_is_400(self, app):
        response = request(
            app,
            "POST",
            "/query",
            body=json.dumps(
                {"spec": "PA", "cursor": "%%garbage%%"}
            ).encode("utf8"),
        )
        assert response.status == 400
        assert "cursor" in envelope_of(response)["message"]


class TestClientMapping:
    def test_typed_errors_round_trip_the_wire(self, server_url):
        remote = RemoteWorkspace(server_url)
        with pytest.raises(NotFoundError):
            remote.diff("r01", "ghost", spec="PA")
        with pytest.raises(NotFoundError):
            remote.export_prov("ghost", spec="PA")
        with pytest.raises(CostModelError):
            remote.diff("r01", "r02", spec="PA", cost=_unserialisable())
        with pytest.raises(ReproError, match="cannot reach"):
            RemoteWorkspace("http://127.0.0.1:1", timeout=0.5).runs()

    @pytest.mark.parametrize(
        "url", ["localhost:8321", "ftp://h", "http://h:port", "http://[::1"]
    )
    def test_unusable_url_is_refused_up_front(self, url):
        with pytest.raises(ReproError, match="not an http"):
            RemoteWorkspace(url)

    def test_conflict_maps_to_conflict_error(self, server_url):
        from repro.workflow.generators import random_prov_document

        remote = RemoteWorkspace(server_url)
        remote.import_prov(
            random_prov_document(6, seed=7),
            name="c1",
            spec_name="remote-clash",
        )
        with pytest.raises(ConflictError):
            remote.import_prov(
                random_prov_document(9, seed=8),
                name="c2",
                spec_name="remote-clash",
            )


class TestEnvelopeType:
    def test_statuses_by_class(self):
        assert ErrorEnvelope.from_exception(
            NotFoundError("x")
        ).status == 404
        assert ErrorEnvelope.from_exception(
            ConflictError("x")
        ).status == 409
        assert ErrorEnvelope.from_exception(
            InterchangeError("x")
        ).status == 400
        assert ErrorEnvelope.from_exception(ReproError("x")).status == 400
        internal = ErrorEnvelope.from_exception(ValueError("secret"))
        assert internal.status == 500
        assert "secret" not in internal.message  # nothing leaks

    def test_to_exception_rebuilds_the_subclass(self):
        envelope = ErrorEnvelope.from_exception(NotFoundError("gone"))
        rebuilt = envelope.to_exception()
        assert isinstance(rebuilt, NotFoundError)
        assert str(rebuilt) == "gone"

    def test_unknown_type_degrades_to_base_error(self):
        envelope = ErrorEnvelope(
            type="SomeFutureError", message="m", status=400
        )
        assert type(envelope.to_exception()) is ReproError

    def test_non_envelope_payload_is_rejected(self):
        assert ErrorEnvelope.from_payload({"weird": 1}) is None
        assert ErrorEnvelope.from_payload("html") is None


def _unserialisable():
    """A cost model the wire grammar cannot express."""
    from repro.costs.standard import CallableCost

    return CallableCost(lambda length, a, b: float(length), "custom")
