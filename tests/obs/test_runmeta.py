"""Operational run metadata: the run file's ``<meta>``, capture, and
query slicing."""

import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest

from repro import __version__
from repro.api_types import QueryFilter
from repro.config import ReproConfig
from repro.obs.logging import bound_request_id
from repro.obs.runmeta import RunMetadata, capture_run_metadata
from repro.workflow.execution import ExecutionParams
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

VARIED = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


@pytest.fixture
def ws(tmp_path) -> Workspace:
    workspace = Workspace(tmp_path, ReproConfig(backend="serial"))
    workspace.register(protein_annotation())
    for seed in range(1, 4):
        workspace.generate_run(
            f"r{seed:02d}", params=VARIED, seed=seed
        )
    return workspace


def _edit_meta(ws, run_name, edit):
    """Rewrite one run file after ``edit(root, meta element)``."""
    spec = ws.store.list_specifications()[0]
    path = ws.store.locate_run(spec, run_name)
    root = ET.fromstring(path.read_text(encoding="utf8"))
    edit(root, root.find("meta"))
    path.write_text(ET.tostring(root, encoding="unicode"), encoding="utf8")


def _write_meta(ws, run_name, **changes):
    """Rewrite one run's ``<meta>`` with modified metadata fields."""

    def replace(root, element):
        meta = RunMetadata.from_dict(json.loads(element.text))
        element.text = json.dumps(
            dataclasses.replace(meta, **changes).to_dict(),
            sort_keys=True,
        )

    _edit_meta(ws, run_name, replace)


def _drop_meta(ws, run_name):
    """Remove one run's ``<meta>`` element."""
    _edit_meta(ws, run_name, lambda root, element: root.remove(element))


class TestCapture:
    def test_capture_fills_every_field(self):
        meta = capture_run_metadata()
        assert meta.user
        assert meta.host
        assert meta.started <= meta.ended
        assert meta.tool_version == __version__
        assert meta.origin == "native"
        assert meta.request_id is None

    def test_capture_picks_up_bound_request_id(self):
        with bound_request_id("deadbeef00000000"):
            meta = capture_run_metadata(origin="prov-import")
        assert meta.request_id == "deadbeef00000000"
        assert meta.origin == "prov-import"

    def test_round_trip(self):
        meta = capture_run_metadata(origin="prov-import")
        assert RunMetadata.from_dict(meta.to_dict()) == meta

    def test_from_dict_rejects_malformed(self):
        assert RunMetadata.from_dict(None) is None
        assert RunMetadata.from_dict({"v": 99}) is None
        assert RunMetadata.from_dict({"v": 1, "user": "x"}) is None


class TestSidecars:
    def test_saved_runs_carry_metadata(self, ws):
        spec = ws.store.list_specifications()[0]
        meta = ws.store.run_metadata(spec, "r01")
        assert meta is not None
        assert meta.origin == "native"
        assert meta.tool_version == __version__

    def test_sidecars_never_pollute_run_listings(self, ws):
        spec = ws.store.list_specifications()[0]
        runs = ws.store.list_runs(spec)
        assert runs == ["r01", "r02", "r03"]
        assert not any("meta" in name for name in runs)

    def test_missing_meta_is_no_metadata(self, ws):
        spec = ws.store.list_specifications()[0]
        _drop_meta(ws, "r01")
        assert ws.store.run_metadata(spec, "r01") is None
        # The run itself is untouched.
        assert "r01" in ws.store.list_runs(spec)

    def test_corrupt_meta_is_no_metadata(self, ws):
        spec = ws.store.list_specifications()[0]

        def corrupt(root, element):
            element.text = "{not json"

        _edit_meta(ws, "r02", corrupt)
        assert ws.store.run_metadata(spec, "r02") is None


class TestQuerySlicing:
    def test_empty_clauses_change_nothing(self, ws):
        everything = ws.query(QueryFilter())
        assert len(everything) == 3  # C(3, 2) pairs

    def test_user_clause_requires_both_runs_to_match(self, ws):
        _write_meta(ws, "r01", user="alice")
        _write_meta(ws, "r02", user="alice")
        _write_meta(ws, "r03", user="bob")
        docs = ws.query(QueryFilter(users=("alice",)))
        assert len(docs) == 1
        assert {docs[0].run_a, docs[0].run_b} == {"r01", "r02"}

    def test_host_clause_is_or_ed_within(self, ws):
        _write_meta(ws, "r01", host="h1")
        _write_meta(ws, "r02", host="h2")
        _write_meta(ws, "r03", host="h3")
        docs = ws.query(QueryFilter(hosts=("h1", "h2")))
        assert len(docs) == 1

    def test_runs_without_metadata_never_match(self, ws):
        spec = ws.store.list_specifications()[0]
        _write_meta(ws, "r01", user="alice")
        _write_meta(ws, "r02", user="alice")
        _drop_meta(ws, "r02")
        assert ws.store.run_metadata(spec, "r02") is None
        docs = ws.query(QueryFilter(users=("alice",)))
        assert docs == []

    def test_query_page_applies_the_same_slice(self, ws):
        _write_meta(ws, "r01", user="alice")
        _write_meta(ws, "r02", user="alice")
        _write_meta(ws, "r03", user="bob")
        page = ws.query_page(QueryFilter(users=("alice",)))
        assert page.total_matches == 1
        assert (
            ws.query_page(QueryFilter(users=("nobody",))).total_matches
            == 0
        )

    def test_wire_round_trip_preserves_clauses(self):
        filter = QueryFilter(users=("alice",), hosts=("h1", "h2"))
        again = QueryFilter.from_dict(filter.to_dict())
        assert again.users == ("alice",)
        assert again.hosts == ("h1", "h2")
