"""Tests for the PDiffView diff view, driven through ``Workspace.view``."""

import pytest

import repro.pdiffview.session as session_module
from repro.pdiffview.session import DiffView
from repro.workflow.execution import ExecutionParams
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace


@pytest.fixture
def ws(tmp_path):
    ws = Workspace(tmp_path)
    ws.register(protein_annotation())
    return ws


VARIED = ExecutionParams(
    prob_parallel=0.6, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)


def view_of(ws, a, b, seeds, **kwargs):
    ws.generate_run(a, params=VARIED, seed=seeds[0])
    ws.generate_run(b, params=VARIED, seed=seeds[1])
    return ws.view(a, b, **kwargs)


class TestWorkspaceHelpers:
    def test_register_and_list(self, ws):
        assert ws.specifications() == ["PA"]

    def test_generate_and_list_runs(self, ws):
        ws.generate_run("monday", params=VARIED, seed=1)
        ws.generate_run("tuesday", params=VARIED, seed=2)
        assert ws.runs("PA") == ["monday", "tuesday"]

    def test_reload_from_store(self, ws, tmp_path):
        ws.generate_run("monday", params=VARIED, seed=1)
        fresh = Workspace(tmp_path)
        spec = fresh.specification("PA")
        assert spec.characteristics() == protein_annotation().characteristics()
        assert fresh.run("monday").num_edges >= 1

    def test_show_helpers(self, ws):
        ws.generate_run("r", params=VARIED, seed=3)
        assert "BlastSwP" in ws.show_specification()
        assert "nodes" in ws.show_run("r")


class TestOverview:
    def test_overview_and_panes(self, ws):
        view = view_of(ws, "a", "b", (4, 5))
        assert "delta(a, b)" in view.overview()
        assert "[a]" in view.panes()

    def test_compact_overview_renders(self, ws):
        view = view_of(ws, "a", "b", (4, 5))
        text = view.compact_overview()
        assert "delta(a, b)" in text
        # The compact form never has more lines than elementary ops + 1.
        assert len(text.splitlines()) <= len(view) + 1


class TestStepping:
    def test_forward_and_back(self, ws):
        view = view_of(ws, "a", "b", (6, 7))
        if len(view) == 0:
            pytest.skip("seeds produced equivalent runs")
        first = view.step_forward()
        assert first is not None
        assert view.position == 1
        again = view.step_back()
        assert view.position == 0
        assert again == first

    def test_snapshots(self, ws):
        view = view_of(ws, "a", "b", (6, 7), record_intermediates=True)
        initial = view.state_after_cursor()
        assert initial.num_edges >= 1
        if len(view):
            view.step_forward()
            after = view.state_after_cursor()
            assert after is not None

    def test_exhausted_cursor(self, ws):
        view = view_of(ws, "a", "same", (6, 6))
        assert len(view) == 0
        assert view.current() is None
        assert view.step_forward() is None
        assert view.step_back() is None


class TestDistanceMatrix:
    def test_matrix_pairs(self, ws):
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            ws.generate_run(name, params=VARIED, seed=seed)
        matrix = ws.matrix("PA")
        assert set(matrix) == {("a", "b"), ("a", "c"), ("b", "c")}
        for value in matrix.values():
            assert value >= 0.0

    def test_matrix_triangle_inequality(self, ws):
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            ws.generate_run(name, params=VARIED, seed=seed)
        matrix = ws.matrix("PA")
        ab, ac, bc = matrix[("a", "b")], matrix[("a", "c")], matrix[("b", "c")]
        assert ac <= ab + bc + 1e-9
        assert ab <= ac + bc + 1e-9


def test_session_module_defines_only_diffview(ws):
    """``Workspace.view`` is the one way to a view; the module holds
    no session facade beside it."""
    defined = {
        name
        for name, value in vars(session_module).items()
        if isinstance(value, type) and value.__module__ == session_module.__name__
    }
    assert defined == {"DiffView"}
    ws.generate_run("a", params=VARIED, seed=4)
    ws.generate_run("b", params=VARIED, seed=5)
    assert isinstance(ws.view("a", "b"), DiffView)
