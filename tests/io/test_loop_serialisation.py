"""Serialisation of runs with implicit loop edges and fork multi-edges."""

import pytest

from repro.core.api import edit_distance
from repro.io.xml_io import run_from_xml, run_to_xml
from repro.workflow.execution import ExecutionParams, execute_workflow


class TestLoopRuns:
    def test_back_edges_survive_xml(self, fig2_spec, fig2_r3):
        restored = run_from_xml(run_to_xml(fig2_r3), fig2_spec)
        back_edges = [
            (u, v)
            for u, v, _ in restored.graph.edges()
            if (
                restored.graph.label(u),
                restored.graph.label(v),
            )
            == ("6", "2")
        ]
        assert back_edges == [("6a", "2b")]
        assert restored.equivalent(fig2_r3)

    def test_distance_preserved_after_roundtrip(
        self, fig2_spec, fig2_r1, fig2_r3
    ):
        direct = edit_distance(fig2_r1, fig2_r3)
        r1 = run_from_xml(run_to_xml(fig2_r1), fig2_spec)
        r3 = run_from_xml(run_to_xml(fig2_r3), fig2_spec)
        assert edit_distance(r1, r3) == pytest.approx(direct)


class TestMultiEdgeRuns:
    def test_fork_multi_edges_survive(self, fig2_spec):
        # A run where a single-edge fork would produce parallel edges is
        # not possible on fig2 (branches have length 2); use a generated
        # deep-fork run instead.
        from repro.workflow.generators import fig17b_specification

        spec = fig17b_specification(3)
        params = ExecutionParams(
            prob_parallel=0.5, max_fork=4, prob_fork=1.0
        )
        run = execute_workflow(spec, params, seed=4)
        multi = [
            pair
            for pair, count in run.graph.edge_multiset().items()
            if count > 1
        ]
        restored = run_from_xml(run_to_xml(run), spec)
        assert restored.graph.edge_multiset() == run.graph.edge_multiset()
        assert restored.equivalent(run)

    def test_keys_disambiguate_in_xml(self):
        from repro.workflow.generators import random_specification
        from repro.workflow.generators import random_run_pair

        spec = random_specification(12, 0.2, seed=9)  # multi-edge heavy
        one, _ = random_run_pair(spec, seed=1)
        restored = run_from_xml(run_to_xml(one), spec)
        assert restored.graph.num_edges == one.graph.num_edges
        assert restored.equivalent(one)
