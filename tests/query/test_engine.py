"""The query engine: select vs scan, pruning, aggregations, workspace."""

import pytest

from repro.core.edit_script import PATH_DELETION, PATH_INSERTION
from repro.corpus.service import DiffService
from repro.costs.standard import CallableCost, LengthCost
from repro.errors import ReproError
from repro.query.aggregate import module_churn, op_kind_histogram
from repro.query.engine import QueryEngine
from repro.query.predicates import Q
from repro.workflow.execution import execute_workflow
from repro.workspace import Workspace


def doc_payload(doc):
    """A comparable projection of one ScriptDoc (full op detail)."""
    return (
        doc.run_a,
        doc.run_b,
        doc.distance,
        tuple(
            (op.kind, op.cost, op.length, op.source_label,
             op.sink_label, op.path_labels)
            for op in doc.operations
        ),
    )


class TestSelectEqualsScan:
    def test_unfiltered(self, engine):
        selected = [doc_payload(d) for d in engine.select("PA")]
        scanned = [doc_payload(d) for d in engine.scan("PA")]
        assert selected == scanned
        assert len(selected) == 10  # 5 runs -> 10 pairs

    def test_filtered(self, engine):
        predicate = Q.op_kind(PATH_DELETION) & Q.cost(min=2.0)
        selected = [
            doc_payload(d) for d in engine.select("PA", predicate)
        ]
        scanned = [doc_payload(d) for d in engine.scan("PA", predicate)]
        assert selected == scanned

    def test_run_subset(self, engine):
        runs = ["r01", "r03", "r05"]
        selected = [
            doc_payload(d) for d in engine.select("PA", runs=runs)
        ]
        scanned = [doc_payload(d) for d in engine.scan("PA", runs=runs)]
        assert selected == scanned
        assert {(d[0], d[1]) for d in selected} == {
            ("r01", "r03"), ("r01", "r05"), ("r03", "r05"),
        }

    def test_length_cost(self, engine):
        cost = LengthCost()
        selected = [
            doc_payload(d) for d in engine.select("PA", cost=cost)
        ]
        scanned = [doc_payload(d) for d in engine.scan("PA", cost=cost)]
        assert selected == scanned

    def test_uncacheable_cost_model(self, engine):
        cost = CallableCost(lambda l, a, b: 1.0, name="flat")
        predicate = Q.cost(min=1.0)
        selected = [
            doc_payload(d)
            for d in engine.select("PA", predicate, cost=cost)
        ]
        scanned = [
            doc_payload(d)
            for d in engine.scan("PA", predicate, cost=cost)
        ]
        assert selected == scanned
        # Nothing was persisted for the uncacheable model.
        assert len(engine.service.script_cache) == 0


class TestIncrementalityAndPruning:
    def test_first_query_computes_each_pair_once(
        self, engine, diff_counter
    ):
        list(engine.select("PA"))
        assert diff_counter["count"] == 10
        list(engine.select("PA", Q.cost(min=0.0)))
        assert diff_counter["count"] == 10  # warm: zero new diffs

    def test_build_front_loads_the_diffs(self, engine, diff_counter):
        assert engine.build("PA") == 10
        assert diff_counter["count"] == 10
        list(engine.select("PA"))
        assert diff_counter["count"] == 10

    def test_warm_restart_runs_zero_diffs(self, pa_store, diff_counter):
        QueryEngine(DiffService(pa_store)).build("PA")
        before = diff_counter["count"]
        reopened = QueryEngine(DiffService(pa_store))
        matches = list(reopened.select("PA", Q.cost(min=1.0)))
        assert diff_counter["count"] == before
        assert matches  # the corpus is not degenerate

    def test_pruning_skips_script_loads(self, pa_store):
        QueryEngine(DiffService(pa_store)).build("PA")
        service = DiffService(pa_store)
        engine = QueryEngine(service)
        # A label absent from every script: candidates prune to nothing,
        # so no script is ever read from the cache.
        assert list(engine.select("PA", Q.touches("no-such-module"))) == []
        stats = service.stats
        assert stats["script_memory_hits"] == 0
        assert stats["script_disk_hits"] == 0

    def test_add_run_extends_the_queryable_corpus(
        self, engine, pa_store, varied_params
    ):
        list(engine.select("PA"))
        spec = pa_store.load_specification("PA")
        newcomer = execute_workflow(
            spec, varied_params, seed=77, name="r99"
        )
        engine.service.add_run(newcomer)
        docs = list(engine.select("PA"))
        assert len(docs) == 15  # 6 runs -> 15 pairs
        assert {d.pair for d in docs} >= {
            ("r01", "r99"), ("r05", "r99"),
        }

    def test_duplicate_runs_rejected(self, engine):
        with pytest.raises(ReproError):
            list(engine.select("PA", runs=["r01", "r01"]))


class TestAggregations:
    def test_histogram_matches_manual_count(self, engine):
        docs = list(engine.select("PA"))
        manual = {}
        for doc in docs:
            for op in doc.operations:
                manual[op.kind] = manual.get(op.kind, 0) + 1
        assert engine.histogram("PA") == manual == op_kind_histogram(docs)

    def test_churn_ranks_by_total_cost(self, engine):
        ranking = engine.churn("PA")
        assert ranking
        costs = [entry.total_cost for entry in ranking]
        assert costs == sorted(costs, reverse=True)
        # Interior attribution only: terminals of every op are excluded
        # unless they appear as another op's interior.
        docs = list(engine.select("PA"))
        interiors = {
            label
            for doc in docs
            for op in doc.operations
            for label in op.interior_labels
        }
        assert {entry.label for entry in ranking} == interiors

    def test_churn_respects_predicate(self, engine):
        full = {e.label for e in engine.churn("PA")}
        filtered = module_churn(
            engine.select("PA", Q.op_kind(PATH_INSERTION))
        )
        assert {e.label for e in filtered} <= full | set()

    def test_divergence_report(self, engine):
        report = engine.divergence(
            "PA", ["r01", "r02"], ["r03", "r04", "r05"]
        )
        cross = engine.service.distances(
            "PA",
            [(a, b) for a in ["r01", "r02"] for b in ["r03", "r04", "r05"]],
        )
        assert report.mean_cross == pytest.approx(
            sum(cross.values()) / 6
        )
        expected = report.mean_cross - (
            report.mean_within_a + report.mean_within_b
        ) / 2
        assert report.divergence == pytest.approx(expected)
        assert report.summary_lines()
        assert report.churn  # cross scripts touch at least one module

    def test_divergence_validates_groups(self, engine):
        with pytest.raises(ReproError):
            engine.divergence("PA", [], ["r01"])
        with pytest.raises(ReproError):
            engine.divergence("PA", ["r01"], ["r01", "r02"])

    def test_single_run_groups_have_zero_within_mean(self, engine):
        report = engine.divergence("PA", ["r01"], ["r02"])
        assert report.mean_within_a == 0.0
        assert report.mean_within_b == 0.0
        assert report.mean_cross > 0.0


class TestWorkspaceEntryPoint:
    def test_workspace_query_matches_engine(self, pa_store):
        ws = Workspace(pa_store.root)
        predicate = Q.cost(min=1.0)
        docs = ws.query(predicate, spec="PA")
        assert docs == list(ws.engine.select("PA", predicate))
        assert all(doc.distance >= 1.0 for doc in docs)

    def test_workspace_engine_shares_the_service(self, pa_store):
        ws = Workspace(pa_store.root)
        assert ws.engine.service is ws.service
