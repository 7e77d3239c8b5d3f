"""Tier-1 smoke: a 40-run corpus end to end on the serial backend.

build -> ingest probe -> distance matrix -> indexed query, all through
the public harness entry points — the miniature of what
``benchmarks/bench_scale.py`` runs at 10³–10⁴.
"""

import json

import pytest

from repro import ReproConfig, Workspace
from repro.cli import main
from repro.scale.build import BuildPlan, CorpusBuilder
from repro.scale.drivers import DriverConfig, drive_workloads
from repro.scale.gate import evaluate_gate


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    workspace = Workspace(
        tmp_path_factory.mktemp("scale") / "store",
        ReproConfig(backend="serial"),
    )
    plan = BuildPlan(runs=40, matrix_runs=8, batch=16)
    build = CorpusBuilder(workspace, plan).build()
    report = drive_workloads(
        workspace, DriverConfig(probe_runs=6, query_repeats=3)
    )
    return workspace, build, report


class TestEndToEnd:
    def test_build_materialised_all_families(self, harness):
        _, build, _ = harness
        assert build.imported == 40 + 8
        assert set(build.families) == {
            "scale-adversarial",
            "scale-evolving",
            "scale-matrix",
            "scale-mixed",
            "scale-pipeline",
        }
        assert build.non_sp_documents == build.foreign_documents > 0

    def test_ingest_probe(self, harness):
        _, _, report = harness
        assert report["ingest"]["runs"] == 6
        assert report["ingest"]["runs_per_second"] > 0

    def test_matrix_cold_and_warm(self, harness):
        _, _, report = harness
        matrix = report["matrix"]
        assert matrix["runs"] == 8
        assert matrix["pairs"] == 8 * 7 // 2
        assert matrix["warm_seconds"] <= matrix["cold_seconds"]

    def test_query_latency_shape(self, harness):
        _, _, report = harness
        query = report["query"]
        assert query["p50_ms"] <= query["p95_ms"]
        assert set(query["shapes"]) == {"kind", "touch", "cost"}

    def test_stats_counters_present(self, harness):
        _, _, report = harness
        stats = report["stats"]
        assert stats["computed_pairs"] > 0
        assert stats["dp_skipped_by_bound"] >= 0

    def test_family_block(self, harness):
        workspace, build, report = harness
        family = report["family"]
        assert family["spec"] == "scale-pipeline"
        assert family["runs"] == build.families["scale-pipeline"]
        for key in (
            "warm_matrix_ms", "medoid_ms", "outliers_ms", "nearest_ms",
            "run_open_ms", "write_ms",
        ):
            assert family[key] >= 0
        assert family["run_open_ms"] <= family["write_ms"]
        assert 0 <= family["write_dps"] <= family["runs"]
        assert family["written"] in workspace.runs("scale-pipeline")

    def test_report_gates_cleanly_against_itself(self, harness):
        _, _, report = harness
        assert evaluate_gate(report, report) == []

    def test_driver_pass_is_repeatable(self, harness):
        """A second driver pass ingests *fresh* probe runs (epoch
        advance) and still completes on the same store."""
        workspace, _, first = harness
        second = drive_workloads(
            workspace, DriverConfig(probe_runs=6, query_repeats=2)
        )
        assert second["ingest"]["runs"] == 6
        assert (
            len(workspace.runs("scale-probe"))
            == first["ingest"]["runs"] + 6
        )
        # Each pass streams a fresh run into the family.
        assert second["family"]["written"] != first["family"]["written"]
        assert second["family"]["runs"] == first["family"]["runs"] + 1


class _QueryCounter:
    """A workspace proxy noting ``computed_scripts`` after each query."""

    def __init__(self, workspace):
        self._workspace = workspace
        self.scripts_after_query = []

    def __getattr__(self, name):
        return getattr(self._workspace, name)

    def query(self, *args, **kwargs):
        results = self._workspace.query(*args, **kwargs)
        self.scripts_after_query.append(
            self._workspace.stats["computed_scripts"]
        )
        return results


class TestQueryWarmUp:
    def test_timed_repeats_compute_no_scripts(self, tmp_path):
        """Each shape's first query may top up edit scripts; that pass
        is ``cold_ms``, and the timed repeats after it are warm."""
        workspace = Workspace(
            tmp_path / "store", ReproConfig(backend="serial")
        )
        CorpusBuilder(workspace, BuildPlan(runs=8, matrix_runs=6)).build()
        spy = _QueryCounter(workspace)
        repeats = 3
        report = drive_workloads(
            spy, DriverConfig(probe_runs=2, query_repeats=repeats)
        )
        counts = spy.scripts_after_query
        shapes = report["query"]["shapes"]
        # The first shape's warm-up is where the matrix pairs' scripts
        # get generated.
        assert counts[0] > 0
        for index, label in enumerate(shapes):
            block = counts[index * (repeats + 1):(index + 1) * (repeats + 1)]
            warm_up, timed = block[0], block[1:]
            assert timed == [warm_up] * repeats, label
            assert shapes[label]["cold_ms"] >= 0


class TestCli:
    def test_cli_build_then_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "scale",
                    "build",
                    str(store),
                    "--runs",
                    "12",
                    "--matrix-runs",
                    "4",
                    "--backend",
                    "serial",
                    "--json",
                ]
            )
            == 0
        )
        build = json.loads(capsys.readouterr().out)
        assert build["imported"] == 16

        assert (
            main(
                [
                    "scale",
                    "run",
                    str(store),
                    "--probe-runs",
                    "4",
                    "--query-repeats",
                    "2",
                    "--backend",
                    "serial",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["ingest"]["runs"] == 4
        assert report["matrix"]["pairs"] == 6
        assert report["query"]["p95_ms"] >= 0

    def test_cli_run_without_corpus_errors(self, tmp_path, capsys):
        store = tmp_path / "empty"
        store.mkdir()
        code = main(
            [
                "scale",
                "run",
                str(store),
                "--probe-runs",
                "2",
                "--backend",
                "serial",
            ]
        )
        assert code == 1
        assert "build the corpus first" in capsys.readouterr().err
