"""Corpus builder: plans, resume, and the no-backdoor guarantee."""

import pytest

from repro import ReproConfig, Workspace
from repro.errors import ReproError
from repro.scale.build import (
    DEFAULT_WEIGHTS,
    BuildPlan,
    CorpusBuilder,
)

CONFIG = ReproConfig(backend="serial")


@pytest.fixture()
def workspace(tmp_path):
    return Workspace(tmp_path / "store", CONFIG)


class TestBuildPlan:
    def test_family_runs_apportion_exactly(self):
        plan = BuildPlan(runs=97)
        counts = plan.family_runs()
        assert sum(counts.values()) == 97
        assert set(counts) <= set(DEFAULT_WEIGHTS)

    def test_zero_weight_family_dropped(self):
        plan = BuildPlan(
            runs=10, weights={"pipeline": 1.0, "adversarial": 0.0}
        )
        assert set(plan.family_runs()) == {"pipeline"}

    def test_invalid_plans_rejected(self):
        with pytest.raises(ReproError):
            BuildPlan(runs=0)
        with pytest.raises(ReproError):
            BuildPlan(runs=5, weights={"nope": 1.0})
        with pytest.raises(ReproError):
            BuildPlan(runs=5, weights={"pipeline": 0.0})


class TestBuild:
    def test_build_and_resume(self, workspace):
        plan = BuildPlan(runs=16, matrix_runs=4, batch=8)
        first = CorpusBuilder(workspace, plan).build()
        assert first.imported == 16 + 4
        assert first.skipped == 0
        assert first.foreign_documents > 0
        assert first.non_sp_documents == first.foreign_documents

        # Second build over the same store: pure skip-scan.
        second = CorpusBuilder(workspace, plan).build()
        assert second.imported == 0
        assert second.skipped == first.imported

    def test_partial_resume_fills_gaps(self, workspace):
        small = BuildPlan(runs=8, matrix_runs=2)
        CorpusBuilder(workspace, small).build()
        grown = BuildPlan(runs=16, matrix_runs=2)
        report = CorpusBuilder(workspace, grown).build()
        assert report.skipped > 0
        assert report.imported > 0
        assert report.imported + report.skipped == 16 + 2

    def test_everything_enters_via_prov_import(self, workspace):
        """No backdoor: every stored run carries the import-path
        metadata (``origin == "prov-import"``)."""
        CorpusBuilder(
            workspace, BuildPlan(runs=10, matrix_runs=2)
        ).build()
        store = workspace.store
        checked = 0
        for spec_name in workspace.specifications():
            for run_name in store.list_runs(spec_name):
                metadata = store.run_metadata(spec_name, run_name)
                assert metadata is not None, (spec_name, run_name)
                assert metadata.origin == "prov-import"
                checked += 1
        assert checked == 12

    def test_report_dict_shape(self, workspace):
        report = CorpusBuilder(
            workspace, BuildPlan(runs=4, matrix_runs=0)
        ).build()
        payload = report.to_dict()
        for key in (
            "imported",
            "skipped",
            "runs_per_second",
            "families",
            "forced_serialization_ratio",
        ):
            assert key in payload
