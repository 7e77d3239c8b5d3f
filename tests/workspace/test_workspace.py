"""The unified :class:`repro.Workspace` client API."""

import dataclasses
import warnings

import pytest

from repro.config import ReproConfig
from repro.core.api import diff_runs
from repro.costs.standard import LengthCost, PowerCost, UnitCost
from repro.errors import ReproError
from repro.io import registry
from repro.pdiffview.session import DiffView
from repro.query.predicates import Q
from repro.workflow.execution import execute_workflow
from repro.workflow.generators import random_prov_document
from repro.workflow.real_workflows import emboss, protein_annotation
from repro.workspace import DiffOutcome, Workspace


class TestConstruction:
    def test_default_config(self, tmp_path):
        ws = Workspace(tmp_path)
        assert ws.config.backend == "serial"
        assert ws.config.cost.name == "UnitCost"
        assert ws.config.persistent is True
        assert ws.backend.name == "serial"

    def test_config_backend_is_wired_through(self, tmp_path):
        ws = Workspace(tmp_path, ReproConfig(backend="thread", jobs=2))
        assert ws.backend.name == "thread"
        assert ws.backend.jobs == 2
        assert ws.service.backend is ws.backend

    def test_shares_an_existing_store(self, ws):
        other = Workspace(ws.store, ReproConfig(backend="serial"))
        assert other.store is ws.store
        assert other.runs() == ws.runs()

    def test_invalid_config_refused(self):
        with pytest.raises(ReproError):
            ReproConfig(backend="gpu")
        with pytest.raises(ReproError):
            ReproConfig(jobs=0)

    def test_instance_backend_with_jobs_refused_at_construction(self):
        from repro.backends.base import ThreadBackend

        shared = ThreadBackend(2)
        with pytest.raises(ReproError, match="carries its own width"):
            ReproConfig(backend=shared, jobs=2)
        ws_config = ReproConfig(backend=shared)  # jobs=None is the way
        assert ws_config.make_backend() is shared

    def test_config_is_frozen(self, tmp_path):
        ws = Workspace(tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ws.config.jobs = 7


class TestSpecResolution:
    def test_single_spec_is_the_default(self, ws):
        assert ws.runs() == ws.runs(spec="PA")

    def test_no_spec_is_refused(self, tmp_path):
        with pytest.raises(ReproError, match="no specifications"):
            Workspace(tmp_path).runs()

    def test_ambiguity_is_refused_with_choices(self, ws):
        ws.register(emboss())
        with pytest.raises(ReproError, match="EMBOSS.*PA|PA.*EMBOSS"):
            ws.runs()
        assert ws.runs(spec="PA")  # explicit spec still works


class TestDiff:
    def test_diff_by_name_matches_fresh_computation(self, ws):
        outcome = ws.diff("r01", "r02")
        fresh = diff_runs(
            ws.run("r01"), ws.run("r02"), cost=UnitCost()
        )
        assert isinstance(outcome, DiffOutcome)
        assert outcome.pair == ("r01", "r02")
        assert outcome.distance == fresh.distance
        assert outcome.op_count == len(fresh.script.operations)
        assert outcome.distance == pytest.approx(
            sum(op.cost for op in outcome.operations)
        )

    def test_diff_run_objects_without_store(self, ws, varied_params):
        spec = ws.specification("PA")
        a = execute_workflow(spec, varied_params, seed=91, name="x")
        b = execute_workflow(spec, varied_params, seed=92, name="y")
        outcome = ws.diff(a, b)
        assert outcome.distance == diff_runs(a, b).distance
        assert "x" not in ws.runs()  # nothing was persisted

    def test_mixed_arguments_refused(self, ws):
        with pytest.raises(ReproError, match="not a mix"):
            ws.diff("r01", ws.run("r02"))

    def test_cost_override_beats_config_default(self, tmp_path):
        ws = Workspace(
            tmp_path,
            ReproConfig(cost=LengthCost(), backend="serial"),
        )
        ws.register(protein_annotation())
        ws.generate_run("a", seed=1)
        ws.generate_run("b", seed=2)
        default = ws.diff("a", "b")
        assert default.cost_model == "LengthCost"
        overridden = ws.diff("a", "b", cost=PowerCost(0.5))
        assert overridden.cost_model == "PowerCost(ε=0.5)"

    def test_to_dict_is_json_shaped(self, ws):
        payload = ws.diff("r01", "r02").to_dict()
        assert payload["spec"] == "PA"
        assert payload["distance"] == pytest.approx(
            sum(op["cost"] for op in payload["operations"])
        )


class TestDiffMany:
    def test_streams_in_input_order(self, ws):
        pairs = [("r01", "r02"), ("r03", "r01"), ("r02", "r04")]
        outcomes = list(ws.diff_many(pairs))
        assert [o.pair for o in outcomes] == pairs
        for outcome in outcomes:
            assert outcome.distance == ws.diff(*outcome.pair).distance

    def test_is_lazy(self, ws):
        iterator = ws.diff_many([("r01", "r02")] * 3)
        assert next(iterator).pair == ("r01", "r02")

    def test_content_duplicate_pairs_do_not_alias(self, ws, varied_params):
        """≡-duplicate name pairs share one diff computation but never
        one mutable record."""
        spec = ws.specification("PA")
        for name in ("t1", "t2"):
            ws.import_run(
                execute_workflow(spec, varied_params, seed=500, name=name)
            )
        records = ws.service.edit_scripts(
            "PA", [("r01", "t1"), ("r01", "t2")]
        )
        one, two = records[("r01", "t1")], records[("r01", "t2")]
        assert one is not two
        assert [op.to_dict() for op in one.operations] == [
            op.to_dict() for op in two.operations
        ]
        before = len(two.operations)
        if before:
            one.operations[0].note = "mutated"
            assert two.operations[0].note != "mutated"  # deep-independent
        one.operations.clear()
        assert len(two.operations) == before  # untouched

    def test_abandoned_iterator_still_persists(self, ws):
        """Chunks compute with flush=False; the finally-flush persists
        computed work even when the consumer stops early."""
        pairs = [("r01", "r02"), ("r01", "r03"), ("r01", "r04")]
        iterator = ws.diff_many(pairs)
        next(iterator)
        iterator.close()  # abandon mid-sweep
        fresh = Workspace(ws.store, ReproConfig(backend="serial"))
        fresh.diff("r01", "r02")
        assert fresh.service.computed_scripts == 0  # answered from disk

    def test_chunks_larger_than_backend_width(self, tmp_path):
        ws = Workspace(
            tmp_path, ReproConfig(backend="serial", jobs=1)
        )
        ws.register(protein_annotation())
        names = []
        for seed in range(1, 5):
            names.append(f"s{seed}")
            ws.generate_run(f"s{seed}", seed=seed)
        pairs = [
            (a, b) for a in names for b in names if a != b
        ]  # 12 pairs > 4 * jobs
        outcomes = list(ws.diff_many(pairs))
        assert [o.pair for o in outcomes] == pairs


class TestMatrixAndAnalytics:
    def test_matrix_matches_legacy_service(self, ws):
        matrix = ws.matrix()
        assert matrix == ws.service.distance_matrix(
            "PA", cost=UnitCost()
        )
        names = ws.runs()
        assert len(matrix) == len(names) * (len(names) - 1) // 2

    def test_matrix_is_cached(self, ws):
        ws.matrix()
        computed = ws.service.computed_pairs
        ws.matrix()
        assert ws.service.computed_pairs == computed
        assert ws.stats["computed_pairs"] == computed

    def test_nearest_medoid_outliers(self, ws):
        nearest = ws.nearest("r01", k=2)
        assert len(nearest) == 2
        assert nearest[0][1] <= nearest[1][1]
        name, spread = ws.medoid()
        assert name in ws.runs()
        ranked = ws.outliers()
        assert ranked[0][1] >= ranked[-1][1]

    def test_add_run_prices_only_new_pairs(self, ws, varied_params):
        ws.matrix()
        before = ws.service.computed_pairs
        newcomer = execute_workflow(
            ws.specification("PA"), varied_params, seed=77, name="new"
        )
        distances = ws.add_run(newcomer)
        assert set(distances) == {
            (name, "new") for name in ws.runs() if name != "new"
        }
        assert ws.service.computed_pairs - before <= len(distances)


class TestQueryAndView:
    def test_query_matches_engine_select(self, ws):
        predicate = Q.op_kind("path-deletion")
        docs = ws.query(predicate)
        assert [d.pair for d in docs] == [
            d.pair
            for d in ws.engine.select("PA", predicate, cost=UnitCost())
        ]

    def test_view_steps_through_operations(self, ws):
        view = ws.view("r01", "r02")
        assert isinstance(view, DiffView)
        assert "delta(r01, r02)" in view.overview()
        if len(view):
            assert view.step_forward() is not None

    def test_view_honours_record_intermediates_config(self, tmp_path):
        ws = Workspace(
            tmp_path,
            ReproConfig(backend="serial", record_intermediates=False),
        )
        ws.register(protein_annotation())
        ws.generate_run("a", seed=1)
        ws.generate_run("b", seed=6)
        view = ws.view("a", "b")
        if len(view):
            view.step_forward()
            with pytest.raises(ReproError, match="snapshots"):
                view.state_after_cursor()


class TestInterchange:
    def test_import_prov_roundtrip(self, ws):
        text = ws.export_prov("r01")
        result = ws.import_prov(text, name="again")
        assert result.run.name == "again"
        assert "again" in ws.runs()
        clone = ws.run("again")
        assert clone.equivalent(ws.run("r01"))

    def test_import_prov_with_diff_prices_corpus(self, ws):
        document = random_prov_document(6, seed=5)
        existing = set(ws.runs())
        result, distances = ws.import_prov(
            document, name="foreign", spec_name="ext", diff=True
        )
        assert result.run.name == "foreign"
        assert distances == {}  # first run of a fresh spec: no pairs
        assert ws.runs(spec="ext") == ["foreign"]
        assert set(ws.runs(spec="PA")) == existing

    def test_foreign_imports_do_not_grow_the_spec_memo(self, ws):
        # Each foreign document derives its own one-off specification;
        # the workspace persists it, and the one name memo (the spec
        # registry's, process-wide) stays within its bound.
        files = registry.SPEC_REGISTRY._files
        names = []
        for index in range(registry.CAPACITY + 6):
            result = ws.import_prov(
                random_prov_document(5, seed=index),
                name=f"f{index}",
                spec_name=f"ext{index:02d}",
                diff=index % 10 == 0,
            )
            if index % 10 == 0:
                result, _ = result
            names.append(result.spec.name)
            assert len(files) <= registry.CAPACITY
        assert len(files) == registry.CAPACITY
        for index, name in enumerate(names):
            assert ws.specification(name).name == name
            assert ws.runs(spec=name) == [f"f{index}"]

    def test_export_script_document(self, ws):
        doc = ws.export_script("r01", "r02")
        outcome = ws.diff("r01", "r02")
        assert len(doc["activity"]) == outcome.op_count
        derivation = next(iter(doc["wasDerivedFrom"].values()))
        assert derivation["prov:usedEntity"] == "run:r01"
        assert derivation["prov:generatedEntity"] == "run:r02"


class TestBackendsThroughWorkspace:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_matrix_identical_across_backends(
        self, tmp_path, varied_params, backend
    ):
        ws = Workspace(
            tmp_path / backend,
            ReproConfig(backend=backend, jobs=2, persistent=False),
        )
        ws.register(protein_annotation())
        for seed in range(1, 4):
            ws.generate_run(f"r{seed}", params=varied_params, seed=seed)
        reference = Workspace(
            ws.store, ReproConfig(backend="serial", persistent=False)
        )
        assert ws.matrix() == reference.matrix()


class TestWarningFree:
    def test_end_to_end_emits_no_deprecation(self, tmp_path):
        """A full workspace round trip — register, generate, diff,
        matrix, query, view, export — runs with DeprecationWarning as
        an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ws = Workspace(tmp_path, ReproConfig(backend="serial"))
            ws.register(protein_annotation())
            ws.generate_run("a", seed=1)
            ws.generate_run("b", seed=2)
            ws.diff("a", "b")
            ws.matrix()
            ws.query()
            ws.view("a", "b").overview()
            ws.export_prov("a")
