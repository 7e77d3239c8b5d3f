"""DiffService: caching, parallelism, incremental updates, delegation."""

import pytest

from repro.backends import ThreadBackend
from repro.config import ReproConfig
from repro.core.api import diff_runs
from repro.corpus.service import DiffService
from repro.costs.standard import CallableCost, LengthCost, UnitCost
from repro.errors import NotFoundError, ReproError
from repro.graphs.flow_network import FlowNetwork
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.run import WorkflowRun
from repro.workspace import Workspace


@pytest.fixture
def service(pa_store) -> DiffService:
    return DiffService(pa_store)


class TestDistanceMatrix:
    def test_matches_fresh_diff_runs(self, service, pa_store):
        spec = pa_store.load_specification("PA")
        matrix = service.distance_matrix("PA")
        for (a, b), value in matrix.items():
            fresh = diff_runs(
                pa_store.load_run(spec, a),
                pa_store.load_run(spec, b),
                with_script=False,
            ).distance
            assert value == pytest.approx(fresh)

    def test_key_order_matches_seed_implementation(self, service):
        names = service.runs("PA")
        expected = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
        ]
        assert list(service.distance_matrix("PA")) == expected

    def test_warm_call_does_zero_dp_work(self, service, dp_counter):
        service.distance_matrix("PA")
        cold = dp_counter["count"]
        assert cold == 10  # C(5, 2) distinct pairs
        warm = service.distance_matrix("PA")
        assert dp_counter["count"] == cold
        assert warm == service.distance_matrix("PA")

    def test_twelve_run_corpus_warm_cache_is_dp_free(
        self, corpus_factory, dp_counter
    ):
        """The acceptance criterion: 12 runs, warm call, zero DPs."""
        store = corpus_factory(12)
        service = DiffService(store)
        cold = service.distance_matrix("PA")
        assert len(cold) == 66  # C(12, 2)
        computed = dp_counter["count"]
        warm = service.distance_matrix("PA")
        assert warm == cold
        assert dp_counter["count"] == computed  # zero new DP invocations
        # A fresh service over the same store stays warm via the disk tier.
        reopened = DiffService(store)
        assert reopened.distance_matrix("PA") == cold
        assert dp_counter["count"] == computed
        assert reopened.computed_pairs == 0

    def test_warm_across_service_instances(self, pa_store, dp_counter):
        first = DiffService(pa_store)
        matrix = first.distance_matrix("PA")
        cold = dp_counter["count"]
        second = DiffService(pa_store)  # fresh memory, disk tier warm
        assert second.distance_matrix("PA") == matrix
        assert dp_counter["count"] == cold
        assert second.computed_pairs == 0

    def test_parallel_matches_serial(self, pa_store):
        serial = DiffService(pa_store, persistent=False)
        parallel = DiffService(
            pa_store, persistent=False, backend=ThreadBackend(4)
        )
        assert serial.distance_matrix("PA") == parallel.distance_matrix(
            "PA"
        )

    def test_ephemeral_service_never_touches_disk(self, pa_store):
        service = DiffService(pa_store, persistent=False)
        service.distance_matrix("PA")
        service.nearest_runs("PA", "r01")
        assert not (pa_store.root / "index").exists()

    def test_distinct_cost_models_cached_separately(
        self, service, dp_counter
    ):
        service.distance_matrix("PA", cost=UnitCost())
        unit_only = dp_counter["count"]
        service.distance_matrix("PA", cost=LengthCost())
        assert dp_counter["count"] == 2 * unit_only
        service.distance_matrix("PA", cost=LengthCost())
        assert dp_counter["count"] == 2 * unit_only

    def test_uncacheable_cost_model_always_computes(
        self, service, dp_counter
    ):
        hops = CallableCost(lambda l, a, b: 1.0, name="hops")
        service.distance_matrix("PA", cost=hops)
        first = dp_counter["count"]
        assert first == 10
        service.distance_matrix("PA", cost=hops)
        assert dp_counter["count"] == 2 * first


class TestSinglePairQueries:
    def test_distance_roundtrip(self, service, pa_store):
        spec = pa_store.load_specification("PA")
        fresh = diff_runs(
            pa_store.load_run(spec, "r01"),
            pa_store.load_run(spec, "r02"),
            with_script=False,
        ).distance
        assert service.distance("PA", "r01", "r02") == pytest.approx(fresh)
        assert service.distance("PA", "r02", "r01") == pytest.approx(fresh)

    def test_self_distance_is_zero_without_dp(self, service, dp_counter):
        assert service.distance("PA", "r01", "r01") == 0.0
        assert dp_counter["count"] == 0

    def test_equivalent_runs_short_circuit(
        self, tmp_path, fig2_spec, fig2_r1, dp_counter
    ):
        service = DiffService(tmp_path / "store")
        service.store.save_specification(fig2_spec)
        # An instance-renamed copy of R1: equivalent, so distance 0
        # straight from the fingerprints — no DP at all.
        graph = FlowNetwork(name="twin")
        for node in fig2_r1.graph.nodes():
            graph.add_node(f"x{node}", fig2_r1.graph.label(node))
        for u, v, _ in fig2_r1.graph.edges():
            graph.add_edge(f"x{u}", f"x{v}")
        twin = WorkflowRun(fig2_spec, graph, name="twin")
        service.store.save_run(fig2_r1)
        service.store.save_run(twin)
        assert service.distance("fig2", "R1", "twin") == 0.0
        assert dp_counter["count"] == 0


class TestNearestRuns:
    def test_orders_by_ascending_distance(self, service):
        neighbours = service.nearest_runs("PA", "r01")
        assert len(neighbours) == 4
        distances = [d for _, d in neighbours]
        assert distances == sorted(distances)
        top2 = service.nearest_runs("PA", "r01", k=2)
        assert top2 == neighbours[:2]

    def test_computes_only_one_row(self, service, dp_counter):
        service.nearest_runs("PA", "r01")
        assert dp_counter["count"] <= 4  # never the full 10-pair matrix

    def test_unknown_run_rejected(self, service):
        with pytest.raises(ReproError, match="no stored run"):
            service.nearest_runs("PA", "ghost")


class TestAddRun:
    def test_add_computes_exactly_n_new_pairs(
        self, service, pa_store, dp_counter, varied_params
    ):
        service.distance_matrix("PA")
        cold = dp_counter["count"]
        spec = pa_store.load_specification("PA")
        new = execute_workflow(spec, varied_params, seed=99, name="r99")
        pairs = service.add_run(new)
        assert set(pairs) == {(f"r{i:02d}", "r99") for i in range(1, 6)}
        assert dp_counter["count"] == cold + 5  # exactly N new pairs
        # The grown matrix is fully warm: no further DP work.
        grown = service.distance_matrix("PA")
        assert len(grown) == 15
        assert dp_counter["count"] == cold + 5

    def test_add_persists_the_run(self, service, pa_store, varied_params):
        spec = pa_store.load_specification("PA")
        new = execute_workflow(spec, varied_params, seed=42, name="extra")
        service.add_run(new)
        assert "extra" in pa_store.list_runs("PA")
        restored = pa_store.load_run(spec, "extra")
        assert restored.equivalent(new)

    def test_add_rejects_conflicting_spec_with_same_name(
        self, service, varied_params
    ):
        from repro.workflow.specification import WorkflowSpecification

        stripped = WorkflowSpecification(
            protein_annotation().graph, forks=(), loops=(), name="PA"
        )
        run = execute_workflow(stripped, varied_params, seed=1, name="x")
        with pytest.raises(ReproError, match="different specification"):
            service.add_run(run)
        assert "x" not in service.runs("PA")

    def test_add_into_empty_store_persists_the_spec(
        self, tmp_path, varied_params
    ):
        # Incrementally built corpora must be readable by other
        # processes: the first add_run stores the specification too.
        service = DiffService(tmp_path / "store")
        spec = protein_annotation()
        for seed in (1, 2):
            run = execute_workflow(
                spec, varied_params, seed=seed, name=f"r{seed}"
            )
            service.add_run(run)
        reopened = DiffService(tmp_path / "store")
        assert len(reopened.distance_matrix("PA")) == 1
        assert reopened.computed_pairs == 0  # cache carried over too


class TestAnalyticsQueries:
    def test_medoid_minimises_mean_distance(self, service):
        from repro.corpus.analytics import mean_distances

        name, mean = service.medoid("PA")
        matrix = service.distance_matrix("PA")
        means = mean_distances(matrix, names=service.runs("PA"))
        assert mean == pytest.approx(min(means.values()))
        assert means[name] == pytest.approx(mean)

    def test_outliers_rank_descending(self, service):
        ranked = service.outliers("PA")
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)
        assert service.outliers("PA", top=2) == ranked[:2]

    def test_zero_counts_keep_nothing(self, service):
        assert service.outliers("PA", top=0) == []
        assert service.nearest_runs("PA", "r01", k=0) == []

    def test_zero_counts_price_nothing(self, corpus_factory):
        """On a cold family of 6 runs ``outliers(top=0)`` used to price
        all 15 pairs and ``nearest(k=0)`` 5, each to return ``[]``; the
        run's existence is still checked."""
        ws = Workspace(corpus_factory(6).root, ReproConfig(backend="serial"))
        assert ws.outliers(top=0) == []
        assert ws.nearest("r01", k=0) == []
        with pytest.raises(NotFoundError, match="no stored run"):
            ws.nearest("absent", k=0)
        assert ws.service.computed_pairs == 0

    @pytest.mark.parametrize("argument", ["k", "top"])
    def test_negative_counts_refused(self, tmp_path, pa_store, argument):
        """A negative count used to slice runs off the ranking's tail
        (``top=-1`` on this 5-run store returned four runs)."""
        ws = Workspace(tmp_path)
        with pytest.raises(
            ReproError, match=f"^{argument} must be >= 0, got -1$"
        ):
            if argument == "k":
                ws.nearest("r01", k=-1)
            else:
                ws.outliers(top=-1)

    def test_stats_expose_counters(self, service):
        service.distance_matrix("PA")
        assert service.stats["computed_pairs"] == 10
        service.distance_matrix("PA")
        assert service.stats["memory_hits"] >= 10


class TestWorkspaceDelegation:
    def test_workspace_matrix_identical_to_seed_algorithm(
        self, tmp_path, varied_params
    ):
        ws = Workspace(tmp_path)
        ws.register(protein_annotation())
        for name, seed in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
            ws.generate_run(name, "PA", varied_params, seed=seed)
        matrix = ws.matrix("PA")

        # The seed implementation, verbatim: a sequential nested loop of
        # fresh diff_runs calls over the stored runs.
        names = ws.runs("PA")
        runs = {name: ws.run(name, "PA") for name in names}
        expected = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                expected[(a, b)] = diff_runs(
                    runs[a], runs[b], cost=UnitCost(), with_script=False
                ).distance
        assert dict(matrix) == expected

    def test_reregistered_spec_invalidates_fingerprints(
        self, tmp_path, varied_params
    ):
        # Re-registering a structurally different spec under the same
        # name must not serve runs or fingerprints minted under the
        # old content.
        from repro.workflow.specification import WorkflowSpecification

        ws = Workspace(tmp_path)
        base = protein_annotation()
        ws.register(base)
        ws.generate_run("a", "PA", varied_params, seed=1)
        ws.generate_run("b", "PA", varied_params, seed=2)
        old_matrix = ws.matrix("PA")
        assert len(old_matrix) == 1

        # Same name, different annotation families (no forks/loops).
        stripped = WorkflowSpecification(
            base.graph, forks=(), loops=(), name="PA"
        )
        ws.register(stripped)
        ws.generate_run("a", "PA", seed=3)
        ws.generate_run("b", "PA", seed=4)
        matrix = ws.matrix("PA")
        fresh = diff_runs(
            ws.run("a", "PA"),
            ws.run("b", "PA"),
            with_script=False,
        ).distance
        assert matrix[("a", "b")] == pytest.approx(fresh)

    def test_workspace_sees_runs_saved_after_first_query(
        self, tmp_path, varied_params
    ):
        ws = Workspace(tmp_path)
        ws.register(protein_annotation())
        ws.generate_run("a", "PA", varied_params, seed=1)
        ws.generate_run("b", "PA", varied_params, seed=2)
        assert len(ws.matrix("PA")) == 1
        ws.generate_run("c", "PA", varied_params, seed=3)
        assert len(ws.matrix("PA")) == 3

    def test_workspace_nearest_agrees_with_matrix(
        self, tmp_path, varied_params
    ):
        ws = Workspace(tmp_path)
        ws.register(protein_annotation())
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            ws.generate_run(name, "PA", varied_params, seed=seed)
        neighbours = ws.nearest("a", spec="PA")
        assert len(neighbours) == 2
        matrix = ws.matrix("PA")
        for other, distance in neighbours:
            key = ("a", other) if ("a", other) in matrix else (other, "a")
            assert matrix[key] == pytest.approx(distance)
