"""The DiffService fast paths: seeding, dedup, one analytics batch.

Regression coverage for the hot-path fixes and the analytics' one path:

* ≡-equivalent pairs (equal fingerprints) seed the distance cache
  under the canonical pair key — historically the short-circuit
  bypassed the cache, so the zero never persisted;
* uncacheable cost models dedupe a batch by the *unordered* name pair
  — ``(a, b)`` and ``(b, a)`` cost one DP, not two;
* ``nearest_runs``/``medoid``/``outliers`` on a cold or partly warm
  family return answers bit-identical to the full evaluation while
  pricing every unknown pair they need in one backend batch;
* ``dp_skipped_by_bound`` counts the query engine's bound-gated DPs,
  and no other skip counter exists.
"""

import pytest

from repro.backends import make_backend
from repro.corpus.analytics import k_nearest
from repro.corpus.fingerprint import cost_model_key, pair_key
from repro.corpus.service import DiffService
from repro.corpus.analytics import medoid as medoid_of
from repro.corpus.analytics import outliers as outliers_of
from repro.costs.standard import (
    CallableCost,
    LengthCost,
    UnitCost,
)
from repro.io.store import WorkflowStore
from repro.query.engine import QueryEngine
from repro.query.predicates import Q
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import protein_annotation

from tests.corpus.conftest import VARIED, populate_store


def _with_duplicate(root, n_runs):
    """A PA corpus plus ``r01dup`` — byte-for-byte the same run as r01."""
    store = populate_store(root, n_runs)
    spec = protein_annotation()
    dup = execute_workflow(spec, VARIED, seed=1, name="r01dup")
    store.save_run(dup)
    return store


class TestEquivalentPairSeeding:
    def test_zero_persists_under_the_canonical_key(self, tmp_path):
        store = _with_duplicate(tmp_path, 2)
        service = DiffService(store)
        cost = UnitCost()
        assert service.distance("PA", "r01", "r01dup", cost) == 0.0
        fingerprints = service.fingerprints(
            "PA", ["r01", "r01dup"]
        )
        assert fingerprints["r01"] == fingerprints["r01dup"]
        key = pair_key(
            fingerprints["r01"],
            fingerprints["r01dup"],
            cost_model_key(cost),
        )
        # The short-circuit now seeds the cache: a direct key probe
        # (another process, warm analytics) finds the zero.
        assert service.cache.peek(key) == 0.0
        # And the seed survived the flush — a brand-new service over
        # the same store sees it without recomputing anything.
        reopened = DiffService(store)
        assert reopened.cache.get(key) == 0.0

    def test_seeding_counts_a_lookup(self, tmp_path):
        store = _with_duplicate(tmp_path, 2)
        service = DiffService(store, persistent=False)
        before = service.cache.stats.lookups
        service.distance("PA", "r01", "r01dup")
        assert service.cache.stats.lookups > before

    def test_no_dp_runs_for_equivalent_pairs(self, tmp_path, dp_counter):
        store = _with_duplicate(tmp_path, 2)
        service = DiffService(store, persistent=False)
        assert service.distance("PA", "r01", "r01dup") == 0.0
        assert dp_counter["count"] == 0


class TestUncacheableDedup:
    def test_symmetric_orderings_cost_one_dp(self, tmp_path, dp_counter):
        store = populate_store(tmp_path, 2)
        service = DiffService(store, persistent=False)
        cost = CallableCost(lambda l, a, b: float(l), name="custom")
        assert cost_model_key(cost) is None
        values = service.distances(
            "PA",
            [("r01", "r02"), ("r02", "r01")],
            cost,
        )
        assert dp_counter["count"] == 1
        assert values[("r01", "r02")] == values[("r02", "r01")]


class TestPrunedNearestRuns:
    def test_pruned_ranking_matches_oracle(self, tmp_path):
        store = _with_duplicate(tmp_path, 5)
        cost = LengthCost()
        # Oracle: unpruned (k=None prices every candidate).
        oracle_service = DiffService(store, persistent=False)
        oracle = oracle_service.nearest_runs(
            "PA", "r02", cost=cost
        )
        for k in (1, 2, 4):
            pruned_service = DiffService(store, persistent=False)
            # Warm a couple of pairs so the prune has a threshold.
            pruned_service.distances(
                "PA",
                [("r02", "r01"), ("r02", "r03")],
                cost,
            )
            pruned = pruned_service.nearest_runs(
                "PA", "r02", k=k, cost=cost
            )
            assert pruned == oracle[:k]  # bit-identical head

    def test_k_wider_than_corpus_is_unpruned(self, tmp_path):
        store = populate_store(tmp_path, 3)
        service = DiffService(store, persistent=False)
        full = service.nearest_runs("PA", "r01")
        wide = service.nearest_runs(
            "PA", "r01", k=10
        )
        assert wide == full
        assert service.dp_skipped_by_bound == 0


class TestPrunedAnalytics:
    def test_medoid_matches_full_matrix(self, tmp_path):
        store = _with_duplicate(tmp_path, 5)
        cost = UnitCost()
        oracle_service = DiffService(store, persistent=False)
        names = oracle_service.runs("PA")
        matrix = oracle_service.distance_matrix(
            "PA", cost=cost
        )
        expected = medoid_of(matrix, names=names)

        pruned_service = DiffService(store, persistent=False)
        # Warm one row so triangle pivots exist.
        pruned_service.nearest_runs(
            "PA", "r01", cost=cost
        )
        assert (
            pruned_service.medoid("PA", cost=cost)
            == expected
        )

    def test_outliers_match_full_matrix(self, tmp_path):
        store = _with_duplicate(tmp_path, 5)
        cost = UnitCost()
        oracle_service = DiffService(store, persistent=False)
        names = oracle_service.runs("PA")
        matrix = oracle_service.distance_matrix(
            "PA", cost=cost
        )
        for top in (1, 2, 3):
            expected = outliers_of(matrix, names=names, top=top)
            pruned_service = DiffService(store, persistent=False)
            pruned_service.nearest_runs(
                "PA", "r01", cost=cost
            )
            assert (
                pruned_service.outliers(
                    "PA", cost=cost, top=top
                )
                == expected
            )

    def test_unsupported_cost_falls_back(self, tmp_path):
        store = populate_store(tmp_path, 3)
        service = DiffService(store, persistent=False)
        cost = CallableCost(lambda l, a, b: float(l), name="custom")
        name, mean = service.medoid("PA", cost=cost)
        matrix = service.distances(
            "PA",
            [("r01", "r02"), ("r01", "r03"), ("r02", "r03")],
            cost,
        )
        assert (name, mean) == medoid_of(
            matrix, names=["r01", "r02", "r03"]
        )


class TestCounters:
    def test_counters_surface_in_stats(self, tmp_path):
        store = _with_duplicate(tmp_path, 4)
        service = DiffService(store, persistent=False)
        counters = service.stats_counters
        assert counters["dp_skipped_by_bound"] == 0
        # A cost ceiling of 0.0 gates every cold pair of distinct runs
        # on its packing bound (LengthCost bounds are the leaf-profile
        # delta, positive for any two distinct varied runs).
        list(QueryEngine(service).select(
            "PA", Q.cost(max=0.0), cost=LengthCost()
        ))
        counters = service.stats_counters
        assert counters["dp_skipped_by_bound"] > 0
        assert counters["computed_pairs"] == 0

    def test_no_triangle_counter_in_process(self, tmp_path):
        store = populate_store(tmp_path, 4)
        service = DiffService(store, persistent=False)
        service.nearest_runs("PA", "r01", k=1)
        service.medoid("PA")
        assert "dp_skipped_by_bound" in service.stats
        assert [key for key in service.stats if "triangle" in key] == []
        families = service.metrics.snapshot()
        assert "dp_skipped_by_bound_total" in families
        assert [name for name in families if "triangle" in name] == []
        assert "triangle" not in service.metrics.render_prometheus()

    def test_lower_bounds_api_is_sound(self, tmp_path):
        store = populate_store(tmp_path, 3)
        service = DiffService(store, persistent=False)
        pairs = [("r01", "r02"), ("r01", "r03"), ("r02", "r03")]
        cost = LengthCost()
        bounds = service.lower_bounds(
            "PA", pairs, cost
        )
        exact = service.distances("PA", pairs, cost)
        for pair in pairs:
            assert bounds[pair] <= exact[pair]


def _count_batches(service, monkeypatch):
    """Record the size of every batch the service's backend runs."""
    sizes = []
    real_map = service.backend.map

    def counting_map(func, tasks):
        sizes.append(len(tasks))
        return real_map(func, tasks)

    monkeypatch.setattr(service.backend, "map", counting_map)
    return sizes


class TestOneBatch:
    """A cold or partly warm family prices what an analytic needs in
    one backend batch, with answers equal to the full evaluation."""

    def test_nearest_identical_across_backends(self, tmp_path):
        store = populate_store(tmp_path, 8)
        cost = LengthCost()
        oracle = DiffService(store, persistent=False).nearest_runs(
            "PA", "r01", cost=cost
        )
        outcomes = {}
        for backend in ("serial", "thread"):
            service = DiffService(
                store, persistent=False, backend=make_backend(backend, 2)
            )
            # Warm one full row and two of the anchor's pairs.
            service.nearest_runs("PA", "r08", cost=cost)
            service.distances(
                "PA", [("r01", "r02"), ("r01", "r03")], cost
            )
            outcomes[backend] = service.nearest_runs(
                "PA", "r01", k=2, cost=cost
            )
        assert outcomes["serial"] == outcomes["thread"] == oracle[:2]

    @pytest.mark.parametrize("analytic", ["medoid", "outliers"])
    def test_cold_family_prices_in_one_batch(
        self, tmp_path, monkeypatch, analytic
    ):
        store = populate_store(tmp_path, 8)
        oracle = DiffService(store, persistent=False)
        names = oracle.runs("PA")
        matrix = oracle.distance_matrix("PA")
        service = DiffService(store, persistent=False)
        sizes = _count_batches(service, monkeypatch)
        if analytic == "medoid":
            answer = service.medoid("PA")
            expected = medoid_of(matrix, names=names)
        else:
            answer = service.outliers("PA", top=2)
            expected = outliers_of(matrix, names=names, top=2)
        assert answer == expected
        assert sizes == [len(matrix)]
        assert service.computed_pairs == len(matrix)

    def test_partly_warm_medoid_prices_the_unknown_pairs_once(
        self, tmp_path, monkeypatch
    ):
        # r01dup is ≡ r01: a pair with either one shares its content
        # key with the same pair of the other, and is priced once.
        store = _with_duplicate(tmp_path, 8)
        service = DiffService(store, persistent=False)
        service.nearest_runs("PA", "r02")
        service.nearest_runs("PA", "r05")
        names = service.runs("PA")
        fingerprints = service.fingerprints("PA", names)
        cost_key = cost_model_key(UnitCost())
        unpriced = {
            pair_key(fingerprints[a], fingerprints[b], cost_key)
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if fingerprints[a] != fingerprints[b]
        }
        unpriced = {
            key for key in unpriced if service.cache.peek(key) is None
        }
        assert unpriced
        sizes = _count_batches(service, monkeypatch)
        matrix = DiffService(store, persistent=False).distance_matrix("PA")
        assert service.medoid("PA") == medoid_of(matrix, names=names)
        assert sizes == [len(unpriced)]

    def test_partly_warm_nearest_probes_the_cache_linearly(
        self, tmp_path, monkeypatch
    ):
        store = populate_store(tmp_path, 10)
        service = DiffService(store, persistent=False)
        service.nearest_runs("PA", "r10")
        service.distances(
            "PA", [("r01", "r02"), ("r01", "r03"), ("r01", "r04")]
        )
        probes = []
        for method in ("get", "peek"):
            real = getattr(service.cache, method)

            def counting(*args, _real=real, **kwargs):
                probes.append(method)
                return _real(*args, **kwargs)

            monkeypatch.setattr(service.cache, method, counting)
        sizes = _count_batches(service, monkeypatch)
        ranking = service.nearest_runs("PA", "r01", k=2)
        matrix = DiffService(store, persistent=False).distance_matrix("PA")
        assert ranking == k_nearest(matrix, "r01", k=2)
        names = service.runs("PA")
        assert len(probes) <= 2 * (len(names) - 1)
        assert len(sizes) <= 1
