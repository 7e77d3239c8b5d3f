"""The DiffService fast paths: seeding, dedup, pruning, counters.

Regression coverage for the hot-path fixes and the bound/triangle
pruning layers:

* ≡-equivalent pairs (equal fingerprints) seed the distance cache
  under the canonical pair key — historically the short-circuit
  bypassed the cache, so the zero never persisted;
* uncacheable cost models dedupe a batch by the *unordered* name pair
  — ``(a, b)`` and ``(b, a)`` cost one DP, not two;
* pruned ``nearest_runs``/``medoid``/``outliers`` return answers
  bit-identical to the unpruned evaluation while the
  ``dp_skipped_by_bound``/``dp_pruned_by_triangle`` counters record
  the DPs they avoided.
"""

import pytest

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
    def test_duplicate_anchor_prunes_everything(
        self, tmp_path, dp_counter
    ):
        # r01dup is ≡ r01, so the k=1 threshold is 0.0 before any DP;
        # every other candidate's packing bound exceeds it.
        store = _with_duplicate(tmp_path, 4)
        service = DiffService(store, persistent=False)
        result = service.nearest_runs(
            "PA", "r01", k=1, cost=LengthCost()
        )
        assert result == [("r01dup", 0.0)]
        assert dp_counter["count"] == 0
        assert service.dp_skipped_by_bound > 0

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
        assert counters["dp_pruned_by_triangle"] == 0
        service.nearest_runs(
            "PA", "r01", k=1, cost=LengthCost()
        )
        counters = service.stats_counters
        assert counters["dp_skipped_by_bound"] > 0

    def test_warm_path_reports_nonzero_skips(self, tmp_path):
        """The acceptance criterion: nonzero ``dp_skipped_by_bound``
        on a warm-cache path."""
        store = _with_duplicate(tmp_path, 5)
        cost = LengthCost()
        service = DiffService(store)
        # Warm a neighbourhood, then ask a pruned query.
        service.distances(
            "PA",
            [("r01", "r02"), ("r01", "r03")],
            cost,
        )
        service.nearest_runs(
            "PA", "r01", k=1, cost=cost
        )
        assert service.stats_counters["dp_skipped_by_bound"] > 0

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


def _backend_tasks(service) -> float:
    samples = service.metrics.snapshot()["backend_tasks_total"]["samples"]
    return sum(sample["value"] for sample in samples)


class TestPruningBeforeDispatch:
    """A top-``k`` query drops its doomed pairs before the batch is
    dispatched, the same way on both backends."""

    def test_nearest_identical_across_backends(self, tmp_path):
        store = populate_store(tmp_path, 8)
        cost = LengthCost()
        oracle = DiffService(store, persistent=False).nearest_runs(
            "PA", "r01", cost=cost
        )
        outcomes = {}
        for backend in ("serial", "thread"):
            service = DiffService(
                store, persistent=False, backend=backend, max_workers=2
            )
            # Warm pivots: one full row and two of the anchor's pairs.
            service.nearest_runs("PA", "r08", cost=cost)
            service.distances(
                "PA", [("r01", "r02"), ("r01", "r03")], cost
            )
            ranking = service.nearest_runs("PA", "r01", k=2, cost=cost)
            outcomes[backend] = (
                ranking,
                service.dp_skipped_by_bound,
                service.dp_pruned_by_triangle,
            )
        assert outcomes["serial"] == outcomes["thread"]
        assert outcomes["serial"][0] == oracle[:2]
        assert outcomes["serial"][1] > 0

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_warm_topk_dispatches_only_survivors(self, tmp_path, backend):
        store = populate_store(tmp_path, 8)
        cost = LengthCost()
        service = DiffService(
            store, persistent=False, backend=backend, max_workers=2
        )
        service.distances("PA", [("r01", "r02"), ("r01", "r03")], cost)
        tasks_before = _backend_tasks(service)
        computed_before = service.computed_pairs
        service.nearest_runs("PA", "r01", k=1, cost=cost)
        dispatched = _backend_tasks(service) - tasks_before
        dropped = (
            service.dp_skipped_by_bound + service.dp_pruned_by_triangle
        )
        assert service.dp_skipped_by_bound > 0
        # r04..r08 were unknown: each one is either dropped or
        # dispatched, never both, and every dispatched pair is a DP.
        assert dispatched + dropped == 5
        assert dispatched == service.computed_pairs - computed_before
