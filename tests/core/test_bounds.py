"""Lower bounds (:mod:`repro.core.bounds`): units and soundness.

The module's contract is one-sided: a bound may be vacuous, never
wrong.  The Hypothesis property at the bottom enforces exactly that —
for random specifications (forks, loops, non-SP shapes included via
the generators) and every cost model the module claims to reason
about, ``run_lower_bound(r1, r2, cost) <= distance_only(r1, r2, cost)``
holds with plain ``<=`` on floats, no tolerance.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import distance_only
from repro.core.bounds import (
    decode_profile,
    distance_lower_bound,
    encode_profile,
    is_sound_for,
    leaf_profile,
    packing_lower_bound,
    profile_delta,
    run_lower_bound,
    spec_max_op_leaves,
)
from repro.costs.standard import (
    CallableCost,
    LabelWeightedCost,
    LengthCost,
    PowerCost,
    UnitCost,
)
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification
from repro.workflow.real_workflows import protein_annotation

VARIED = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


def _pa_runs(seed_a, seed_b):
    spec = protein_annotation()
    return (
        execute_workflow(spec, VARIED, seed=seed_a, name="a"),
        execute_workflow(spec, VARIED, seed=seed_b, name="b"),
    )


class TestLeafProfiles:
    def test_profile_counts_q_leaves_only(self):
        run_a, _ = _pa_runs(1, 2)
        profile = leaf_profile(run_a.tree)
        assert profile
        assert all(
            isinstance(pair, tuple) and count >= 1
            for pair, count in profile.items()
        )
        # Q leaves, not graph edges: the totals match leaf_edges().
        assert sum(profile.values()) == len(
            list(run_a.tree.leaf_edges())
        )

    def test_delta_is_a_metric_on_multisets(self):
        run_a, run_b = _pa_runs(1, 2)
        pa, pb = leaf_profile(run_a.tree), leaf_profile(run_b.tree)
        assert profile_delta(pa, pa) == 0
        assert profile_delta(pa, pb) == profile_delta(pb, pa)
        assert profile_delta(pa, {}) == sum(pa.values())

    def test_encode_decode_round_trip(self):
        run_a, _ = _pa_runs(3, 4)
        profile = leaf_profile(run_a.tree)
        assert decode_profile(encode_profile(profile)) == profile

    @pytest.mark.parametrize("payload", [
        None,
        "not a dict",
        {"no-separator": 1},
        {"a\x1fb": "three"},
        {"a\x1fb": True},
        {"a\x1fb": -1},
    ])
    def test_decode_rejects_malformed_payloads(self, payload):
        assert decode_profile(payload) is None

    def test_spec_ceiling_positive_for_real_workflow(self):
        assert spec_max_op_leaves(protein_annotation()) >= 1


class TestPackingBound:
    def test_zero_delta_is_zero(self):
        assert packing_lower_bound(0, 5, UnitCost()) == 0.0

    def test_unit_cost_is_op_count(self):
        # D = 7, L = 3: at least ceil(7/3) = 3 ops, each costing 1.
        assert packing_lower_bound(7, 3, UnitCost()) == 3.0

    def test_length_cost_is_delta(self):
        assert packing_lower_bound(7, 3, LengthCost()) == 7.0

    def test_concave_power_packs_full_pieces(self):
        # D = 7, L = 4, eps = 0.5: floor at 4^0.5 + 3^0.5 (guarded).
        bound = packing_lower_bound(7, 4, PowerCost(0.5))
        expected = math.sqrt(4) + math.sqrt(3)
        assert bound <= expected
        assert bound == pytest.approx(expected)

    def test_negative_power_charges_per_piece(self):
        # eps < 0: ceil(7/4) = 2 pieces at the cheapest rate 4^-0.5.
        bound = packing_lower_bound(7, 4, PowerCost(-0.5))
        expected = 2 * 4 ** -0.5
        assert bound <= expected
        assert bound == pytest.approx(expected)

    def test_weighted_cost_scales_by_min_weight(self):
        cost = LabelWeightedCost(
            LengthCost(), {("a", "b"): 5.0}, default_weight=2.0
        )
        bound = packing_lower_bound(7, 3, cost)
        assert bound <= 2.0 * 7
        assert bound == pytest.approx(14.0)

    def test_unknown_models_get_the_vacuous_bound(self):
        cost = CallableCost(lambda l, a, b: 100.0, name="flat")
        assert packing_lower_bound(7, 3, cost) == 0.0
        assert not is_sound_for(cost)

    def test_sound_models_are_declared(self):
        assert is_sound_for(UnitCost())
        assert is_sound_for(LengthCost())
        assert is_sound_for(PowerCost(-1.0))
        assert is_sound_for(
            LabelWeightedCost(UnitCost(), {}, default_weight=3.0)
        )

    def test_degenerate_ceiling_is_vacuous(self):
        assert packing_lower_bound(7, 0, UnitCost()) == 0.0


# Every model the module claims soundness for, plus one it does not
# (whose bound must degenerate to 0.0 — also trivially sound).
SOUND_COSTS = [
    UnitCost(),
    LengthCost(),
    PowerCost(0.5),
    PowerCost(-0.5),
    LabelWeightedCost(
        PowerCost(0.5), {("START", "END"): 4.0}, default_weight=2.0
    ),
    CallableCost(lambda l, a, b: float(l) * 2.0, name="double"),
]


@given(
    spec_seed=st.integers(min_value=0, max_value=60),
    run_seed=st.integers(min_value=0, max_value=1000),
    cost_index=st.integers(min_value=0, max_value=len(SOUND_COSTS) - 1),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bound_never_exceeds_true_distance(
    spec_seed, run_seed, cost_index
):
    """The contract: ``bound <= distance``, bit for bit, always."""
    cost = SOUND_COSTS[cost_index]
    spec = random_specification(
        10 + spec_seed % 6,
        1.0,
        num_forks=spec_seed % 3,
        num_loops=spec_seed % 2,
        seed=spec_seed,
        name="rand",
    )
    run_a = execute_workflow(spec, VARIED, seed=run_seed, name="a")
    run_b = execute_workflow(spec, VARIED, seed=run_seed + 1, name="b")
    distance = distance_only(run_a, run_b, cost=cost)
    bound = run_lower_bound(run_a, run_b, cost)
    assert bound <= distance
    # The profile-level face agrees with the convenience face.
    assert bound == distance_lower_bound(
        leaf_profile(run_a.tree),
        leaf_profile(run_b.tree),
        spec_max_op_leaves(spec),
        cost,
    )


@given(
    run_seed=st.integers(min_value=0, max_value=500),
    cost_index=st.integers(min_value=0, max_value=len(SOUND_COSTS) - 1),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bound_is_zero_on_identical_runs(run_seed, cost_index):
    cost = SOUND_COSTS[cost_index]
    spec = protein_annotation()
    run = execute_workflow(spec, VARIED, seed=run_seed, name="a")
    assert run_lower_bound(run, run, cost) == 0.0
