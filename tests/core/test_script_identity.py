"""Edit scripts through the shape cells are bit-identical to the paper's DP.

Every computation prices child pairs through the ``≡``-shortcut and the
batch's ``(shape1, shape2)`` cells, and the traceback reads identity-keyed
decisions only for the pairs it visits.  The oracle,
:class:`~repro.baselines.identity_dp.IdentityKeyedComputation`, decides
every reachable pair by node identity.  Both must give ``==`` distances,
the same mapping (node identity, ``unstable``, ``local_cost``) and the
same operations, ties included, whatever order a shared batch fills its
cells in.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.baselines.identity_dp import IdentityKeyedComputation
from repro.core.api import diff_runs
from repro.core.edit_distance import EditDistanceComputation
from repro.core.edit_script import generate_script
from repro.core.mapping import extract_mapping
from repro.core.memo import SharedTables
from repro.costs.standard import CallableCost, LengthCost, UnitCost
from repro.errors import SpecificationError
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification
from repro.workflow.real_workflows import all_real_workflows, protein_annotation

PARAMS = ExecutionParams(
    prob_parallel=0.7,
    max_fork=2,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


def _label_priced(length, source_label, sink_label):
    """Non-dyadic, label-dependent prices: a changed summation order or
    a changed tie would show in the low bits."""
    weight = 1.0 + (len(source_label) + 2 * len(sink_label)) % 5 / 7.0
    return length ** 0.75 * weight


COSTS = [
    UnitCost(),
    LengthCost(),
    CallableCost(_label_priced, name="label-priced"),
]


def _mapping_key(mapping):
    return [
        (id(pair.left), id(pair.right), pair.unstable, pair.local_cost)
        for pair in mapping.pairs
    ]


def _assert_scripts_match_oracle(runs, cost, order_seed):
    """One shared batch over every directed pair, in a shuffled order."""
    directed = [(a, b) for a in runs for b in runs if a is not b]
    random.Random(order_seed).shuffle(directed)
    shared = SharedTables(cost)
    for run_a, run_b in directed:
        product = diff_runs(run_a, run_b, cost=cost, shared=shared)
        oracle = IdentityKeyedComputation(
            run_a.spec, run_a.tree, run_b.tree, cost
        )
        mapping = extract_mapping(oracle)
        script = generate_script(oracle)
        assert product.distance == oracle.distance  # same bits
        assert product.mapping.cost == mapping.cost
        assert _mapping_key(product.mapping) == _mapping_key(mapping)
        assert [op.to_dict() for op in product.script.operations] == [
            op.to_dict() for op in script.operations
        ]
    return len(directed)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec_seed=st.integers(min_value=0, max_value=10_000),
    edges=st.integers(min_value=5, max_value=14),
    ratio=st.sampled_from([0.5, 1.0, 2.0]),
    forks=st.integers(min_value=0, max_value=2),
    loops=st.integers(min_value=0, max_value=2),
    run_seed=st.integers(min_value=0, max_value=10_000),
    cost_index=st.integers(min_value=0, max_value=len(COSTS) - 1),
)
def test_random_spec_scripts_match_identity_dp(
    spec_seed, edges, ratio, forks, loops, run_seed, cost_index
):
    try:
        spec = random_specification(
            edges, ratio, num_forks=forks, num_loops=loops, seed=spec_seed
        )
    except SpecificationError:
        assume(False)  # the counts do not fit this graph
    runs = [
        execute_workflow(spec, PARAMS, seed=run_seed + i, name=f"r{i}")
        for i in range(5)
    ]
    _assert_scripts_match_oracle(runs, COSTS[cost_index], spec_seed)


def test_real_workflow_scripts_match_identity_dp():
    checked = 0
    for name, spec in sorted(all_real_workflows().items()):
        runs = [
            execute_workflow(spec, PARAMS, seed=seed, name=f"{name}{seed}")
            for seed in range(1, 6)
        ]
        for index, cost in enumerate(COSTS):
            checked += _assert_scripts_match_oracle(runs, cost, index)
    assert checked == 6 * 3 * 20


def test_scripts_decide_far_fewer_pairs_than_the_identity_dp(monkeypatch):
    # One Fig. 11-size pair of the protein-annotation workflow (about
    # 800 edges in the two runs): the traceback decides the pairs it
    # visits, the shape cells price the rest.
    spec = protein_annotation()
    params = ExecutionParams(
        prob_parallel=0.95,
        max_fork=12,
        prob_fork=0.7,
        max_loop=12,
        prob_loop=0.7,
    )
    one = execute_workflow(spec, params, seed=0, name="a")
    two = execute_workflow(spec, params, seed=1, name="b")
    assert 700 <= one.num_edges + two.num_edges <= 900
    calls = {"count": 0}
    original = EditDistanceComputation._decide

    def counting(self, v1, v2):
        calls["count"] += 1
        return original(self, v1, v2)

    monkeypatch.setattr(EditDistanceComputation, "_decide", counting)
    cost = UnitCost()
    product = diff_runs(one, two, cost=cost)
    decided = calls["count"]
    calls["count"] = 0
    oracle = IdentityKeyedComputation(spec, one.tree, two.tree, cost)
    script = generate_script(oracle)
    reference = calls["count"]
    assert product.distance == oracle.distance
    assert [op.to_dict() for op in product.script.operations] == [
        op.to_dict() for op in script.operations
    ]
    assert decided * 10 <= reference  # 623 against 38,079 here
