"""Property: pruned queries are bit-identical to the unpruned oracle.

For random corpora, random warm subsets, every backend, and every
bound-supporting cost model, the pruned ``nearest_runs`` head and the
pruned ``medoid``/``outliers`` answers must equal — ``==`` on floats —
what a cold, unpruned evaluation computes.  Pruning may only skip work
whose absence is unobservable in the results.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import SerialBackend, ThreadBackend
from repro.corpus.analytics import medoid as medoid_of
from repro.corpus.analytics import outliers as outliers_of
from repro.corpus.service import DiffService
from repro.costs.standard import LengthCost, PowerCost, UnitCost
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification

SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

PARAMS = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)

COSTS = [UnitCost(), LengthCost(), PowerCost(0.5)]

BACKENDS = [
    lambda: SerialBackend(),
    lambda: ThreadBackend(2),
]


def build_corpus(root, spec_seed, run_seed, n_runs):
    store = WorkflowStore(root)
    spec = random_specification(
        10 + spec_seed % 6,
        1.0,
        num_forks=spec_seed % 3,
        num_loops=spec_seed % 2,
        seed=spec_seed,
        name="rand",
    )
    store.save_specification(spec)
    for offset in range(n_runs):
        store.save_run(
            execute_workflow(
                spec, PARAMS, seed=run_seed + offset,
                name=f"run{offset}",
            )
        )
    return store


@given(
    spec_seed=st.integers(min_value=0, max_value=40),
    run_seed=st.integers(min_value=0, max_value=1000),
    cost_index=st.integers(min_value=0, max_value=len(COSTS) - 1),
    backend_index=st.integers(min_value=0, max_value=len(BACKENDS) - 1),
    k=st.integers(min_value=1, max_value=3),
    warm=st.integers(min_value=0, max_value=3),
)
@SETTINGS
def test_pruned_queries_match_unpruned_oracle(
    tmp_path_factory, spec_seed, run_seed, cost_index, backend_index,
    k, warm,
):
    cost = COSTS[cost_index]
    root = tmp_path_factory.mktemp("pruned-eq")
    store = build_corpus(root, spec_seed, run_seed, n_runs=5)

    # The oracle: a cold serial service, no pruning anywhere.
    oracle = DiffService(store, persistent=False)
    names = oracle.runs("rand")
    anchor = names[0]
    matrix = oracle.distance_matrix("rand", cost=cost)
    full_ranking = oracle.nearest_runs("rand", anchor, cost=cost)
    expected_medoid = medoid_of(matrix, names=names)
    expected_outliers = outliers_of(matrix, names=names, top=k)

    # The candidate: warmed with `warm` anchor pairs, then pruned.
    service = DiffService(
        store, persistent=False, backend=BACKENDS[backend_index]()
    )
    others = [name for name in names if name != anchor]
    if warm:
        service.distances(
            "rand",
            [(anchor, other) for other in others[:warm]],
            cost,
        )
    assert (
        service.nearest_runs("rand", anchor, k=k, cost=cost)
        == full_ranking[:k]
    )
    assert service.medoid("rand", cost=cost) == expected_medoid
    assert (
        service.outliers("rand", cost=cost, top=k)
        == expected_outliers
    )
