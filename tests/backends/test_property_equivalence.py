"""Property: every backend computes bit-identical corpus answers.

The backends are interchangeable by contract — the scheduler may move
work between threads, but never change a result.  For random corpora
and cacheable cost models, the serial and thread backends must produce
**bit-identical** distance matrices and edit-script costs.
Bit-identity (``==`` on floats, not ``approx``) holds because every
backend computes each pair in the canonical lexicographic DP direction
(the PR 3 rule): same operand order, same float accumulation, same
bits — no matter which worker ran it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import SerialBackend, ThreadBackend
from repro.corpus.service import DiffService
from repro.costs.standard import LengthCost, PowerCost, UnitCost
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification

# Cold matrices dominate the runtime; few-but-varied examples.
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
                spec, PARAMS, seed=run_seed + offset, name=f"run{offset}"
            )
        )
    return store


@given(
    spec_seed=st.integers(min_value=0, max_value=40),
    run_seed=st.integers(min_value=0, max_value=1000),
    cost_index=st.integers(min_value=0, max_value=len(COSTS) - 1),
)
@SETTINGS
def test_backends_agree_bit_for_bit(
    tmp_path_factory, spec_seed, run_seed, cost_index
):
    cost = COSTS[cost_index]
    root = tmp_path_factory.mktemp("backend-eq")
    store = build_corpus(root, spec_seed, run_seed, n_runs=3)
    backends = [SerialBackend(), ThreadBackend(2)]

    matrices = {}
    script_costs = {}
    for backend in backends:
        # persistent=False: every backend starts cold — nothing leaks
        # from one backend's computation into the next one's answers.
        service = DiffService(store, persistent=False, backend=backend)
        matrices[backend.name] = service.distance_matrix(
            "rand", cost=cost
        )
        names = service.runs("rand")
        pairs = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        ]
        script_costs[backend.name] = {
            pair: record.distance
            for pair, record in service.edit_scripts(
                "rand", pairs, cost
            ).items()
        }

    assert matrices["thread"] == matrices["serial"]
    assert script_costs["thread"] == script_costs["serial"]

    # Scripts price what the matrix prices: the distance cache seeded
    # from a script equals the distance-only DP bit for bit (the
    # canonical-direction rule, now backend-independent).
    for (a, b), distance in matrices["serial"].items():
        assert script_costs["serial"][(a, b)] == distance
