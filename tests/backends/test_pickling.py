"""Pickle and deep-copy round-trips of runs, specifications and costs.

Callers persist, ship and copy these objects, and :func:`copy.deepcopy`
goes through the same ``__getstate__``/``__setstate__`` hooks as
:mod:`pickle`.  So :class:`WorkflowRun`, :class:`WorkflowSpecification`
and every standard :class:`CostModel` must survive ``pickle.dumps`` /
``loads`` (and a deep copy) with full behavioural fidelity — same
structure keys, same prices, same distances — and without dragging
derived memo state along.
"""

import copy
import pickle

import pytest

from repro.core.api import diff_runs, distance_only
from repro.costs.standard import (
    CallableCost,
    LabelWeightedCost,
    LengthCost,
    PowerCost,
    UnitCost,
)
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.run import WorkflowRun

PARAMS = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def spec():
    return protein_annotation()


@pytest.fixture(scope="module")
def run_pair(spec):
    return (
        execute_workflow(spec, PARAMS, seed=1, name="a"),
        execute_workflow(spec, PARAMS, seed=2, name="b"),
    )


class TestSpecificationRoundTrip:
    def test_structure_survives(self, spec):
        clone = roundtrip(spec)
        assert clone.name == spec.name
        assert clone.characteristics() == spec.characteristics()
        assert clone.tree.structure_key() == spec.tree.structure_key()
        assert clone.label_to_node == spec.label_to_node
        assert set(clone.loop_markers) == set(spec.loop_markers)

    def test_clone_validates_runs(self, spec, run_pair):
        """A pickled spec re-annotates runs exactly like the original."""
        from repro.workflow.run import WorkflowRun

        clone = roundtrip(spec)
        reannotated = WorkflowRun(
            clone, run_pair[0].graph, name="re"
        )
        assert (
            reannotated.tree.structure_key()
            == run_pair[0].tree.structure_key()
        )


class TestRunRoundTrip:
    def test_equivalence_and_statistics(self, run_pair):
        run = run_pair[0]
        clone = roundtrip(run)
        assert clone.name == run.name
        assert clone.statistics() == run.statistics()
        assert clone.tree.structure_key() == run.tree.structure_key()

    def test_memo_not_pickled(self, run_pair):
        """The structure-key memo is derived data: dropped on the wire."""
        run = run_pair[0]
        run.tree.structure_key()
        assert run.tree._structure_key is not None
        clone = roundtrip(run)
        assert clone.tree._structure_key is None
        assert clone.tree.structure_key() == run.tree.structure_key()

    def test_pickle_bytes_independent_of_memo_state(self, spec):
        """Warm memos must not change the serialised form."""
        run = execute_workflow(spec, PARAMS, seed=3, name="c")
        cold = pickle.dumps(run)
        run.tree.structure_key()
        assert pickle.dumps(run) == cold

    def test_pair_shares_one_spec_object(self, run_pair):
        """Pickling a pair memoises the spec: one object after loads."""
        a, b = pickle.loads(pickle.dumps(run_pair))
        assert a.spec is b.spec

    def test_distances_identical_after_roundtrip(self, run_pair):
        a, b = run_pair
        for cost in (UnitCost(), LengthCost(), PowerCost(0.5)):
            expected = distance_only(a, b, cost=cost)
            a2, b2 = pickle.loads(pickle.dumps((a, b)))
            assert distance_only(a2, b2, cost=cost) == expected

    def test_scripts_identical_after_roundtrip(self, run_pair):
        a, b = run_pair
        fresh = diff_runs(a, b, with_script=True)
        a2, b2 = pickle.loads(pickle.dumps((a, b)))
        again = diff_runs(a2, b2, with_script=True)
        assert again.distance == fresh.distance
        assert [op.to_dict() for op in again.script.operations] == [
            op.to_dict() for op in fresh.script.operations
        ]


class TestDeepCopy:
    def test_copy_of_annotated_spec_drops_run_tables(self, spec, run_pair):
        """The run-annotation tables are keyed by the ids of the
        original's tree nodes, so a copy must start without them."""
        WorkflowRun(spec, run_pair[0].graph, name="annotated")
        assert spec._run_tables is not None
        clone = copy.deepcopy(spec)
        assert clone._run_tables is None
        assert clone.tree.structure_key() == spec.tree.structure_key()

    def test_runs_annotated_against_copy_price_the_same(
        self, spec, run_pair
    ):
        clone = copy.deepcopy(spec)
        a, b = (WorkflowRun(spec, run.graph) for run in run_pair)
        a2, b2 = (WorkflowRun(clone, run.graph) for run in run_pair)
        assert a2.spec is clone and clone._run_tables is not None
        for cost in (UnitCost(), LengthCost(), PowerCost(0.5)):
            assert distance_only(a2, b2, cost=cost) == distance_only(
                a, b, cost=cost
            )

    def test_copy_of_run_drops_structure_key_memo(self, run_pair):
        run = run_pair[0]
        run.tree.structure_key()
        clone = copy.deepcopy(run)
        assert clone.tree._structure_key is None
        assert clone.tree.structure_key() == run.tree.structure_key()


class TestCostModelRoundTrip:
    CASES = [
        UnitCost(),
        LengthCost(),
        PowerCost(0.5),
        PowerCost(-0.25),
        LabelWeightedCost(
            PowerCost(0.5), {("a", "b"): 2.0, ("b", "c"): 0.5}
        ),
    ]

    @pytest.mark.parametrize(
        "cost", CASES, ids=[c.name for c in CASES]
    )
    def test_prices_identically(self, cost):
        clone = roundtrip(cost)
        assert clone.name == cost.name
        assert clone.cache_key == cost.cache_key
        for length in (0, 1, 2, 7):
            labels = ("a", "a") if length == 0 else ("a", "b")
            assert clone.path_cost(length, *labels) == cost.path_cost(
                length, *labels
            )

    def test_callable_cost_with_named_function(self):
        """CallableCost pickles when its function is importable."""
        clone = roundtrip(CallableCost(_flat_cost, name="flat"))
        assert clone.path_cost(3, "a", "b") == 2.5

    def test_callable_cost_with_lambda_fails_loudly(self):
        """A lambda-based model cannot cross a process boundary."""
        with pytest.raises(Exception):
            pickle.dumps(CallableCost(lambda l, a, b: 1.0))


def _flat_cost(length, source, sink):
    """Module-level pricing function (picklable by reference)."""
    return 2.5 if length else 0.0
