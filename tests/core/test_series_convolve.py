"""The S-node min-plus convolution and its backtrace (Algorithm 3).

``series_convolve`` is the one implementation of the O(|E|³) step, so
these tests pin it against the definition: ``Z'[b + l]`` is the least
``Z[b] + Y[l]`` over ``l >= 1``, with ``INF`` entries contributing
nothing and the result compared with ``==`` on floats, never
``approx``.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.deletion import INF, DeletionTables, series_convolve
from repro.costs.standard import LengthCost, PowerCost, UnitCost
from repro.sptree.nodes import NodeType
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification

COSTS_OR_INF = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.just(INF),
)
TABLES = st.lists(COSTS_OR_INF, min_size=1, max_size=8)

VARIED = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)


def brute_force(prefix, child_y):
    """Min-plus convolution straight from the definition."""
    size = len(prefix) + len(child_y) - 1
    merged = []
    for total in range(size):
        candidates = [
            prefix[base] + child_y[total - base]
            for base in range(len(prefix))
            if 1 <= total - base < len(child_y)
        ]
        merged.append(min(candidates, default=INF))
    return merged


class TestConvolution:
    @given(prefix=TABLES, child_y=TABLES)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition(self, prefix, child_y):
        assert series_convolve(prefix, child_y) == brute_force(
            prefix, child_y
        )

    @given(prefix=TABLES, child_y=TABLES)
    @settings(max_examples=100, deadline=None)
    def test_table_size(self, prefix, child_y):
        merged = series_convolve(prefix, child_y)
        assert len(merged) == len(prefix) + len(child_y) - 1

    def test_infinities_contribute_nothing(self):
        prefix = [0.0, INF, 3.0]
        child_y = [INF, 1.0]
        assert series_convolve(prefix, child_y) == [INF, 1.0, INF, 4.0]
        assert series_convolve(prefix, [INF, INF, INF]) == [INF] * 5

    def test_child_index_zero_is_never_read(self):
        # Y[0] is the unused slot: no child reduces to zero leaves.
        for slot in (INF, 0.0, 123.0):
            assert series_convolve([0.0, 2.0], [slot, 5.0]) == [
                INF,
                5.0,
                7.0,
            ]

    @given(child_y=TABLES)
    @settings(max_examples=100, deadline=None)
    def test_empty_prefix_is_the_identity(self, child_y):
        # Z_0 = [0.0]: no children consumed, no cost.
        merged = series_convolve([0.0], child_y)
        assert merged == [INF] + list(child_y[1:])

    @given(
        first=st.lists(
            st.integers(min_value=0, max_value=1000).map(float),
            min_size=2,
            max_size=6,
        ),
        second=st.lists(
            st.integers(min_value=0, max_value=1000).map(float),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_child_order_commutes(self, first, second):
        forward = series_convolve(series_convolve([0.0], first), second)
        backward = series_convolve(series_convolve([0.0], second), first)
        assert forward == backward


@given(
    spec_seed=st.integers(min_value=0, max_value=40),
    run_seed=st.integers(min_value=0, max_value=1000),
    cost_index=st.integers(min_value=0, max_value=2),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_series_backtrace_reproduces_y(spec_seed, run_seed, cost_index):
    """For every S node and every achievable leaf count, the backtraced
    allocation sums to that count and its children's costs add up to
    ``Y`` (within the backtrace's 1e-9 tie tolerance)."""
    cost = [UnitCost(), LengthCost(), PowerCost(0.5)][cost_index]
    spec = random_specification(
        10 + spec_seed % 6,
        1.0,
        num_forks=spec_seed % 3,
        num_loops=spec_seed % 2,
        seed=spec_seed,
        name="rand",
    )
    run = execute_workflow(spec, VARIED, seed=run_seed, name="r")
    series = [
        node for node in run.tree.iter_nodes() if node.kind is NodeType.S
    ]
    # Some seeds execute to a single parallel block with no S node.
    assume(series)
    tables = DeletionTables(run.tree, cost)
    checked = 0
    for node in series:
        for leaves in range(1, tables.max_leaves(node) + 1):
            target = tables.y(node, leaves)
            if math.isinf(target):
                continue
            allocation = tables._series_allocation(node, leaves)
            assert sum(allocation) == leaves
            total = 0.0
            for child, child_leaves in zip(node.children, allocation):
                total += tables.y(child, child_leaves)
            assert total == pytest.approx(target, abs=1e-9)
            checked += 1
    assert checked >= 1
