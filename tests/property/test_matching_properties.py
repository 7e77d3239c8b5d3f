"""Property-based tests for the matching substrate (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.hungarian import match_children, solve_assignment
from repro.matching.noncrossing import (
    brute_force_noncrossing,
    noncrossing_match,
)

try:
    from scipy import optimize as scipy_optimize
except ImportError:  # only the SciPy cross-check skips
    scipy_optimize = None

SETTINGS = settings(max_examples=60, deadline=None)

costs = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def square_matrices(draw, max_size=7):
    size = draw(st.integers(min_value=1, max_value=max_size))
    return [
        [draw(costs) for _ in range(size)] for _ in range(size)
    ]


@st.composite
def children_instances(draw, max_size=5):
    n1 = draw(st.integers(min_value=0, max_value=max_size))
    n2 = draw(st.integers(min_value=0, max_value=max_size))
    pair = [[draw(costs) for _ in range(n2)] for _ in range(n1)]
    deletes = [draw(costs) for _ in range(n1)]
    inserts = [draw(costs) for _ in range(n2)]
    return pair, deletes, inserts


class TestHungarianProperties:
    @pytest.mark.skipif(scipy_optimize is None, reason="SciPy is not installed")
    @SETTINGS
    @given(matrix=square_matrices())
    def test_agrees_with_scipy(self, matrix):
        total, assignment = solve_assignment(matrix)
        rows, cols = scipy_optimize.linear_sum_assignment(matrix)
        expected = sum(matrix[r][c] for r, c in zip(rows, cols))
        assert total == pytest.approx(expected, abs=1e-6)
        assert sorted(assignment) == list(range(len(matrix)))

    @SETTINGS
    @given(instance=children_instances())
    def test_match_children_upper_bounds(self, instance):
        pair, deletes, inserts = instance
        total, matches = match_children(
            lambda i, j: pair[i][j], deletes, inserts
        )
        # Never worse than deleting and inserting everything.
        assert total <= sum(deletes) + sum(inserts) + 1e-6
        # Reported matches reconstruct the reported total.
        matched_left = {i for i, _ in matches}
        matched_right = {j for _, j in matches}
        recomputed = (
            sum(pair[i][j] for i, j in matches)
            + sum(
                deletes[i]
                for i in range(len(deletes))
                if i not in matched_left
            )
            + sum(
                inserts[j]
                for j in range(len(inserts))
                if j not in matched_right
            )
        )
        assert total == pytest.approx(recomputed, abs=1e-6)


class TestNonCrossingProperties:
    @SETTINGS
    @given(instance=children_instances(max_size=5))
    def test_agrees_with_bruteforce(self, instance):
        pair, deletes, inserts = instance
        total, _ = noncrossing_match(
            lambda i, j: pair[i][j], deletes, inserts
        )
        expected = brute_force_noncrossing(
            lambda i, j: pair[i][j], deletes, inserts
        )
        assert total == pytest.approx(expected, abs=1e-6)

    @SETTINGS
    @given(instance=children_instances(max_size=6))
    def test_never_cheaper_than_hungarian(self, instance):
        """Non-crossing is a restriction: its optimum can't beat the
        unrestricted assignment optimum."""
        pair, deletes, inserts = instance
        restricted, _ = noncrossing_match(
            lambda i, j: pair[i][j], deletes, inserts
        )
        unrestricted, _ = match_children(
            lambda i, j: pair[i][j], deletes, inserts
        )
        assert unrestricted <= restricted + 1e-6

    @SETTINGS
    @given(instance=children_instances(max_size=6))
    def test_matches_monotone(self, instance):
        pair, deletes, inserts = instance
        _, matches = noncrossing_match(
            lambda i, j: pair[i][j], deletes, inserts
        )
        for (i1, j1), (i2, j2) in zip(matches, matches[1:]):
            assert i1 < i2
            assert j1 < j2
