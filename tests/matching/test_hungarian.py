"""Tests for the Hungarian algorithm (F-node matching, Fig. 9)."""

import math
import random

import pytest

from repro.errors import MatchingError
from repro.matching.hungarian import INF, match_children, solve_assignment

try:
    from scipy import optimize as scipy_optimize
except ImportError:  # only the SciPy cross-checks skip
    scipy_optimize = None

needs_scipy = pytest.mark.skipif(
    scipy_optimize is None, reason="SciPy is not installed"
)


def scipy_optimum(matrix):
    rows, cols = scipy_optimize.linear_sum_assignment(matrix)
    return sum(matrix[r][c] for r, c in zip(rows, cols))


class TestSolveAssignment:
    def test_empty(self):
        assert solve_assignment([]) == (0.0, [])

    def test_identity(self):
        total, assignment = solve_assignment([[0.0, 9.0], [9.0, 0.0]])
        assert total == 0.0
        assert assignment == [0, 1]

    def test_known_instance(self):
        matrix = [
            [4, 1, 3],
            [2, 0, 5],
            [3, 2, 2],
        ]
        total, assignment = solve_assignment(matrix)
        assert total == 5.0  # 1 + 2 + 2
        assert sorted(assignment) == [0, 1, 2]

    def test_respects_forbidden_entries(self):
        matrix = [
            [INF, 1.0],
            [1.0, INF],
        ]
        total, assignment = solve_assignment(matrix)
        assert total == 2.0
        assert assignment == [1, 0]

    def test_infeasible_raises(self):
        matrix = [
            [INF, INF],
            [1.0, 1.0],
        ]
        with pytest.raises(MatchingError, match="no finite"):
            solve_assignment(matrix)

    def test_non_square_raises(self):
        with pytest.raises(MatchingError, match="square"):
            solve_assignment([[1.0, 2.0]])

    @needs_scipy
    @pytest.mark.parametrize("size", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_random(self, size, seed):
        rng = random.Random(seed * 100 + size)
        matrix = [
            [rng.uniform(0, 10) for _ in range(size)] for _ in range(size)
        ]
        total, _ = solve_assignment(matrix)
        assert total == pytest.approx(scipy_optimum(matrix))

    @needs_scipy
    def test_matches_scipy_on_the_ablation_instance(self):
        """The 80x80 instance of ablation A1 (``bench_paper.py``)."""
        rng = random.Random(5)
        matrix = [[rng.uniform(0, 10) for _ in range(80)] for _ in range(80)]
        total, _ = solve_assignment(matrix)
        assert total == pytest.approx(scipy_optimum(matrix))


class TestMatchChildren:
    def test_empty_children(self):
        assert match_children(lambda i, j: 0.0, [], []) == (0.0, [])

    def test_prefers_cheap_match(self):
        total, matches = match_children(
            lambda i, j: 1.0, [10.0], [10.0]
        )
        assert total == 1.0
        assert matches == [(0, 0)]

    def test_prefers_delete_insert_when_cheaper(self):
        total, matches = match_children(
            lambda i, j: 100.0, [1.0], [1.0]
        )
        assert total == 2.0
        assert matches == []

    def test_fig9_example(self):
        """Example 5.2: one child vs two; unit costs from the paper."""
        pair_costs = {(0, 0): 2.0, (0, 1): 3.0}
        total, matches = match_children(
            lambda i, j: pair_costs[(i, j)],
            [3.0],        # X_T1(v5)
            [3.0, 2.0],   # X_T2(v6), X_T2(v3)
        )
        assert total == 4.0  # match v5-v6 (2) + insert v3 (2)
        assert matches == [(0, 0)]

    def test_asymmetric_sizes(self):
        total, matches = match_children(
            lambda i, j: abs(i - j) * 0.5,
            [5.0, 5.0, 5.0],
            [5.0],
        )
        # Best: match one pair at cost <= 0.5 wait - match (0,0) at 0,
        # delete the other two at 5 each.
        assert total == pytest.approx(10.0)
        assert len(matches) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_optimum_vs_bruteforce(self, seed):
        rng = random.Random(seed)
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        pair = [
            [rng.uniform(0, 5) for _ in range(n2)] for _ in range(n1)
        ]
        deletes = [rng.uniform(0, 5) for _ in range(n1)]
        inserts = [rng.uniform(0, 5) for _ in range(n2)]

        def brute(i, used):
            if i == n1:
                return sum(
                    inserts[j] for j in range(n2) if j not in used
                )
            best = deletes[i] + brute(i + 1, used)
            for j in range(n2):
                if j not in used:
                    best = min(
                        best, pair[i][j] + brute(i + 1, used | {j})
                    )
            return best

        total, _ = match_children(
            lambda i, j: pair[i][j], deletes, inserts
        )
        assert total == pytest.approx(brute(0, frozenset()))
