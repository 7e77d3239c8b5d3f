"""Matrix analytics: medoid, outliers, k-NN, symmetric lookups."""

import pytest

from repro.corpus.analytics import (
    k_nearest,
    matrix_names,
    mean_distances,
    medoid,
    outliers,
    pair_distance,
)
from repro.errors import ReproError

# A hand-built symmetric matrix over four runs: "d" is far from all,
# "a"/"b" are close, "c" sits in between.
MATRIX = {
    ("a", "b"): 1.0,
    ("a", "c"): 2.0,
    ("a", "d"): 8.0,
    ("b", "c"): 2.0,
    ("b", "d"): 8.0,
    ("c", "d"): 9.0,
}


class TestLookups:
    def test_matrix_names(self):
        assert matrix_names(MATRIX) == ["a", "b", "c", "d"]

    def test_pair_distance_accepts_either_order(self):
        assert pair_distance(MATRIX, "a", "b") == 1.0
        assert pair_distance(MATRIX, "b", "a") == 1.0
        assert pair_distance(MATRIX, "a", "a") == 0.0

    def test_missing_pair_rejected(self):
        with pytest.raises(ReproError, match="no entry"):
            pair_distance(MATRIX, "a", "z")


class TestMeans:
    def test_mean_distances(self):
        means = mean_distances(MATRIX)
        assert means["a"] == pytest.approx((1.0 + 2.0 + 8.0) / 3)
        assert means["d"] == pytest.approx((8.0 + 8.0 + 9.0) / 3)

    def test_singleton_population(self):
        assert mean_distances(MATRIX, names=["a"]) == {"a": 0.0}

    def test_population_restriction(self):
        means = mean_distances(MATRIX, names=["a", "b"])
        assert means == {"a": 1.0, "b": 1.0}


class TestMedoid:
    def test_picks_minimal_mean(self):
        name, mean = medoid(MATRIX)
        means = mean_distances(MATRIX)
        assert means[name] == pytest.approx(min(means.values()))
        assert mean == pytest.approx(means[name])

    def test_tie_breaks_lexicographically(self):
        tied = {("x", "y"): 3.0}
        assert medoid(tied)[0] == "x"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ReproError, match="empty corpus"):
            medoid({}, names=[])


class TestOutliers:
    def test_head_is_most_distant_run(self):
        ranked = outliers(MATRIX)
        assert ranked[0][0] == "d"
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_top_truncates(self):
        assert outliers(MATRIX, top=1) == outliers(MATRIX)[:1]


class TestKNearest:
    def test_orders_ascending_and_excludes_self(self):
        neighbours = k_nearest(MATRIX, "a")
        assert [n for n, _ in neighbours] == ["b", "c", "d"]
        assert k_nearest(MATRIX, "a", k=1) == [("b", 1.0)]

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="not part of the matrix"):
            k_nearest(MATRIX, "z")


class TestCounts:
    """``k`` and ``top`` count runs: zero keeps none, and a negative
    count is refused rather than slicing runs off the ranking's tail."""

    def test_zero_keeps_nothing(self):
        assert outliers(MATRIX, top=0) == []
        assert k_nearest(MATRIX, "a", k=0) == []

    def test_negative_top_refused(self):
        with pytest.raises(ReproError, match="^top must be >= 0, got -1$"):
            outliers(MATRIX, top=-1)

    def test_negative_k_refused(self):
        with pytest.raises(ReproError, match="^k must be >= 0, got -2$"):
            k_nearest(MATRIX, "a", k=-2)
