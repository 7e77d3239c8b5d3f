"""Predicate semantics and index candidate generation."""

import pytest

from repro.corpus.script_cache import encode_script
from repro.corpus.script_index import ScriptIndex
from repro.core.edit_script import (
    PATH_CONTRACTION,
    PATH_DELETION,
    PATH_EXPANSION,
    PATH_INSERTION,
    PathOperation,
)
from repro.errors import ReproError
from repro.query.engine import ScriptDoc
from repro.query.predicates import MatchAll, Q


def op(kind=PATH_INSERTION, path=("A", "X", "B"), cost=1.0):
    return PathOperation(
        kind=kind,
        cost=cost,
        length=len(path) - 1,
        source_label=path[0],
        sink_label=path[-1],
        path_labels=tuple(path),
    )


def doc(distance, operations):
    return ScriptDoc("S", "a", "b", None, distance, operations)


DOC_SMALL = doc(1.0, [op()])
DOC_BIG = doc(
    6.0,
    [
        op(kind=PATH_DELETION, path=("A", "Y", "B"), cost=2.0),
        op(kind=PATH_EXPANSION, path=("C", "D"), cost=4.0),
    ],
)
DOC_EMPTY = doc(0.0, [])


class TestMatching:
    def test_match_all(self):
        assert MatchAll().matches(DOC_EMPTY)
        assert Q.everything().matches(DOC_BIG)

    def test_op_kind(self):
        assert Q.op_kind(PATH_INSERTION).matches(DOC_SMALL)
        assert not Q.op_kind(PATH_INSERTION).matches(DOC_BIG)
        assert Q.op_kind(PATH_DELETION, PATH_CONTRACTION).matches(DOC_BIG)

    def test_op_kind_validates(self):
        with pytest.raises(ReproError):
            Q.op_kind("path-tpyo")
        with pytest.raises(ReproError):
            Q.op_kind()

    def test_touches_includes_terminals(self):
        assert Q.touches("X").matches(DOC_SMALL)
        assert Q.touches("A").matches(DOC_SMALL)
        assert not Q.touches("Z").matches(DOC_SMALL)
        with pytest.raises(ReproError):
            Q.touches()

    def test_cost_bounds(self):
        assert Q.cost(min=2.0).matches(DOC_BIG)
        assert not Q.cost(min=2.0).matches(DOC_SMALL)
        assert Q.cost(max=1.0).matches(DOC_SMALL)
        assert Q.cost(min=1.0, max=6.0).matches(DOC_BIG)
        with pytest.raises(ReproError):
            Q.cost()
        with pytest.raises(ReproError):
            Q.cost(min=3.0, max=1.0)

    def test_op_count_bounds(self):
        assert Q.op_count(min=2).matches(DOC_BIG)
        assert not Q.op_count(min=1).matches(DOC_EMPTY)
        assert Q.op_count(max=0).matches(DOC_EMPTY)
        with pytest.raises(ReproError):
            Q.op_count()

    def test_combinators(self):
        both = Q.op_kind(PATH_DELETION) & Q.cost(min=5.0)
        assert both.matches(DOC_BIG)
        assert not both.matches(DOC_SMALL)
        either = Q.op_kind(PATH_INSERTION) | Q.cost(min=5.0)
        assert either.matches(DOC_SMALL)
        assert either.matches(DOC_BIG)
        assert not either.matches(DOC_EMPTY)
        assert (~Q.op_kind(PATH_INSERTION)).matches(DOC_BIG)
        assert not (~Q.everything()).matches(DOC_SMALL)

    def test_describe_is_readable(self):
        predicate = (
            Q.op_kind(PATH_DELETION)
            & Q.touches("getGOAnnot")
            & Q.cost(min=2.0)
        )
        text = predicate.describe()
        assert "op_kind(path-deletion)" in text
        assert "touches(getGOAnnot)" in text
        assert "cost(min=2)" in text
        assert repr(~Q.cost(max=3.0)) == "~cost(max=3)"


class TestCandidates:
    @pytest.fixture
    def populated(self):
        index = ScriptIndex()
        index.add(
            "small", encode_script(1.0, [op()])
        )
        index.add(
            "big",
            encode_script(
                6.0,
                [
                    op(kind=PATH_DELETION, path=("A", "Y", "B"), cost=2.0),
                    op(kind=PATH_EXPANSION, path=("C", "D"), cost=4.0),
                ],
            ),
        )
        return index

    def test_primitive_candidates(self, populated):
        assert Q.op_kind(PATH_INSERTION).candidates(populated) == {"small"}
        assert Q.touches("Y").candidates(populated) == {"big"}
        assert Q.touches("A").candidates(populated) == {"small", "big"}
        assert Q.cost(min=2.0).candidates(populated) == {"big"}
        assert Q.op_count(min=2).candidates(populated) == {"big"}

    def test_and_intersects(self, populated):
        predicate = Q.touches("A") & Q.cost(min=2.0)
        assert predicate.candidates(populated) == {"big"}

    def test_or_unions_and_poisons(self, populated):
        predicate = Q.op_kind(PATH_INSERTION) | Q.cost(min=2.0)
        assert predicate.candidates(populated) == {"small", "big"}
        # A non-prunable arm forces the whole OR to full scan.
        assert (Q.op_kind(PATH_INSERTION) | ~Q.cost(min=2.0)).candidates(
            populated
        ) is None

    def test_not_and_matchall_never_prune(self, populated):
        assert (~Q.cost(min=2.0)).candidates(populated) is None
        assert MatchAll().candidates(populated) is None
        # ... but AND with a prunable sibling still prunes.
        predicate = ~Q.cost(min=2.0) & Q.op_kind(PATH_INSERTION)
        assert predicate.candidates(populated) == {"small"}

    def test_candidates_are_conservative(self, populated):
        """Every candidate set is a superset of the true matches."""
        docs = {"small": DOC_SMALL, "big": DOC_BIG}
        predicates = [
            Q.op_kind(PATH_DELETION),
            Q.touches("A", "D"),
            Q.cost(min=0.5, max=4.0),
            Q.op_count(max=1),
            Q.op_kind(PATH_EXPANSION) & Q.cost(min=2.0),
            Q.touches("Y") | Q.cost(max=1.0),
        ]
        for predicate in predicates:
            candidates = predicate.candidates(populated)
            matches = {
                key for key, d in docs.items() if predicate.matches(d)
            }
            assert candidates is None or matches <= candidates
