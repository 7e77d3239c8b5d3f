"""The wire dataclasses: exact round trips, versioning, mapping faces."""

import json

import pytest

from repro.api_types import (
    DiffOutcome,
    ErrorEnvelope,
    ImportSummary,
    MatrixResult,
    QueryFilter,
    QueryPage,
    StatsSnapshot,
    decode_cursor,
    derive_stats,
    encode_cursor,
)
from repro.core.edit_script import PathOperation
from repro.errors import ReproError


def sample_operation() -> PathOperation:
    return PathOperation(
        kind="path-deletion",
        cost=2.0,
        length=3,
        source_label="s",
        sink_label="t",
        path_labels=("s", "m", "n", "t"),
        note="unit",
    )


def sample_outcome() -> DiffOutcome:
    return DiffOutcome(
        spec_name="PA",
        run_a="a",
        run_b="b",
        cost_model="UnitCost",
        distance=2.0,
        operations=[sample_operation()],
        cost_key="PowerCost(ε=0.0)",
    )


class TestDiffOutcome:
    def test_round_trip_is_exact(self):
        outcome = sample_outcome()
        clone = DiffOutcome.from_dict(outcome.to_dict())
        assert clone == outcome
        assert clone.operations[0] == outcome.operations[0]
        assert clone.operations[0] is not outcome.operations[0]

    def test_survives_json_transport(self):
        payload = json.loads(json.dumps(sample_outcome().to_dict()))
        assert DiffOutcome.from_dict(payload) == sample_outcome()

    def test_to_dict_names_the_cost_identity(self):
        payload = sample_outcome().to_dict()
        assert payload["cost_key"] == "PowerCost(ε=0.0)"
        assert payload["v"] == 1

    def test_unknown_version_rejected(self):
        payload = sample_outcome().to_dict()
        payload["v"] = 99
        with pytest.raises(ReproError, match="schema version"):
            DiffOutcome.from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ReproError):
            DiffOutcome.from_dict({"v": 1, "spec": "x"})
        with pytest.raises(ReproError):
            DiffOutcome.from_dict("not a dict")


class TestMatrixResult:
    def sample(self) -> MatrixResult:
        return MatrixResult(
            spec_name="PA",
            cost_model="UnitCost",
            cost_key="PowerCost(ε=0.0)",
            runs=["a", "b|c", "d"],
            distances={("a", "b|c"): 1.5, ("a", "d"): 0.0},
        )

    def test_round_trip_is_exact(self):
        result = self.sample()
        assert MatrixResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        ) == result

    def test_names_with_delimiters_survive(self):
        """Triples, not joined strings: ``|`` in a name is fine."""
        clone = MatrixResult.from_dict(self.sample().to_dict())
        assert clone[("a", "b|c")] == 1.5

    def test_mapping_face(self):
        result = self.sample()
        assert len(result) == 2
        assert ("a", "d") in result
        assert result.get(("a", "d")) == 0.0
        assert dict(result.items()) == result.distances
        assert result == result.distances  # equality vs plain dict
        assert result != {("a", "d"): 0.0}

    def test_unknown_version_rejected(self):
        payload = self.sample().to_dict()
        payload["v"] = 2
        with pytest.raises(ReproError, match="schema version"):
            MatrixResult.from_dict(payload)


class TestQueryFilter:
    def test_round_trip(self):
        filter = QueryFilter(
            kinds=("path-deletion", "path-insertion"),
            touches=("alignSeq",),
            min_cost=1.0,
            max_ops=9,
        )
        assert QueryFilter.from_dict(filter.to_dict()) == filter

    def test_empty_forms(self):
        assert QueryFilter.from_dict(None) == QueryFilter()
        assert QueryFilter.from_dict({}) == QueryFilter()
        assert QueryFilter().is_empty()
        assert QueryFilter().to_predicate() is None
        assert QueryFilter().describe() == "*"

    def test_describe_matches_predicate_wording(self):
        filter = QueryFilter(min_cost=2.0)
        assert filter.describe() == "cost(min=2)"
        assert filter.describe() == filter.to_predicate().describe()

    def test_predicate_equivalence(self):
        """The declarative filter selects exactly what the equivalent
        hand-built Q predicate selects."""
        from repro.query.predicates import Q

        filter = QueryFilter(kinds=("path-deletion",), min_cost=1.0)
        predicate = Q.op_kind("path-deletion") & Q.cost(min=1.0)
        assert (
            filter.to_predicate().describe() == predicate.describe()
        )


class TestQueryPage:
    def test_round_trip(self):
        page = QueryPage(
            spec_name="PA",
            cost_model="UnitCost",
            cost_key="PowerCost(ε=0.0)",
            filter=QueryFilter(min_cost=1.0),
            total_matches=7,
            items=[sample_outcome()],
            cursor=encode_cursor(2),
            next_cursor=encode_cursor(3),
        )
        clone = QueryPage.from_dict(
            json.loads(json.dumps(page.to_dict()))
        )
        assert clone == page


class TestCursors:
    def test_round_trip(self):
        for offset in (0, 1, 17, 100000):
            assert decode_cursor(encode_cursor(offset)) == offset

    def test_none_and_empty_mean_start(self):
        assert decode_cursor(None) == 0
        assert decode_cursor("") == 0

    @pytest.mark.parametrize(
        "bad", ["garbage", "bm90LWpzb24=", "eyJ2IjogOTl9"]
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(ReproError, match="cursor"):
            decode_cursor(bad)

    def test_negative_offset_rejected(self):
        import base64, json as _json

        raw = base64.urlsafe_b64encode(
            _json.dumps({"v": 1, "o": -4}).encode()
        ).decode()
        with pytest.raises(ReproError, match="cursor"):
            decode_cursor(raw)


class TestStatsSnapshot:
    def test_round_trip_and_accessors(self):
        snapshot = StatsSnapshot(
            counters={"computed_pairs": 3}, source="local"
        )
        clone = StatsSnapshot.from_dict(snapshot.to_dict())
        assert clone == snapshot
        assert clone["computed_pairs"] == 3
        assert clone.get("missing") == 0

    def test_derived_block_from_counters(self):
        derived = derive_stats(
            {
                "memory_hits": 6, "disk_hits": 2, "misses": 2,
                "script_memory_hits": 1, "script_disk_hits": 2,
                "script_misses": 1,
            },
            0.5,
        )
        assert derived == {
            "memory_hit_ratio": 0.6,
            "disk_hit_ratio": 0.2,
            "script_hit_ratio": 0.75,
            "lock_wait_seconds": 0.5,
        }

    def test_derived_block_without_lookups_is_zero(self):
        assert derive_stats({}, 0.0) == {
            "memory_hit_ratio": 0.0,
            "disk_hit_ratio": 0.0,
            "script_hit_ratio": 0.0,
            "lock_wait_seconds": 0.0,
        }


class TestImportSummary:
    def test_round_trip(self):
        summary = ImportSummary(
            spec_name="ext",
            run_name="first",
            origin="normalized",
            nodes=9,
            edges=12,
            report={"forced": 1},
            report_lines=["SP-ized with 1 forced serialisation"],
            new_pairs={("a", "first"): 2.0},
        )
        clone = ImportSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone == summary


class TestErrorEnvelopeWire:
    def test_round_trip(self):
        envelope = ErrorEnvelope(
            type="NotFoundError", message="gone", status=404
        )
        assert (
            ErrorEnvelope.from_payload(envelope.to_dict()) == envelope
        )
