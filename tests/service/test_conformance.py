"""Protocol conformance: ``Workspace`` ≡ ``RemoteWorkspace``.

Every test here runs against every implementation through the
parametrized ``api`` fixture (the remote ones talking to a live server
and to a two-worker cluster), and the cross-implementation tests assert
*bit-identical* payloads — distances, edit scripts, and query results
may never drift between the in-process workspace and either served
one (``served_ws``).

Ordering note: the corpus-mutating tests (uploads, second spec) sit at
the end of the module so the exact-listing assertions above them stay
valid; pytest executes tests in definition order.
"""

import pytest

from repro.api_types import QueryFilter, StatsSnapshot, WorkspaceAPI
from repro.corpus.fingerprint import spec_fingerprint
from repro.costs.standard import LengthCost, PowerCost
from repro.errors import ConflictError, NotFoundError, ReproError
from repro.query.aggregate import module_churn, op_kind_histogram
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import emboss
from repro.workflow.specification import WorkflowSpecification

RUN_NAMES = ["r01", "r02", "r03", "r04"]


class TestSurface:
    def test_satisfies_the_protocol(self, api):
        assert isinstance(api, WorkspaceAPI)

    def test_listings(self, api, spec_name):
        assert spec_name in api.specifications()
        assert api.runs(spec=spec_name) == RUN_NAMES
        assert api.runs() == RUN_NAMES  # single-spec default resolution

    def test_specification_object(self, api, spec_name):
        spec = api.specification(spec_name)
        assert spec.name == spec_name
        assert spec.graph.num_nodes > 0

    def test_run_object_is_equivalent(self, api, local_ws):
        downloaded = api.run("r01")
        assert downloaded.equivalent(local_ws.run("r01"))

    def test_stats_snapshot(self, api):
        snapshot = api.stats_snapshot()
        assert isinstance(snapshot, StatsSnapshot)
        assert "computed_pairs" in snapshot.counters


class TestIdenticalResults:
    """Local and served — by one process or by the cluster — must
    agree to the last bit (and byte)."""

    @pytest.mark.parametrize(
        "pair", [("r01", "r02"), ("r02", "r01"), ("r03", "r04")]
    )
    def test_diff_payloads_identical(self, local_ws, served_ws, pair):
        local = local_ws.diff(*pair)
        served = served_ws.diff(*pair)
        assert local.to_dict() == served.to_dict()
        assert local.distance == served.distance  # bit-identical float
        assert local.cost_key == served.cost_key

    @pytest.mark.parametrize(
        "cost", [LengthCost(), PowerCost(0.5)], ids=["length", "power"]
    )
    def test_diffs_identical_under_other_costs(
        self, local_ws, served_ws, cost
    ):
        local = local_ws.diff("r01", "r03", cost=cost)
        served = served_ws.diff("r01", "r03", cost=cost)
        assert local.to_dict() == served.to_dict()

    def test_matrix_identical(self, local_ws, served_ws):
        local = local_ws.matrix()
        served = served_ws.matrix()
        assert local == served  # MatrixResult field equality
        assert local.to_dict() == served.to_dict()
        assert dict(local) == dict(served)  # legacy mapping face

    def test_matrix_subset_identical(self, local_ws, served_ws):
        subset = ["r01", "r03"]
        assert local_ws.matrix(runs=subset).to_dict() == (
            served_ws.matrix(runs=subset).to_dict()
        )

    def test_query_results_identical(self, local_ws, served_ws):
        filter = QueryFilter(kinds=("path-deletion",), min_cost=1.0)
        local = local_ws.query_page(filter)
        served = served_ws.query_page(filter)
        assert local.to_dict() == served.to_dict()
        assert local.total_matches == served.total_matches

    def test_query_pagination_walk_identical(
        self, local_ws, served_ws
    ):
        """Walking page by page visits the same diffs in the same
        order on both implementations, and cursors line up."""

        def walk(ws):
            pages, cursor = [], None
            while True:
                page = ws.query_page(cursor=cursor, limit=2)
                pages.append(page.to_dict())
                if page.next_cursor is None:
                    return pages
                cursor = page.next_cursor

        local_pages = walk(local_ws)
        served_pages = walk(served_ws)
        assert local_pages == served_pages
        assert len(local_pages) == 3  # 6 pairs, 2 per page

    def test_query_items_feed_the_aggregations(
        self, local_ws, served_ws
    ):
        """Served page items are duck-compatible with the local
        engine's docs for the aggregation helpers."""
        local_docs = local_ws.query()
        served_items = served_ws.query()
        assert op_kind_histogram(served_items) == op_kind_histogram(
            local_docs
        )
        assert module_churn(served_items) == module_churn(local_docs)

    def test_analytics_identical(self, local_ws, served_ws):
        assert local_ws.nearest("r01") == served_ws.nearest("r01")
        assert local_ws.nearest("r01", k=2) == served_ws.nearest(
            "r01", k=2
        )
        assert local_ws.medoid() == served_ws.medoid()
        assert local_ws.outliers() == served_ws.outliers()
        assert local_ws.outliers(top=2) == served_ws.outliers(top=2)

    def test_export_prov_byte_identical(self, local_ws, served_ws):
        assert local_ws.export_prov("r02") == served_ws.export_prov(
            "r02"
        )


class TestErrorsBehaveIdentically:
    def test_unknown_run_raises_not_found(self, api):
        with pytest.raises(NotFoundError, match="no stored run"):
            api.diff("r01", "definitely-absent")

    def test_unknown_spec_raises_not_found(self, api):
        with pytest.raises(NotFoundError, match="specification"):
            api.runs(spec="no-such-spec")

    def test_in_memory_runs_diff_without_the_store(
        self, api, local_ws, varied_params
    ):
        """Run-object diffs never touch the server; both APIs price
        them identically through the same local differ."""
        spec = local_ws.specification("PA")
        a = execute_workflow(spec, varied_params, seed=71, name="m1")
        b = execute_workflow(spec, varied_params, seed=72, name="m2")
        outcome = api.diff(a, b)
        assert outcome.pair == ("m1", "m2")
        assert "m1" not in api.runs(spec="PA")

    def test_mixed_diff_arguments_refused(
        self, api, local_ws, varied_params
    ):
        spec = local_ws.specification("PA")
        run = execute_workflow(spec, varied_params, seed=73, name="m3")
        with pytest.raises(ReproError, match="not a mix"):
            api.diff("r01", run)

    @pytest.mark.parametrize("argument", ["k", "top"])
    def test_negative_counts_refused_alike(
        self, local_ws, served_ws, argument
    ):
        """A negative ``k`` or ``top`` raises the same error type and
        message locally and served, instead of slicing the ranking."""

        def call(ws):
            if argument == "k":
                return ws.nearest("r01", k=-1)
            return ws.outliers(top=-1)

        with pytest.raises(ReproError) as local:
            call(local_ws)
        with pytest.raises(ReproError) as served:
            call(served_ws)
        assert type(served.value) is type(local.value)
        assert str(served.value) == str(local.value)
        assert str(local.value) == f"{argument} must be >= 0, got -1"


class TestWritePaths:
    """Corpus mutations through either implementation land in the same
    store and price identically.  (Kept last: they grow the corpus.)"""

    def test_generated_upload_prices_identically(
        self, api, local_ws, remote_ws, varied_params
    ):
        import os

        if os.environ.get("REPRO_REMOTE_URL"):
            pytest.skip(
                "external server: local and remote stores are "
                "separate directories, so cross-visibility does not "
                "apply (covered by the in-thread run)"
            )
        name = f"up-{type(api).__name__}"
        api.generate_run(name, params=varied_params, seed=90)
        assert name in local_ws.runs(spec="PA")
        assert name in remote_ws.runs(spec="PA")
        local = local_ws.diff("r01", name, spec="PA")
        remote = remote_ws.diff("r01", name, spec="PA")
        assert local.to_dict() == remote.to_dict()

    def test_import_run_roundtrip(self, api, local_ws, varied_params):
        spec = local_ws.specification("PA")
        name = f"imp-{type(api).__name__}"
        run = execute_workflow(
            spec, varied_params, seed=91, name=name
        )
        api.import_run(run)
        assert api.run(name, spec="PA").equivalent(run)

    def test_conflicting_import_is_refused_alike(self, api):
        """A run whose specification conflicts with the stored one of
        its name raises the same :class:`ConflictError` everywhere, and
        the store is left as it was (locally the run used to land)."""
        conflicting = WorkflowSpecification(emboss().graph, name="PA")
        run = execute_workflow(
            conflicting, seed=5, name=f"clash-{type(api).__name__}"
        )
        runs = api.runs(spec="PA")
        digest = spec_fingerprint(api.specification("PA"))
        with pytest.raises(ConflictError) as refused:
            api.import_run(run)
        assert str(refused.value).startswith(
            "a different specification named 'PA' already exists"
        )
        assert api.runs(spec="PA") == runs
        assert spec_fingerprint(api.specification("PA")) == digest

    def test_second_spec_forces_explicit_resolution(self, api):
        api.register(emboss())
        assert set(api.specifications()) >= {"PA", "EMBOSS"}
        with pytest.raises(ReproError, match="several specifications"):
            api.runs()
        assert api.runs(spec="PA")  # explicit spec still works
