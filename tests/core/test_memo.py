"""Shared DP work (:mod:`repro.core.memo`).

Sharing tables, shapes and cells across a batch's pairs must be
invisible in the results — each is a pure function of the ordered
subtrees and the cost model, so a shared computation returns the
*bit-identical* distance of the identity-keyed DP
(:class:`~repro.baselines.identity_dp.IdentityKeyedComputation`), just
without recomputing anything.
"""

import random
import sys
import threading

import pytest

from repro import ReproConfig, Workspace
from repro.backends.base import ThreadBackend
from repro.baselines.identity_dp import IdentityKeyedComputation
from repro.core import deletion as core_deletion
from repro.core.api import diff_runs, distance_only
from repro.core.edit_distance import EditDistanceComputation
from repro.core.memo import SharedTables
from repro.errors import EditScriptError
from repro.scale.workloads import make_workload
from repro.sptree.nodes import NodeType, SPTree
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import emboss, protein_annotation
from repro.costs.standard import (
    CallableCost,
    LengthCost,
    PowerCost,
    UnitCost,
)

VARIED = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


def _corpus(n, factory=protein_annotation):
    spec = factory()
    return spec, [
        execute_workflow(spec, VARIED, seed=seed, name=f"r{seed}")
        for seed in range(1, n + 1)
    ]


def _label_priced(length, source_label, sink_label):
    """A label-dependent γ whose prices are not dyadic fractions, so a
    changed summation order would show in the low bits."""
    weight = 1.0 + (len(source_label) + 2 * len(sink_label)) % 5 / 7.0
    return length ** 0.75 * weight


def _reverse_parallels(node):
    """A copy of ``node`` with every P node's children reversed."""
    if node.kind is NodeType.Q:
        return node
    children = tuple(_reverse_parallels(c) for c in node.children)
    if node.kind is NodeType.P:
        children = children[::-1]
    return SPTree(node.kind, children, origin=node.origin)


def _pairs(runs):
    return [
        (a, b) for i, a in enumerate(runs) for b in runs[i + 1:]
    ]


class TestSharedTables:
    @pytest.mark.parametrize("factory", [protein_annotation, emboss])
    @pytest.mark.parametrize(
        "cost",
        [
            UnitCost(),
            LengthCost(),
            PowerCost(0.5),
            CallableCost(_label_priced, name="label-priced"),
        ],
        ids=["unit", "length", "power", "label-priced"],
    )
    def test_shared_distances_are_bit_identical(self, cost, factory):
        # Forks, loops and parallel branches; both directions of every
        # pair, visited in a seeded shuffled order so the shared cells
        # fill in an order unrelated to the listing.  The oracle is the
        # identity-keyed DP, which uses neither the shortcut nor cells.
        spec, runs = _corpus(16, factory)
        directed = [(a, b) for a in runs for b in runs if a is not b]
        random.Random(16).shuffle(directed)
        shared = SharedTables(cost)
        for run_a, run_b in directed:
            oracle = IdentityKeyedComputation(
                spec, run_a.tree, run_b.tree, cost
            ).distance
            together = distance_only(
                run_a, run_b, cost=cost, shared=shared
            )
            assert together == oracle  # ==, not approx: same bits
        assert shared.cells

    def test_shared_scripts_are_identical(self):
        spec, runs = _corpus(3)
        cost = UnitCost()
        shared = SharedTables(cost)
        for run_a, run_b in _pairs(runs):
            alone = diff_runs(run_a, run_b, cost=cost)
            together = diff_runs(
                run_a, run_b, cost=cost, shared=shared
            )
            assert together.distance == alone.distance
            assert [
                str(op) for op in together.script.operations
            ] == [str(op) for op in alone.script.operations]

    def test_tables_built_once_per_run(self, monkeypatch):
        spec, runs = _corpus(4)
        built = {"count": 0}
        original = core_deletion.DeletionTables

        class Counting(original):
            def __init__(self, *args, **kwargs):
                built["count"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            core_deletion, "DeletionTables", Counting
        )
        # SharedTables resolves the class through its module import;
        # patch there too so either resolution path is counted.
        import repro.core.memo as memo_module

        monkeypatch.setattr(memo_module, "DeletionTables", Counting)
        cost = UnitCost()  # sharing binds to this exact object
        shared = SharedTables(cost)
        for run_a, run_b in _pairs(runs):
            distance_only(run_a, run_b, cost=cost, shared=shared)
        # 6 pairs x 2 trees = 12 unshared builds; shared builds 4.
        assert built["count"] == len(runs)
        assert len(shared) == len(runs)

    def test_child_order_is_part_of_the_shape(self):
        # Sums and matchings follow child order, so two ≡ subtrees
        # whose P children arrive in a different order must not share
        # a cell — yet the DP still prices them at exactly 0.0.
        spec, runs = _corpus(8)
        tree = max((run.tree for run in runs), key=lambda t: t.num_nodes)
        mirror = _reverse_parallels(tree)
        assert tree.equivalent(mirror)
        cost = UnitCost()
        shared = SharedTables(cost)
        shared.intern(tree)
        shared.intern(mirror)
        shapes = shared.shape_of
        reordered = [
            (p1, p2)
            for p1, p2 in zip(tree.iter_nodes(), mirror.iter_nodes())
            if p1.kind is NodeType.P
            and shapes[id(p1.children[0])] != shapes[id(p1.children[-1])]
        ]
        assert reordered
        for p1, p2 in reordered:
            assert p1.equivalent(p2)
            assert shapes[id(p1)] != shapes[id(p2)]
        assert shapes[id(tree)] != shapes[id(mirror)]
        fast = EditDistanceComputation(
            spec, tree, mirror, cost, shared=shared
        )
        assert fast.distance == 0.0
        assert IdentityKeyedComputation(
            spec, tree, mirror, cost
        ).distance == 0.0

    def test_cells_price_each_shape_pair_once(self, tmp_path, monkeypatch):
        # A seeded pipeline family from the generator the repository
        # benchmark uses: its runs repeat most subtrees, so a shared
        # distance-only sweep decides few pairs beyond each root.
        workload = make_workload("pipeline", "family", seed=7, runs=24)
        ws = Workspace(tmp_path, ReproConfig(persistent=False))
        for document in workload.documents():
            ws.import_prov(
                document.document, name=document.run_name, diff=False
            )
        spec = ws.store.load_specification("family")
        runs = [
            ws.store.load_run(spec, name)
            for name in sorted(ws.store.list_runs("family"))
        ]
        pairs = _pairs(runs)
        calls = {"count": 0}
        original = EditDistanceComputation._decide

        def counting(self, v1, v2):
            calls["count"] += 1
            return original(self, v1, v2)

        monkeypatch.setattr(EditDistanceComputation, "_decide", counting)
        cost = UnitCost()
        shared = SharedTables(cost)
        for run_a, run_b in pairs:
            distance_only(run_a, run_b, cost=cost, shared=shared)
        assert calls["count"] <= 2.5 * len(pairs)
        assert len(shared.cells) < len(pairs)

    def test_threads_share_shapes_and_cells_without_loss(self):
        # Thread workers intern trees under the lock and read/write the
        # cells without it.  More threads than cores and a tiny switch
        # interval provoke interleavings; a lost or duplicated shape id
        # would merge or split shape classes, and a torn cell would
        # change a distance.
        spec, runs = _corpus(24)
        directed = [(a, b) for a in runs for b in runs if a is not b]
        nodes = [node for run in runs for node in run.tree.iter_nodes()]
        cost = LengthCost()
        serial = SharedTables(cost)
        expected = [
            distance_only(a, b, cost=cost, shared=serial)
            for a, b in directed
        ]

        def same_classes(threaded):
            classes = {}
            for node in nodes:
                classes.setdefault(serial.shape_of[id(node)], set()).add(
                    threaded.shape_of[id(node)]
                )
            return all(len(ids) == 1 for ids in classes.values()) and len(
                {threaded.shape_of[id(node)] for node in nodes}
            ) == len(classes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                threaded = SharedTables(cost)
                barrier = threading.Barrier(len(runs))

                def intern(tree):
                    barrier.wait(timeout=10)
                    threaded.intern(tree)

                workers = [
                    threading.Thread(target=intern, args=(run.tree,))
                    for run in runs
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=10)
                assert not any(worker.is_alive() for worker in workers)
                assert same_classes(threaded)
            threaded = SharedTables(cost)
            got = ThreadBackend(16).map(
                lambda pair: distance_only(
                    pair[0], pair[1], cost=cost, shared=threaded
                ),
                directed,
            )
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert same_classes(threaded)

    def test_mismatched_cost_model_refused(self):
        spec, runs = _corpus(2)
        shared = SharedTables(UnitCost())
        with pytest.raises(EditScriptError, match="cost model"):
            distance_only(
                runs[0], runs[1], cost=LengthCost(), shared=shared
            )

    def test_shared_supplies_the_default_cost(self):
        spec, runs = _corpus(2)
        cost = LengthCost()
        shared = SharedTables(cost)
        assert distance_only(
            runs[0], runs[1], shared=shared
        ) == distance_only(runs[0], runs[1], cost=cost)


class TestAlignment:
    def test_unaligned_default_still_checks(self):
        spec, runs = _corpus(2)
        other_spec = protein_annotation()
        from repro.workflow.run import WorkflowRun

        foreign = WorkflowRun(
            other_spec, runs[1].graph, name=runs[1].name
        )
        # Default path re-annotates; same distance either way.
        assert distance_only(
            runs[0], foreign, cost=UnitCost()
        ) == distance_only(runs[0], runs[1], cost=UnitCost())
