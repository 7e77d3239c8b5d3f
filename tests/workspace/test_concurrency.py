"""Multi-threaded stress: one workspace, many hammering threads.

The service stack (DiffService monitor, TwoTierCache, ScriptIndex,
FingerprintIndex locks) must deliver three guarantees under concurrent
``diff``/``matrix``/``query`` load:

1. **No corruption** — every thread sees complete, well-formed results
   and no exceptions escape;
2. **No duplicate DP computations beyond cache misses** — each distinct
   distance key and each distinct directed script key is computed at
   most once, however many threads race for it;
3. **Bit-identical results vs serial** — everything returned
   concurrently equals what an independent, cache-less serial service
   computes from the same store.
"""

import sys
import threading

import pytest

from repro.api_types import QueryFilter
from repro.config import ReproConfig
from repro.corpus.service import DiffService
from repro.query.predicates import Q
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

THREADS = 8
ROUNDS = 3


@pytest.fixture
def contended_ws(tmp_path, varied_params) -> Workspace:
    """A fresh 4-run corpus every thread will hammer concurrently."""
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    ws.register(protein_annotation())
    for seed in range(1, 5):
        ws.generate_run(f"r{seed:02d}", params=varied_params, seed=seed)
    return ws


def test_concurrent_hammering_is_safe_and_deduplicated(contended_ws):
    ws = contended_ws
    names = ws.runs()
    listing_pairs = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    ]

    # Ground truth from an independent, ephemeral, serial service: no
    # cache sharing with the workspace under test.
    reference = DiffService(
        ws.store, persistent=False, backend="serial"
    )
    expected_matrix = reference.distance_matrix("PA")
    expected_scripts = {
        pair: reference.edit_script("PA", *pair)
        for pair in listing_pairs
    }

    errors = []
    collected = []
    barrier = threading.Barrier(THREADS)

    def hammer(worker: int) -> None:
        try:
            barrier.wait(timeout=30)  # maximise contention
            for round_no in range(ROUNDS):
                matrix = ws.matrix()
                pair = listing_pairs[
                    (worker + round_no) % len(listing_pairs)
                ]
                outcome = ws.diff(*pair)
                docs = ws.query(Q.op_kind("path-deletion"))
                page = ws.query_page(
                    QueryFilter(min_cost=1.0), limit=3
                )
                collected.append((dict(matrix), pair, outcome, page))
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,))
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert len(collected) == THREADS * ROUNDS

    # 2. No duplicate DPs beyond misses: at most one computation per
    # distinct undirected distance key / directed script key — across
    # all eight threads and three rounds.
    assert ws.service.computed_pairs <= len(listing_pairs)
    assert ws.service.computed_scripts <= len(listing_pairs)

    # 3. Bit-identical vs serial, for every thread's every round.
    for matrix, pair, outcome, page in collected:
        assert matrix == expected_matrix
        record = expected_scripts[pair]
        assert outcome.distance == record.distance
        assert [op.to_dict() for op in outcome.operations] == [
            op.to_dict() for op in record.operations
        ]
        assert page.total_matches == sum(
            1
            for r in expected_scripts.values()
            if r.distance >= 1.0
        )


def test_concurrent_add_runs_stay_incremental(
    tmp_path, varied_params
):
    """Concurrent writers: each add_run prices only its own new pairs,
    and the final corpus is consistent and fully queryable."""
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    spec = protein_annotation()
    ws.register(spec)
    ws.generate_run("base", params=varied_params, seed=100)

    from repro.workflow.execution import execute_workflow

    newcomers = [
        execute_workflow(
            ws.specification("PA"),
            varied_params,
            seed=200 + i,
            name=f"n{i}",
        )
        for i in range(4)
    ]
    errors = []

    def add(run):
        try:
            distances = ws.add_run(run)
            assert all(value >= 0.0 for value in distances.values())
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=add, args=(run,)) for run in newcomers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert set(ws.runs()) == {"base", "n0", "n1", "n2", "n3"}

    # The full matrix now answers consistently and a fresh serial
    # workspace over the same store agrees bit-for-bit.
    concurrent_matrix = dict(ws.matrix())
    fresh = DiffService(ws.store, persistent=False, backend="serial")
    assert concurrent_matrix == fresh.distance_matrix("PA")


def test_concurrent_imports_of_two_plans_share_one_spec_each(
    tmp_path, varied_params
):
    """Threads importing runs of two plans race on the spec registry and
    the spec files: every run lands once, and each plan's runs share
    one specification object."""
    import uuid

    from repro.interchange.convert import export_run_document
    from repro.workflow.execution import execute_workflow
    from repro.workflow.specification import WorkflowSpecification

    base = protein_annotation()
    plans = [
        WorkflowSpecification(
            base.graph,
            forks=[sorted(a.edges) for a in base.fork_elements],
            loops=[sorted(a.edges) for a in base.loop_elements],
            name=f"plan{index}-{uuid.uuid4().hex[:12]}",
        )
        for index in range(2)
    ]
    documents = []
    for seed in range(24):
        for plan in plans:
            run = execute_workflow(plan, varied_params, seed=seed)
            document = export_run_document(run)
            documents.append((plan.name, f"r{seed:02d}", document))
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    barrier = threading.Barrier(THREADS)
    errors = []
    specs = {plan.name: set() for plan in plans}

    def importer(worker: int) -> None:
        try:
            barrier.wait(timeout=30)
            for spec_name, run_name, document in documents[worker::THREADS]:
                result = ws.import_prov(document, name=run_name)
                specs[spec_name].add(result.spec)
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=importer, args=(i,)) for i in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the racing lookups finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    expected = sorted(f"r{seed:02d}" for seed in range(24))
    for plan in plans:
        assert ws.runs(spec=plan.name) == expected
        (shared,) = specs[plan.name]
        assert ws.specification(plan.name) is shared
