"""The family view: O(N) medoid and outliers, bit-identical to the matrix.

A :class:`~repro.corpus.service.DiffService` keeps, per (specification,
cost model), each run's distance sum to the rest of its family.  These
tests pin the contract down:

* after any sequence of ``add_run`` calls and streamed closes,
  ``medoid()`` and ``outliers(top)`` equal
  :func:`repro.corpus.analytics.medoid`/:func:`~repro.corpus.analytics.
  outliers` over a fresh full matrix, bit for bit, tie-break included —
  under ``UnitCost`` and under a cost model with non-integer distances;
* a run added by another workspace, or a run file rewritten behind the
  service's back, drops the view instead of serving it stale;
* a family without a view rebuilds it with one matrix batch, run
  outside the service monitor, so a warm read never queues behind it.
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ReproConfig, Workspace
from repro.corpus.analytics import medoid as medoid_of
from repro.corpus.analytics import outliers as outliers_of
from repro.corpus.fingerprint import cost_model_key
from repro.corpus.service import DiffService
from repro.costs.standard import PowerCost, UnitCost
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.specification import WorkflowSpecification

from tests.corpus.conftest import VARIED, populate_store

COSTS = (UnitCost(), PowerCost(0.5))


def _oracle(root, cost, top):
    """Medoid and outliers over a fresh service's full, cold matrix."""
    fresh = DiffService(root, persistent=False)
    names = fresh.runs("PA")
    matrix = fresh.distance_matrix("PA", cost=cost)
    return medoid_of(matrix, names=names), outliers_of(
        matrix, names=names, top=top
    )


def _stream(ws, run):
    """Stream ``run``'s graph into ``ws`` up to ``run_close``."""
    with ws.stream("PA", run.name) as session:
        labels = run.graph.labels()
        for node in run.graph.nodes():
            session.activity(str(node), labels[node])
        for src, dst, _key in run.graph.edges():
            session.edge(str(src), str(dst))
        session.close_run()


def _view_is_valid(ws, cost) -> bool:
    service = ws.service
    names = service.runs("PA")
    fingerprints = service.fingerprints("PA", names)
    return (
        service._view("PA", cost_model_key(cost), names, fingerprints)
        is not None
    )


def _assert_answers(ws, root, cost, top):
    expected_medoid, expected_outliers = _oracle(root, cost, top)
    assert ws.medoid(cost=cost) == expected_medoid
    assert ws.outliers(cost=cost, top=top) == expected_outliers


#: One step of a family's growth: a fresh run added or streamed, or a
#: ≡-duplicate of an earlier addition (a forced equal-mean tie).
STEPS = st.sampled_from(["add", "stream", "duplicate"])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    steps=st.lists(STEPS, min_size=1, max_size=5),
    cost_index=st.sampled_from(range(len(COSTS))),
    top=st.integers(min_value=1, max_value=4),
)
def test_view_answers_equal_the_full_matrix(
    tmp_path_factory, steps, cost_index, top
):
    cost = COSTS[cost_index]
    root = tmp_path_factory.mktemp("view")
    populate_store(root, 4)
    ws = Workspace(root, ReproConfig(backend="serial", cost=cost))
    ws.matrix()  # a full-family matrix records the view
    spec = ws.specification("PA")
    added = []
    for position, step in enumerate(steps):
        if step == "duplicate" and added:
            # The same seed gives the same graph; the name sorts right
            # after the original, so every pair keeps its direction.
            name, seed = added[position % len(added)]
            run = execute_workflow(
                spec, VARIED, seed=seed, name=f"{name}d{position}"
            )
            added.append((run.name, seed))
            ws.add_run(run)
        else:
            seed = 40 + position
            run = execute_workflow(
                spec, VARIED, seed=seed, name=f"s{position:02d}"
            )
            added.append((run.name, seed))
            if step == "stream":
                _stream(ws, run)
            else:
                ws.add_run(run)
        assert _view_is_valid(ws, cost)
        _assert_answers(ws, root, cost, top)

    # Another workspace on the same store adds a run: the view no
    # longer covers the listing, so it must not answer.
    other = Workspace(root, ReproConfig(backend="serial", cost=cost))
    other.add_run(execute_workflow(spec, VARIED, seed=90, name="x90"))
    assert not _view_is_valid(ws, cost)
    _assert_answers(ws, root, cost, top)

    # A run file rewritten with other content: its fingerprint moves.
    other.store.save_run(execute_workflow(spec, VARIED, seed=91, name="r02"))
    assert not _view_is_valid(ws, cost)
    _assert_answers(ws, root, cost, top)


def test_overwrite_through_add_run_drops_the_view(tmp_path):
    populate_store(tmp_path, 5)
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    ws.matrix()
    assert _view_is_valid(ws, UnitCost())
    spec = ws.specification("PA")
    ws.add_run(execute_workflow(spec, VARIED, seed=77, name="r03"))
    assert ws.service._views == {}
    _assert_answers(ws, tmp_path, UnitCost(), 2)


def test_reregistered_spec_is_never_answered_from_the_old_view(tmp_path):
    """A view recorded under one content of a specification never
    answers for another: its fingerprints embed the old digest, so a
    family re-registered with other content and regenerated under the
    same run names rebuilds its view instead of serving the old one."""
    populate_store(tmp_path, 4)
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    ws.matrix()
    key = ("PA", cost_model_key(UnitCost()))
    old = ws.service._views[key]
    ws.register(WorkflowSpecification(protein_annotation().graph, name="PA"))
    for seed in range(1, 5):
        ws.generate_run(f"r{seed:02d}", params=VARIED, seed=seed + 10)
    assert not _view_is_valid(ws, UnitCost())
    _assert_answers(ws, tmp_path, UnitCost(), 2)
    assert ws.service._views[key] is not old
    assert ws.service._views[key].fingerprints != old.fingerprints


def test_medoid_without_a_view_records_one(tmp_path):
    store = populate_store(tmp_path, 5)
    warm = DiffService(store)
    warm.distance_matrix("PA")
    # A new service over the warm database has no view yet.
    service = DiffService(store)
    assert service._views == {}
    assert service.medoid("PA") == medoid_of(
        warm.distance_matrix("PA"), names=warm.runs("PA")
    )
    assert ("PA", cost_model_key(UnitCost())) in service._views
    assert service.computed_pairs == 0


def test_view_rebuild_does_not_hold_the_monitor(tmp_path, monkeypatch):
    """A warm distance returns while a medoid's rebuild batch is held."""
    store = populate_store(tmp_path, 5)
    service = DiffService(store, persistent=False)
    warm = service.distance("PA", "r01", "r02")

    batching = threading.Event()
    release = threading.Event()
    real_map = service.backend.map

    def gated_map(func, tasks):
        batching.set()
        assert release.wait(10)
        return real_map(func, tasks)

    monkeypatch.setattr(service.backend, "map", gated_map)
    outcome = {}
    medoid_thread = threading.Thread(
        target=lambda: outcome.setdefault("medoid", service.medoid("PA"))
    )
    reader = threading.Thread(
        target=lambda: outcome.setdefault(
            "distance", service.distance("PA", "r01", "r02")
        )
    )
    medoid_thread.start()
    try:
        assert batching.wait(10)
        reader.start()
        reader.join(5)
        finished_first = not reader.is_alive()
    finally:
        release.set()
        medoid_thread.join(10)
    reader.join(10)
    assert finished_first, "warm distance waited on the medoid's batch"
    assert not medoid_thread.is_alive() and not reader.is_alive()
    assert outcome["distance"] == warm
    assert outcome["medoid"] == _oracle(tmp_path, UnitCost(), 1)[0]
    assert ("PA", cost_model_key(UnitCost())) in service._views


def test_concurrent_adds_and_reads_never_serve_a_stale_view(tmp_path):
    """Writers and analytics race on one family (more threads than
    cores, a short switch interval): every answer, and the view left
    behind, agree with the full matrix."""
    import sys

    populate_store(tmp_path, 5)
    ws = Workspace(tmp_path, ReproConfig(backend="serial"))
    ws.matrix()
    spec = ws.specification("PA")
    errors = []

    def writer(offset):
        try:
            for step in range(3):
                seed = 100 + 10 * offset + step
                ws.add_run(
                    execute_workflow(spec, VARIED, seed=seed, name=f"w{seed}")
                )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader():
        try:
            for _ in range(6):
                ws.medoid()
                ws.outliers(top=2)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(2)
        ]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(ws.runs()) == 11
    _assert_answers(ws, tmp_path, UnitCost(), 3)
    view = ws.service._views.get(("PA", cost_model_key(UnitCost())))
    if view is not None and _view_is_valid(ws, UnitCost()):
        matrix = DiffService(tmp_path, persistent=False).distance_matrix("PA")
        for name in view.names:
            exact = sum(
                value for pair, value in matrix.items() if name in pair
            )
            assert view.sums[name] == exact  # UnitCost sums are exact
