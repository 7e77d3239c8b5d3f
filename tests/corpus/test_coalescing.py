"""Service-level single-flight: K concurrent identical cold requests
elect one leader, perform one DP, and the followers coalesce.

Distances and edit scripts share one cold routine
(``DiffService._cold_batch``), so each behaviour here is checked for
both kinds.  The backend is wrapped so its batch dispatch *blocks*
until the test has observed every follower joining the flight — making
the assertions deterministic instead of a race the scheduler usually
(but not always) loses.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.backends.base import ExecutorBackend, SerialBackend
from repro.config import ReproConfig
from repro.corpus.service import DiffService
from repro.workflow.execution import ExecutionParams
from repro.workflow.real_workflows import protein_annotation
from repro.workspace import Workspace

SPEC = "PA"
VARIED = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


class GatedBackend(ExecutorBackend):
    """Serial execution that holds every batch until released.

    ``fail``, when given, is raised by the first released batch in
    place of its results.
    """

    name = "gated"

    def __init__(self, fail=None):
        super().__init__(jobs=1)
        self._inner = SerialBackend()
        self.release = threading.Event()
        self.dispatches = 0
        self.fail = fail

    def map(self, func, tasks):
        self.dispatches += 1
        assert self.release.wait(timeout=60), "batch never released"
        if self.fail is not None:
            error, self.fail = self.fail, None
            raise error
        return self._inner.map(func, tasks)


@pytest.fixture
def workspace(tmp_path):
    workspace = Workspace(tmp_path, ReproConfig(backend="serial"))
    workspace.register(protein_annotation())
    for seed in (1, 2, 3):
        workspace.generate_run(f"r{seed:02d}", params=VARIED, seed=seed)
    return workspace


def _await_waiters(service, expected: int) -> None:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if service._flights.waiters() >= expected:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"only {service._flights.waiters()} followers joined "
        f"(wanted {expected})"
    )


def test_concurrent_identical_distances_one_dp(workspace):
    service = workspace.service
    backend = GatedBackend()
    service.backend = backend
    k = 6
    values = []
    lock = threading.Lock()

    def ask():
        value = service.distance(SPEC, "r01", "r02")
        with lock:
            values.append(value)

    threads = [threading.Thread(target=ask) for _ in range(k)]
    for thread in threads:
        thread.start()
    # The leader is now blocked inside the backend; wait until every
    # follower has joined its flight, then let the batch run.
    _await_waiters(service, k - 1)
    backend.release.set()
    for thread in threads:
        thread.join(timeout=60)

    assert len(values) == k
    assert len(set(values)) == 1
    assert backend.dispatches == 1
    assert service.computed_pairs == 1
    assert service.coalesced_requests == k - 1
    assert service._dp_metric.value(kind="distance") == 1


def test_concurrent_identical_scripts_one_dp(workspace):
    service = workspace.service
    backend = GatedBackend()
    service.backend = backend
    k = 5
    outcomes = []
    lock = threading.Lock()

    def ask():
        record = service.edit_script(SPEC, "r02", "r03")
        with lock:
            outcomes.append((record.distance, list(record.operations)))

    threads = [threading.Thread(target=ask) for _ in range(k)]
    for thread in threads:
        thread.start()
    _await_waiters(service, k - 1)
    backend.release.set()
    for thread in threads:
        thread.join(timeout=60)

    assert len(outcomes) == k
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert backend.dispatches == 1
    assert service.computed_scripts == 1
    assert service.coalesced_requests == k - 1
    assert service._dp_metric.value(kind="script") == 1


def test_different_pairs_do_not_coalesce(workspace):
    service = workspace.service
    backend = GatedBackend()
    backend.release.set()  # no blocking needed here
    service.backend = backend

    service.distance(SPEC, "r01", "r02")
    service.distance(SPEC, "r01", "r03")
    assert service.computed_pairs == 2
    assert service.coalesced_requests == 0


#: One cold request of each kind, and the counter its DP advances.
ASK = {
    "distance": (
        lambda service: service.distance(SPEC, "r01", "r02"),
        "computed_pairs",
    ),
    "script": (
        lambda service: service.edit_script(SPEC, "r01", "r02"),
        "computed_scripts",
    ),
}


@pytest.mark.parametrize("kind", sorted(ASK))
def test_failed_batch_lands_every_flight(workspace, kind):
    """A leader whose batch raises lands its flight with that error:
    every follower raises it too, no flight stays pending, and the
    next call prices the pair afresh in one dispatch."""
    service = workspace.service
    error = RuntimeError(f"{kind} batch failed")
    backend = GatedBackend(fail=error)
    service.backend = backend
    ask, counter = ASK[kind]
    k = 4
    raised = []
    lock = threading.Lock()

    def call():
        try:
            ask(service)
        except RuntimeError as exc:
            with lock:
                raised.append(exc)

    threads = [threading.Thread(target=call) for _ in range(k)]
    for thread in threads:
        thread.start()
    _await_waiters(service, k - 1)
    (flight_key,) = service._flights._flights
    assert flight_key[0] == kind
    backend.release.set()
    for thread in threads:
        thread.join(timeout=60)

    assert len(raised) == k
    assert all(exc is error for exc in raised)
    assert backend.dispatches == 1
    assert service._flights.waiters() == 0
    leader, flight = service._flights.begin(flight_key)
    assert leader
    service._flights.finish(flight)
    assert service._dp_metric.value(kind=kind) == 0
    assert getattr(service, counter) == 0

    ask(service)
    assert backend.dispatches == 2
    assert service._dp_metric.value(kind=kind) == 1
    assert getattr(service, counter) == 1


def test_mixed_kinds_under_contention_price_each_key_once(workspace):
    """Eight threads (more than cores) interleave distance and script
    requests over every directed pair, with a tiny switch interval:
    every answer equals a serial oracle's, each directed script key is
    priced exactly once, each distance key at most once (a script in
    the canonical direction may seed it first), and no flight is left
    behind."""
    service = workspace.service
    names = ("r01", "r02", "r03")
    directed = [(a, b) for a in names for b in names if a != b]
    oracle = DiffService(service.store, persistent=False, backend="serial")
    expected_distance = {
        pair: oracle.distance(SPEC, *pair) for pair in directed
    }
    expected_script = {}
    for pair in directed:
        record = oracle.edit_script(SPEC, *pair)
        expected_script[pair] = (
            record.distance, [op.to_dict() for op in record.operations]
        )
    requests = [(kind, pair) for kind in ASK for pair in directed]
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    errors = []
    answers = []
    lock = threading.Lock()

    def hammer(worker: int) -> None:
        order = list(requests)
        random.Random(worker).shuffle(order)
        try:
            barrier.wait(timeout=30)
            for kind, pair in order:
                if kind == "distance":
                    value = service.distance(SPEC, *pair)
                else:
                    value = service.edit_script(SPEC, *pair)
                with lock:
                    answers.append((kind, pair, value))
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,))
        for i in range(threads_count)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == threads_count * len(requests)
    for kind, pair, value in answers:
        if kind == "distance":
            assert value == expected_distance[pair]
        else:
            assert (
                value.distance, [op.to_dict() for op in value.operations]
            ) == expected_script[pair]
    assert service.computed_scripts == len(directed)
    assert service._dp_metric.value(kind="script") == len(directed)
    assert service.computed_pairs <= len(directed) // 2
    assert service._flights._flights == {}
    assert service._flights.waiters() == 0
