"""Single-flight table: leader election, coalescing, abort semantics."""

import threading

import pytest

from repro.corpus.singleflight import SingleFlight
from repro.errors import ServiceUnavailableError


class TestLeaderElection:
    def test_first_caller_leads(self):
        table = SingleFlight()
        leader, flight = table.begin("k")
        assert leader is True
        assert "k" in table._flights
        table.finish(flight, value=42)
        assert table._flights == {}

    def test_second_caller_follows_same_flight(self):
        table = SingleFlight()
        _, lead_flight = table.begin("k")
        leader, follow_flight = table.begin("k")
        assert leader is False
        assert follow_flight is lead_flight
        assert follow_flight.waiters == 1
        table.finish(lead_flight, value="v")

    def test_distinct_keys_get_distinct_flights(self):
        table = SingleFlight()
        _, a = table.begin("a")
        _, b = table.begin("b")
        assert a is not b
        assert set(table._flights) == {"a", "b"}
        table.finish(a)
        table.finish(b)

    def test_key_reusable_after_finish(self):
        table = SingleFlight()
        _, first = table.begin("k")
        table.finish(first, value=1)
        leader, second = table.begin("k")
        assert leader is True
        assert second is not first
        table.finish(second, value=2)
        assert second.result() == 2


class TestResultPropagation:
    def test_followers_receive_leader_value(self):
        table = SingleFlight()
        _, flight = table.begin("k")
        results = []
        barrier = threading.Barrier(4)

        def follow():
            _, shared = table.begin("k")
            barrier.wait()
            results.append(shared.result(timeout=5))

        threads = [threading.Thread(target=follow) for _ in range(3)]
        for thread in threads:
            thread.start()
        barrier.wait()
        table.finish(flight, value="landed")
        for thread in threads:
            thread.join(timeout=5)
        assert results == ["landed"] * 3

    def test_leader_error_propagates_to_followers(self):
        table = SingleFlight()
        _, flight = table.begin("k")
        table.finish(flight, error=ValueError("dp exploded"))
        with pytest.raises(ValueError, match="dp exploded"):
            flight.result(timeout=1)

    def test_finish_is_idempotent_first_outcome_wins(self):
        table = SingleFlight()
        _, flight = table.begin("k")
        table.finish(flight, value="first")
        table.finish(flight, value="second")
        table.finish(flight, error=RuntimeError("too late"))
        assert flight.result(timeout=1) == "first"

    def test_result_timeout(self):
        table = SingleFlight()
        _, flight = table.begin("k")
        with pytest.raises(TimeoutError):
            flight.result(timeout=0.05)
        table.finish(flight)


class TestAbort:
    def test_abort_fails_all_pending_flights(self):
        table = SingleFlight()
        _, a = table.begin("a")
        _, b = table.begin("b")
        error = ServiceUnavailableError("draining")
        assert table.abort(error) == 2
        assert table._flights == {}
        for flight in (a, b):
            with pytest.raises(ServiceUnavailableError):
                flight.result(timeout=1)

    def test_abort_wakes_blocked_followers(self):
        table = SingleFlight()
        table.begin("k")
        outcome = []

        def follow():
            _, shared = table.begin("k")
            try:
                outcome.append(("value", shared.result(timeout=5)))
            except ServiceUnavailableError as exc:
                outcome.append(("error", type(exc).__name__))

        thread = threading.Thread(target=follow)
        thread.start()
        deadline_spins = 100
        while table.waiters() == 0 and deadline_spins:
            deadline_spins -= 1
            threading.Event().wait(0.01)
        table.abort(ServiceUnavailableError("draining"))
        thread.join(timeout=5)
        assert outcome == [("error", "ServiceUnavailableError")]

    def test_finish_after_abort_keeps_abort_outcome(self):
        table = SingleFlight()
        _, flight = table.begin("k")
        table.abort(ServiceUnavailableError("draining"))
        table.finish(flight, value="late leader")
        with pytest.raises(ServiceUnavailableError):
            flight.result(timeout=1)

    def test_abort_with_nothing_pending(self):
        table = SingleFlight()
        assert table.abort(ServiceUnavailableError("draining")) == 0


def test_waiters_counts_followers():
    table = SingleFlight()
    _, flight = table.begin("k")
    assert table.waiters() == 0
    table.begin("k")
    table.begin("k")
    assert table.waiters() == 2
    table.finish(flight)
    assert table.waiters() == 0
