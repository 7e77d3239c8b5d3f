"""Keyed single-flight coalescing for identical in-flight computations.

When K threads concurrently need the same expensive result (the same
cold ``GET /diff/{a}/{b}``, keyed on canonical fingerprints + cost
key), exactly one of them — the *leader* — performs the computation;
the other K-1 — *followers* — block on the leader's flight and receive
the same value.  The alternative (each thread noticing the cache miss
independently and computing its own copy) wastes K-1 DPs and, worse,
serialises them behind whatever lock guards the cache.

The table's one user is :class:`~repro.corpus.service.DiffService`,
whose cold-batch routine is the only place that begins flights.  A
served cluster (``repro serve --workers N``) has one table per worker
and none across them, so K identical cold diffs cost at most one DP
per worker.

Deadlock discipline: a thread that leads several flights must finish
(or fail) **all** of them before waiting on any flight it follows.
``DiffService`` honours this by batching every key it leads into one
backend dispatch, publishing all results, and only then waiting on
followed flights.  Flights are resolved outside any service lock, so a
follower never blocks a leader's publish.

``abort`` exists for graceful drain: a stopping server fails every
pending flight with :class:`~repro.errors.ServiceUnavailableError`, so
followers receive a deterministic 503 instead of hanging past the
drain deadline.
"""

import threading
from typing import Any, Dict, Optional, Tuple

__all__ = ["Flight", "SingleFlight"]


class Flight:
    """One in-flight computation: an event plus its eventual outcome.

    Followers wait on :attr:`done`; the leader fills in exactly one of
    :attr:`value` / :attr:`error` via :meth:`SingleFlight.finish`.
    """

    __slots__ = ("key", "done", "value", "error", "waiters")

    def __init__(self, key: Any):
        self.key = key
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        #: Follower count, maintained under the table lock — purely
        #: observational (drain logging), never used for control flow.
        self.waiters = 0

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the flight lands, then return or raise.

        Raises :class:`TimeoutError` if the leader has not finished
        within ``timeout`` seconds (``None`` waits forever).
        """
        if not self.done.wait(timeout):
            raise TimeoutError(
                f"single-flight wait timed out for key {self.key!r}"
            )
        if self.error is not None:
            raise self.error
        return self.value


class SingleFlight:
    """A keyed table of in-flight computations.

    Keys must be hashable and *content-derived* (fingerprints + cost
    key, never object identity), so two requests for the same logical
    work always collide.  The table never stores finished results —
    it is not a cache; the caller's cache is consulted first and a
    finished flight's value flows to followers through the
    :class:`Flight` object itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[Any, Flight] = {}

    def begin(self, key: Any) -> Tuple[bool, Flight]:
        """Join or start the flight for ``key``.

        Returns ``(leader, flight)``.  The leader **must** eventually
        call :meth:`finish` with this flight — on success and on
        failure both — or followers hang until ``abort``.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                return False, flight
            flight = Flight(key)
            self._flights[key] = flight
            return True, flight

    def finish(
        self,
        flight: Flight,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Land a flight: publish its outcome and wake all followers.

        Idempotent — a flight already landed (e.g. by ``abort`` racing
        a slow leader) keeps its first outcome.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            if flight.done.is_set():
                return
            flight.value = value
            flight.error = error
            flight.done.set()

    def abort(self, error: BaseException) -> int:
        """Fail every pending flight with ``error``; return the count.

        Used by graceful drain: followers blocked in
        :meth:`Flight.result` raise immediately instead of waiting out
        leaders that will never publish.
        """
        with self._lock:
            pending = list(self._flights.values())
            self._flights.clear()
        for flight in pending:
            if not flight.done.is_set():
                flight.error = error
                flight.done.set()
        return len(pending)

    def waiters(self) -> int:
        """Total followers currently blocked across all flights."""
        with self._lock:
            return sum(f.waiters for f in self._flights.values())
