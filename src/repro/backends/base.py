"""The :class:`ExecutorBackend` contract and its two implementations.

A backend executes a *batch*: a function applied to a sequence of
tasks, returning results in input order.  The contract is
deliberately tiny — ``map(func, tasks)`` — so the corpus layer can
route every CPU-heavy batch (distance sweeps, batch script generation)
through one seam.  Both built-ins run in-process, so ``func`` may be
any callable (the corpus layer passes closures that load runs inside
the workers) and tasks may be any objects.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")
R = TypeVar("R")

#: The names :func:`make_backend` (and the CLI ``--backend`` flag) accept.
BACKEND_NAMES = ("serial", "thread")


def _default_jobs() -> int:
    """Worker count when the caller does not pin one (>= 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ExecutorBackend(abc.ABC):
    """Executes batches of independent tasks; results keep input order.

    Attributes
    ----------
    name:
        Stable identifier (``"serial"`` or ``"thread"`` for the
        built-ins); benchmarks and the CLI key on it.
    jobs:
        Degree of parallelism, ``None`` meaning "pick for the machine".
    """

    name: str = "abstract"

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise ReproError(f"backend jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    @property
    def effective_jobs(self) -> int:
        """The concrete worker count this backend will use."""
        return self.jobs if self.jobs is not None else _default_jobs()

    @abc.abstractmethod
    def map(
        self, func: Callable[[T], R], tasks: Sequence[T]
    ) -> List[R]:
        """Apply ``func`` to every task; return results in input order.

        A task that raises propagates the exception to the caller (the
        batch is abandoned) — corpus invariants never survive partially
        applied batches silently.
        """

    def describe(self) -> str:
        """Human-readable identity, e.g. ``thread(jobs=8)``."""
        jobs = self.jobs if self.jobs is not None else "auto"
        return f"{self.name}(jobs={jobs})"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(jobs={self.jobs!r})"


class SerialBackend(ExecutorBackend):
    """In-process, sequential execution — the reference backend."""

    name = "serial"

    @property
    def effective_jobs(self) -> int:
        """Always 1: serial execution has no parallelism to size for
        (callers batch work by this — e.g. streaming chunk sizes)."""
        return 1

    def map(self, func, tasks):
        """Run every task inline, in order."""
        return [func(task) for task in tasks]


class ThreadBackend(ExecutorBackend):
    """A thread pool: overlaps the I/O share of a batch under the GIL."""

    name = "thread"

    def map(self, func, tasks):
        """Fan the batch over :attr:`effective_jobs` threads (inline
        when trivial)."""
        tasks = list(tasks)
        width = self.effective_jobs
        if len(tasks) <= 1 or width == 1:
            return [func(task) for task in tasks]
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=width
        ) as pool:
            return list(pool.map(func, tasks))


def make_backend(
    backend, jobs: Optional[int] = None
) -> ExecutorBackend:
    """Resolve a backend spec — a name or an instance — to an instance.

    ``backend`` may be one of :data:`BACKEND_NAMES` or an
    :class:`ExecutorBackend` (returned as-is; ``jobs`` must then be
    ``None`` — the instance already carries its own width).
    """
    if isinstance(backend, ExecutorBackend):
        if jobs is not None and jobs != backend.jobs:
            raise ReproError(
                "jobs= conflicts with an already-constructed backend "
                f"({backend.describe()}); set jobs on the backend"
            )
        return backend
    table = {
        "serial": SerialBackend,
        "thread": ThreadBackend,
    }
    try:
        factory = table[str(backend).strip().lower()]
    except KeyError:
        raise ReproError(
            f"unknown backend {backend!r} "
            f"(expected one of {', '.join(BACKEND_NAMES)})"
        ) from None
    return factory(jobs)
