"""Unit tests for the execution backends and their factory."""

import threading
import time

import pytest

import repro.backends
from repro.backends import (
    BACKEND_NAMES,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.config import ReproConfig
from repro.errors import ReproError

ALL_BACKENDS = [SerialBackend(), ThreadBackend(2)]


def _square(x):
    return x * x


class TestMapContract:
    @pytest.mark.parametrize(
        "backend", ALL_BACKENDS, ids=[b.name for b in ALL_BACKENDS]
    )
    def test_preserves_input_order(self, backend):
        assert backend.map(_square, [3, 1, 2, 5]) == [9, 1, 4, 25]

    @pytest.mark.parametrize(
        "backend", ALL_BACKENDS, ids=[b.name for b in ALL_BACKENDS]
    )
    def test_empty_batch(self, backend):
        assert backend.map(_square, []) == []

    def test_serial_and_thread_accept_closures(self):
        offset = 10
        for backend in (SerialBackend(), ThreadBackend(2)):
            assert backend.map(lambda x: x + offset, [1, 2]) == [11, 12]

    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError("deliberate")

        for backend in (SerialBackend(), ThreadBackend(2)):
            with pytest.raises(ValueError):
                backend.map(boom, [1])

    def test_single_item_runs_inline_on_thread_backend(self):
        """A 1-task batch (or jobs=1) never pays pool startup."""
        sentinel = object()
        assert ThreadBackend(8).map(lambda x: x, [sentinel])[0] is sentinel
        assert ThreadBackend(1).map(lambda x: x, [sentinel, sentinel]) == [
            sentinel,
            sentinel,
        ]


class TestFactory:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_names_resolve(self, name):
        backend = make_backend(name, jobs=3)
        assert backend.name == name
        assert backend.jobs == 3

    def test_case_insensitive(self):
        assert make_backend(" Serial ").name == "serial"

    def test_instance_passes_through(self):
        backend = ThreadBackend(4)
        assert make_backend(backend) is backend
        assert make_backend(backend, jobs=4) is backend

    def test_instance_with_conflicting_jobs_refused(self):
        with pytest.raises(ReproError, match="conflicts"):
            make_backend(ThreadBackend(4), jobs=2)

    def test_unknown_name_refused(self):
        with pytest.raises(ReproError, match="unknown backend"):
            make_backend("gpu")

    def test_invalid_jobs_refused(self):
        with pytest.raises(ReproError, match=">= 1"):
            SerialBackend(0)

    def test_describe_mentions_name_and_jobs(self):
        assert ThreadBackend(2).describe() == "thread(jobs=2)"
        assert SerialBackend().describe() == "serial(jobs=auto)"

    def test_effective_jobs_positive(self):
        assert SerialBackend().effective_jobs == 1  # never parallel
        assert ThreadBackend(5).effective_jobs == 5
        assert ThreadBackend().effective_jobs >= 1


class TestThreadWidth:
    """A thread backend runs exactly :attr:`effective_jobs` threads,
    the width ``Workspace.diff_many`` sizes its chunks by."""

    @pytest.mark.parametrize("jobs", [None, 1, 3])
    def test_pool_size_is_effective_jobs(self, jobs):
        backend = ThreadBackend(jobs)

        def sleeper(_):
            time.sleep(0.005)
            return threading.get_ident()

        tasks = range(8 * backend.effective_jobs)
        assert len(set(backend.map(sleeper, tasks))) == backend.effective_jobs


class TestTwoBackends:
    """``serial`` and ``thread`` are the only backends; ``process`` is
    refused through the ordinary unknown-backend paths."""

    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "thread")
        assert not hasattr(repro.backends, "ProcessBackend")

    def test_make_backend_refuses_process(self):
        with pytest.raises(ReproError, match="serial, thread"):
            make_backend("process")

    def test_config_refuses_process(self):
        with pytest.raises(ReproError, match="serial, thread"):
            ReproConfig(backend="process")

    def test_environment_refuses_process(self):
        with pytest.raises(ReproError, match="serial, thread"):
            ReproConfig.from_env(env={"REPRO_BACKEND": "process"})
