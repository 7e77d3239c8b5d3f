"""WorkerSupervisor restarts every dead worker together.

The watch loop runs one round over fake processes: it must start each
dead worker's replacement before it waits for the first readiness
report, so workers that died together come back together rather than
one readiness wait (about a second) after another.
"""

import json

from repro import ReproConfig
from repro.cluster.supervisor import MEMBERS_FILE, WorkerSupervisor


class _Process:
    def __init__(self, pid, alive):
        self.pid = pid
        self.alive = alive
        self.exitcode = None if alive else -9

    def is_alive(self):
        return self.alive


class _OneRound:
    """A stop event that lets the watch loop run exactly one round."""

    def __init__(self):
        self.rounds = 0

    def wait(self, timeout):
        self.rounds += 1
        return self.rounds > 1

    def is_set(self):
        return False


def test_both_spawns_come_before_the_first_readiness_wait(tmp_path):
    supervisor = WorkerSupervisor(
        tmp_path, ReproConfig(backend="serial"), count=2,
        runtime=str(tmp_path),
    )
    supervisor._handles = {0: _Process(10, False), 1: _Process(11, False)}
    supervisor._stopping = _OneRound()
    calls = []

    def spawn(index):
        calls.append(("spawn", index))
        return _Process(20 + index, True), None

    def await_ready(index, process, conn):
        calls.append(("ready", index))
        return process

    supervisor._spawn = spawn
    supervisor._await_ready = await_ready
    supervisor._watch()
    assert calls == [("spawn", 0), ("spawn", 1), ("ready", 0), ("ready", 1)]
    assert {i: p.pid for i, p in supervisor._handles.items()} == {0: 20, 1: 21}
    members = json.loads((tmp_path / MEMBERS_FILE).read_text())
    assert members["restarts"] == 2
    assert [m["pid"] for m in members["members"]] == [20, 21]
