"""Process counters read from ``/proc``, never from the program itself.

Peak resident memory (``VmHWM``), bytes handed to ``write(2)``
(``wchar``) and CPU time (``utime + stime``) of the processes that run
the program, as deltas around a measured phase.  Writing ``5`` to
``/proc/<pid>/clear_refs`` resets ``VmHWM``, so the peak covers the
measured phase alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, List

_TICKS = os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_peak(pid: int) -> bool:
    """Restart ``VmHWM`` from the current RSS; False if refused."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def wchar(pid: int) -> int:
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # The command name may hold spaces; fields resume after its ")".
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


@dataclass
class Sample:
    cpu_s: float
    wchar: int


def sample(pids: Iterable[int]) -> Sample:
    pids = list(pids)
    return Sample(
        cpu_s=sum(cpu_seconds(pid) for pid in pids),
        wchar=sum(wchar(pid) for pid in pids),
    )


class Phase:
    """Counter deltas and peak memory of ``pids`` over one phase, and
    the phase's ``perf_counter`` window."""

    def __init__(self, pids: List[int]):
        self.pids = list(pids)
        self.start = None
        self.end = None

    def __enter__(self) -> "Phase":
        for pid in self.pids:
            reset_peak(pid)
        self.start = sample(self.pids)
        self.began = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.window = (self.began, time.perf_counter())
        self.end = sample(self.pids)
        self.peak_mb = sum(peak_rss_kb(pid) for pid in self.pids) / 1024.0
        return False

    @property
    def cpu_s(self) -> float:
        return self.end.cpu_s - self.start.cpu_s

    @property
    def bytes_written(self) -> int:
        return self.end.wchar - self.start.wchar
