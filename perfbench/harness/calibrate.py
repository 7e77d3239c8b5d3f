"""A machine-speed probe that runs beside the measured phase.

On a shared virtual machine the speed of the host drifts by tens of
percent over minutes, and that drift moves every timing of a run
together.  The probe measures it from a separate process, so nothing
the program does to its own heap slows the probe: every
:data:`INTERVAL` seconds it times a fixed piece of pure-Python work (an
object tree, JSON, dictionaries — the kind of work ``repro`` does),
about 3 % of one core, until its standard input closes; then it prints
``[instant, wall ms, CPU ms]`` per sample as JSON.

The benchmark keeps the samples taken during the measured phase and
scales its wall-clock timings by ``REFERENCE_MS / median(wall ms)`` and
its CPU times by ``REFERENCE_MS / median(CPU ms)``, so they read as if
taken on a machine that runs the probe's work in :data:`REFERENCE_MS`.
The unscaled values are kept in the stamped result copy under
``.perfbench/results/``.

Usage: ``python3 perfbench/harness/calibrate.py`` (stdin kept open).
"""

from __future__ import annotations

import json
import random
import select
import subprocess
import sys
import time

#: Seconds between two probe samples.
INTERVAL = 0.2
#: Probe time (ms) of the reference machine the scaled timings assume.
REFERENCE_MS = 6.0

_DOCUMENT = json.dumps(
    {
        "entity": {f"e{i}": {"prov:label": f"file-{i}"} for i in range(150)},
        "activity": {f"a{i}": {"prov:label": f"step-{i % 9}"} for i in range(150)},
        "used": {f"u{i}": {"prov:activity": f"a{i}", "prov:entity": f"e{i}"}
                 for i in range(150)},
    }
)


class _Node:
    def __init__(self, kind, children=(), label=""):
        self.kind = kind
        self.children = list(children)
        self.label = label


def _tree(depth, rng):
    if depth == 0:
        return _Node("Q", label=str(rng.random()))
    return _Node(rng.choice("SPFL"), [_tree(depth - 1, rng) for _ in range(3)])


def _walk(node):
    return hash((node.kind, node.label)) ^ sum(_walk(c) for c in node.children)


def probe_once():
    """One piece of work: ``[start instant, wall ms, CPU ms]``."""
    started, cpu = time.perf_counter(), time.process_time()
    _walk(_tree(6, random.Random(7)))
    json.loads(_DOCUMENT)
    table = {str(i): (i, [i]) for i in range(2000)}
    sorted(table.items(), key=lambda item: item[1][0] % 13)
    return [
        started,
        (time.perf_counter() - started) * 1e3,
        (time.process_time() - cpu) * 1e3,
    ]


def main() -> int:
    for _ in range(3):
        probe_once()
    samples = []
    while True:
        samples.append(probe_once())
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL)
        if readable and not sys.stdin.read(1):
            break
    print(json.dumps(samples))
    return 0


class Probe:
    """Runs the probe process for the lifetime of a ``with`` block."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples = []
        return self

    def __exit__(self, *exc) -> bool:
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)
        self.samples = json.loads(out) if out.strip() else []
        return False

    def factors(self, window) -> tuple:
        """``(wall factor, CPU factor)`` from the samples that started
        inside ``window`` (all samples when none did)."""
        low, high = window
        inside = [s for s in self.samples if low <= s[0] <= high]
        inside = inside or self.samples
        if not inside:
            return 1.0, 1.0
        return tuple(
            REFERENCE_MS / sorted(s[column] for s in inside)[len(inside) // 2]
            for column in (1, 2)
        )


if __name__ == "__main__":
    sys.exit(main())
