"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage (``src/`` of the checkout on ``PYTHONPATH``)::

    python3 perfbench/harness/launcher.py TRACE_FILE serve STORE [flags]

Every target of :mod:`harness.spans` is wrapped, and each HTTP request
the server handles is one operation.  Operations start untraced.
``SIGUSR1`` starts alternating untraced and traced periods of
:data:`PERIOD` seconds; ``SIGUSR2`` ends the alternation.  When the
server stops (``SIGTERM``), the spans and the instants at which
tracing flipped are written to ``TRACE_FILE``.

Only the serving process is traced: the worker processes of
``--workers N`` run untraced.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import spans  # noqa: E402

#: Seconds per untraced or traced period.
PERIOD = 0.5

REQUEST_HANDLERS = (
    ("repro.service.app", "WorkspaceApp.handle"),
    ("repro.cluster.server", "_ClusterApp.handle"),
)


class Alternator:
    """Flips :attr:`Tracer.active` every :data:`PERIOD` seconds."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.stop = threading.Event()
        self.thread = None

    def start(self, *_):
        if self.thread is None:
            self.thread = threading.Thread(target=self._run, daemon=True)
            self.thread.start()

    def finish(self, *_):
        self.stop.set()

    def _run(self):
        while not self.stop.wait(PERIOD):
            self.tracer.set_active(not self.tracer.active)
        if self.tracer.active:
            self.tracer.set_active(False)


def main(argv) -> int:
    trace_path, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    for module_name, path in REQUEST_HANDLERS:
        owner, attr, original = spans.resolve(module_name, path)
        setattr(owner, attr, tracer.wrap_op(original, "request"))
    alternator = Alternator(tracer)
    signal.signal(signal.SIGUSR1, alternator.start)
    signal.signal(signal.SIGUSR2, alternator.finish)
    from repro.cli import main as serve

    try:
        return serve(serve_args)
    finally:
        alternator.finish()
        tracer.active = False
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
