"""Span tracing around calls into the ``repro`` layers, from outside.

The benchmark never edits the program: :func:`install` swaps each
target function (a module-level function or a class method) for a
wrapper wherever a loaded ``repro`` module holds a reference to it.
A wrapper outside a traced operation is one dictionary lookup and a
call; inside one, every call records a span.

A span is ``(id, parent, op, thread, name, start, end)``: ``parent`` is
the enclosing span (on the same thread, or — for tasks a thread
backend runs for a caller — the caller's span on another thread), and
``op`` is the operation the span belongs to.  Spans are kept in memory
and written out when the run ends.  Times come from
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so spans written
by a server process and windows measured by the client line up.

A layer's self time is its spans' durations minus the part covered by
their same-thread children.  Children on other threads run in
parallel and are not subtracted.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (span name, module, attribute path) — the layer boundaries.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("interchange.parse", "repro.interchange.prov_json", "parse_prov_json"),
    ("interchange.import", "repro.interchange.convert", "import_document"),
    (
        "interchange.normalize",
        "repro.interchange.normalize",
        "normalize_document",
    ),
    ("io.spec_parse", "repro.io.xml_io", "specification_from_xml"),
    ("io.save_run", "repro.io.store", "WorkflowStore.save_run"),
    ("io.save_spec", "repro.io.store", "WorkflowStore.save_specification"),
    ("sptree.canonical", "repro.sptree.canonical", "canonical_sp_tree"),
    ("sptree.annotate_run", "repro.sptree.annotate_run", "annotate_run_tree"),
    (
        "sptree.annotate_spec",
        "repro.sptree.annotate_spec",
        "annotate_specification_tree",
    ),
    ("corpus.fingerprint", "repro.corpus.index", "FingerprintIndex.fingerprint"),
    ("corpus.flush", "repro.corpus.cache", "TwoTierCache.flush"),
    ("corpus.flush", "repro.corpus.script_index", "ScriptIndex.flush"),
    ("corpus.flush", "repro.corpus.index", "FingerprintIndex.flush"),
    ("core.dp", "repro.core.api", "distance_only"),
    ("core.script", "repro.core.edit_script", "generate_script"),
    ("core.bound", "repro.core.bounds", "distance_lower_bound"),
    ("query.select", "repro.query.engine", "QueryEngine.select"),
    (
        "query.candidates",
        "repro.corpus.script_index",
        "ScriptIndex.candidates_for_kinds",
    ),
    (
        "query.candidates",
        "repro.corpus.script_index",
        "ScriptIndex.candidates_for_labels",
    ),
    (
        "query.candidates",
        "repro.corpus.script_index",
        "ScriptIndex.candidates_for_cost",
    ),
    (
        "query.candidates",
        "repro.corpus.script_index",
        "ScriptIndex.candidates_for_op_count",
    ),
    ("stream.apply_batch", "repro.stream.hub", "StreamHub.apply_batch"),
)

#: Modules whose import pulls in every module that holds a target.
_PRELOAD = (
    "repro",
    "repro.cli",
    "repro.service.server",
    "repro.cluster.server",
    "repro.stream.hub",
    "repro.backends.work",
)

Span = Tuple[int, int, int, int, str, float, float]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    :attr:`active` decides, at the start of each operation, whether
    that operation is traced; wrappers consult the decision of the
    operation their thread is running, so an operation is never half
    traced.
    """

    def __init__(self):
        self.active = False
        self.spans: List[Span] = []
        #: Sizes returned across a boundary (``query.candidates``).
        self.counts: Dict[str, int] = collections.Counter()
        #: ``perf_counter`` instants at which :attr:`active` flipped.
        self.toggles: List[float] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def set_active(self, active: bool) -> None:
        self.active = active
        self.toggles.append(time.perf_counter())

    # -- context ----------------------------------------------------------
    def op(self, op_id: int, name: str = "op") -> "_OpContext":
        """Run one operation (a context manager)."""
        return _OpContext(self, op_id, name)

    def _open(self, name: str) -> tuple:
        state = self._local.__dict__
        stack = state.setdefault("stack", [])
        parent = stack[-1] if stack else state.get("parent", 0)
        span_id = next(self._ids)
        stack.append(span_id)
        return (span_id, parent, state.get("op", 0), name,
                time.perf_counter())

    def _close(self, opened: tuple, label: Optional[str] = None) -> None:
        end = time.perf_counter()
        span_id, parent, op, name, start = opened
        self._local.stack.pop()
        self.spans.append(
            (span_id, parent, op, threading.get_ident(), label or name,
             start, end)
        )

    # -- wrappers ---------------------------------------------------------
    def wrap(self, original: Callable, name) -> Callable:
        """A traced stand-in for ``original``.

        ``name`` is the span name, or a callable of the call's
        arguments returning it (to split one function by its input).
        """
        tracer = self
        local = self._local
        count_result = name == "query.candidates"
        namer = name if callable(name) else None

        if inspect.isgeneratorfunction(original):

            def traced_generator(*args, **kwargs):
                iterator = original(*args, **kwargs)
                try:
                    while True:
                        if not local.__dict__.get("traced"):
                            item = next(iterator, _DONE)
                        else:
                            opened = tracer._open(name)
                            try:
                                item = next(iterator, _DONE)
                            finally:
                                tracer._close(opened)
                        if item is _DONE:
                            return
                        if local.__dict__.get("traced"):
                            tracer.counts[name + ".items"] += 1
                        yield item
                finally:
                    iterator.close()

            traced_generator.__wrapped__ = original
            return traced_generator

        def traced(*args, **kwargs):
            if not local.__dict__.get("traced"):
                return original(*args, **kwargs)
            opened = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(opened, namer(*args) if namer else None)
            if count_result:
                tracer.counts[name] += len(result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_op(self, original: Callable, name: str) -> Callable:
        """Make each call of ``original`` one operation (a server's
        request handler)."""
        tracer = self

        def operation(*args, **kwargs):
            with _OpContext(tracer, next(tracer._ids), name):
                return original(*args, **kwargs)

        operation.__wrapped__ = original
        return operation

    def wrap_backend_map(self, original: Callable) -> Callable:
        """Carry the caller's op and span into thread-backend tasks."""
        tracer = self
        local = self._local

        def traced_map(backend, func, tasks):
            state = local.__dict__
            if not state.get("traced"):
                return original(backend, func, tasks)
            stack = state.get("stack") or []
            carried = {
                "op": state.get("op", 0),
                "parent": stack[-1] if stack else state.get("parent", 0),
                "traced": True,
            }

            def task_in_context(task):
                mine = local.__dict__
                saved = {key: mine.get(key) for key in carried}
                mine.update(carried)
                try:
                    return func(task)
                finally:
                    mine.update(saved)

            return original(backend, task_in_context, tasks)

        traced_map.__wrapped__ = original
        return traced_map

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the counts and toggles, then one span per line."""
        with open(path, "w", encoding="utf8") as handle:
            header = {"counts": dict(self.counts), "toggles": self.toggles}
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


_DONE = object()


class _OpContext:
    """One operation: its root span, when traced, encloses all others."""

    def __init__(self, tracer: Tracer, op_id: int, name: str):
        self.tracer = tracer
        self.op_id = op_id
        self.name = name

    def __enter__(self) -> bool:
        state = self.tracer._local.__dict__
        self.saved = {
            key: state.get(key) for key in ("op", "traced", "parent")
        }
        self.traced = self.tracer.active
        state.update(op=self.op_id, traced=self.traced, parent=0)
        if self.traced:
            self.opened = self.tracer._open(self.name)
        return self.traced

    def __exit__(self, *exc) -> bool:
        if self.traced:
            self.tracer._close(self.opened)
        self.tracer._local.__dict__.update(self.saved)
        return False


def load(path: str) -> Tuple[List[Span], dict]:
    """Read a file written by :meth:`Tracer.dump`: spans and header."""
    with open(path, encoding="utf8") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, header


# ---------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------
def resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _replace_everywhere(original, replacement) -> int:
    """Point every ``repro`` module global and class attribute that is
    ``original`` at ``replacement``; returns the number replaced."""
    replaced = 0
    seen = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
            elif isinstance(value, type) and id(value) not in seen:
                seen.add(id(value))
                for class_attr, class_value in list(vars(value).items()):
                    if class_value is original:
                        setattr(value, class_attr, replacement)
                        replaced += 1
    return replaced


def stream_batch_name(hub, events) -> str:
    """``stream.close`` for the batch carrying ``run_close``."""
    from repro.stream.events import RunClose

    if any(isinstance(event, RunClose) for event in events):
        return "stream.close"
    return "stream.apply_batch"


def install(
    tracer: Tracer, extra: Iterable[Tuple[str, str, str]] = ()
) -> List[str]:
    """Wrap every target (plus ``extra``); returns the wrapped paths."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    installed = []
    for name, module_name, path in tuple(TARGETS) + tuple(extra):
        _, _, original = resolve(module_name, path)
        if getattr(original, "__wrapped__", None) is not None:
            continue  # already installed (shared flush targets)
        label = stream_batch_name if name == "stream.apply_batch" else name
        wrapper = tracer.wrap(original, label)
        if _replace_everywhere(original, wrapper):
            installed.append(f"{module_name}:{path}")
    from repro.backends.base import ThreadBackend

    original_map = ThreadBackend.__dict__["map"]
    if getattr(original_map, "__wrapped__", None) is None:
        ThreadBackend.map = tracer.wrap_backend_map(original_map)
    return installed


# ---------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------
def _covered(spans: List[Span]) -> Dict[int, float]:
    """Per span id: the time its same-thread children cover."""
    by_id = {span[0]: span for span in spans}
    covered: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None and parent[3] == span[3]:
            covered[span[1]] += span[6] - span[5]
    return covered


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self seconds and call counts."""
    covered = _covered(spans)
    seconds: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    for span in spans:
        seconds[span[4]] += (span[6] - span[5]) - covered[span[0]]
        calls[span[4]] += 1
    return seconds, calls


def check_op_accounting(
    spans: List[Span], root_name: str, slack: float = 1e-4
) -> Tuple[int, int]:
    """Check that each op's layer self times fit inside its wall time.

    For every op (rooted at a span named ``root_name``) and every
    thread its spans ran on, the self times recorded on that thread
    must sum to no more than the op's wall time.  Returns
    ``(ops_checked, ops_violating)``.
    """
    covered = _covered(spans)
    walls = {
        span[2]: span[6] - span[5]
        for span in spans
        if span[4] == root_name and span[2]
    }
    per_thread: Dict[Tuple[int, int], float] = collections.defaultdict(float)
    for span in spans:
        if span[2] in walls:
            per_thread[(span[2], span[3])] += (
                (span[6] - span[5]) - covered[span[0]]
            )
    violating = {
        op
        for (op, _), total in per_thread.items()
        if total > walls[op] * (1 + 1e-6) + slack
    }
    return len(walls), len(violating)


def descendants_of(spans: List[Span], ancestor_name: str, name: str) -> int:
    """How many ``name`` spans have an ``ancestor_name`` ancestor
    (following parent links across threads)."""
    by_id = {span[0]: span for span in spans}
    count = 0
    for span in spans:
        if span[4] != name:
            continue
        parent = by_id.get(span[1])
        hops = 0
        while parent is not None and hops < 256:
            if parent[4] == ancestor_name:
                count += 1
                break
            parent = by_id.get(parent[1])
            hops += 1
    return count
