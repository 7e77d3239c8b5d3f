"""Content-addressed registry of parsed specifications.

The paper builds the annotated specification tree ``T_G`` (Algorithm 1)
once per workflow and validates every run against it.  ``T_G`` is a pure
function of a specification's XML text, so one process never needs to
build it twice for the same text: :data:`SPEC_REGISTRY` maps the SHA-256
of a specification's XML to the parsed
:class:`~repro.workflow.specification.WorkflowSpecification`.  The store
and the embedded-plan import both resolve specifications through it, so
a flood of runs under a few plans parses and annotates each plan once.
It is also the one reader of stored spec files (:meth:`SpecRegistry.load`):
a memo maps each file to the content last read from it or saved to it,
checked by one ``stat``, so every process sees a rewrite at once.

The contract:

* **keyed by content** — an entry hashes the text, never a name, so it
  cannot go stale; the file memo only points a file at content;
* **one per process, bounded** — at most :data:`CAPACITY` entries and
  :data:`CAPACITY` files under one lock; the least recently used go
  first;
* **shared specifications** — every caller resolving the same text gets
  the same object (the first to land wins), which is therefore never
  mutated;
* **failures are not cached** — text that does not parse raises on every
  attempt (a parse happens only on a miss, through
  :func:`repro.io.xml_io.specification_from_xml`).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Optional

from repro.errors import ReproError
from repro.io import xml_io
from repro.workflow.specification import WorkflowSpecification

#: Most specifications (and spec files) the registry holds; the least
#: recently used go first.
CAPACITY = 64


def _stamp(stat: os.stat_result) -> tuple:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _put(table: OrderedDict, key, value) -> None:
    """Insert as most recently used, dropping beyond :data:`CAPACITY`."""
    table[key] = value
    table.move_to_end(key)
    while len(table) > CAPACITY:
        table.popitem(last=False)


class SpecRegistry:
    """Thread-safe, bounded maps from specification text to its parse
    and from a spec file to the text it holds."""

    def __init__(self):
        #: Content key (SHA-256 of the text) -> specification.
        self._entries: OrderedDict = OrderedDict()
        #: Spec file path -> ((inode, size, mtime_ns), content key).
        self._files: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def specification(
        self,
        text: str,
        spec: Optional[WorkflowSpecification] = None,
        path: Optional[str] = None,
        stat: Optional[os.stat_result] = None,
    ) -> WorkflowSpecification:
        """The shared specification for XML ``text``: ``spec`` (or a
        parse of ``text``) on a miss.  With ``path``, also record that
        the file there, whose ``stat`` is given, holds ``text``.

        Raises :class:`~repro.errors.ReproError` when ``text`` is not a
        valid specification.
        """
        key = hashlib.sha256(text.encode("utf8")).hexdigest()
        with self._lock:
            shared = self._entries.get(key)
        if shared is None:
            # Parse unlocked, so a slow parse never blocks other lookups.
            shared = (
                spec if spec is not None
                else xml_io.specification_from_xml(text)
            )
        with self._lock:
            # Concurrent misses on one text: the first to land wins, so
            # every caller still shares one object.
            shared = self._entries.setdefault(key, shared)
            _put(self._entries, key, shared)
            if path is not None:
                _put(self._files, path, (_stamp(stat), key))
        return shared

    def load(
        self, path: str, name: str
    ) -> Optional[WorkflowSpecification]:
        """The specification in the file at ``path``, ``None`` if absent.

        One ``stat`` (inode, size, ``mtime_ns``) answers while the file
        is unchanged since it was last read or saved; otherwise it is
        read (``name`` is for the error) and resolved.
        """
        try:
            stamp = _stamp(os.stat(path))
        except (OSError, ValueError):
            return None
        with self._lock:
            known = self._files.get(path)
            if known is not None and known[0] == stamp:
                spec = self._entries.get(known[1])
                if spec is not None:
                    self._files.move_to_end(path)
                    self._entries.move_to_end(known[1])
                    return spec
        try:
            with open(path, encoding="utf8") as handle:
                stat = os.fstat(handle.fileno())
                text = handle.read()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                f"cannot read stored specification {name!r}: {exc}"
            ) from None
        return self.specification(text, path=path, stat=stat)


#: The process-wide registry.
SPEC_REGISTRY = SpecRegistry()
