"""File-backed catalog of specifications and runs (PDiffView's store).

The prototype "allows users to view, store, generate and import/export
SP-specifications and their associated runs"; this module provides the
storage half: a directory layout

.. code-block:: text

    <root>/specs/<spec-name>.xml
    <root>/runs/<spec-name>/<run-name>.xml
    <root>/index/derived.db

Each specification and each run is one XML document, written by one
atomic write (temp file + fsync + rename), so a crashed process never
leaves a half-written catalog entry — the usual durability idiom for
file-backed stores.  The document carries its own name, and a run's
also carries its operational metadata (:mod:`repro.obs.runmeta`), so
there is no sidecar to keep in step with it.  Temp files end in
``.tmp``, so no listing ever reports one (nor a ``.tmp-*`` leftover of
older versions, whose temp files ended in ``.xml``).  The ``index/``
area holds the derived-state database the corpus subsystem maintains
(:mod:`repro.corpus.derived`: run fingerprints, distance and script
caches, the script index); deleting it loses only recomputable state,
never a specification or run.

Names containing characters outside ``[A-Za-z0-9._-]`` are sanitised for
the filesystem and suffixed with a short content hash so distinct names
can never collide on disk (``"a/b"`` and ``"a_b"`` map to different
files); listings read such an entry's original name from its
document's root.  Stores written before 9.0 also hold ``<stem>.name``
and ``<stem>.meta.json`` sidecars: the first are ignored (the document
names itself), the second are read only as a run's metadata fallback.

A specification's identity is its stored file, resolved through the
process-wide :data:`~repro.io.registry.SPEC_REGISTRY` (one ``stat``
while the file is unchanged), and
:meth:`WorkflowStore.adopt_specification`, which every run write meets,
is the one guard against replacing it with different content.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConflictError, NotFoundError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runmeta import RunMetadata
from repro.io.registry import SPEC_REGISTRY
from repro.io.xml_io import (
    document_head,
    run_from_xml,
    run_to_xml,
    specification_to_xml,
)
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification


def atomic_write(path: Path, text: str) -> os.stat_result:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename).

    Readers never observe a partial file: they see either the previous
    content or the full new content.  The temp file is named
    ``.<name>.XXXX.tmp``: no listing matches it, so a writer killed
    mid-save leaves no phantom entry behind.  Returns the written
    file's ``stat`` (the rename keeps its inode, size and mtime).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
            written = os.fstat(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return written


#: Prefix of the temp files older versions of :func:`atomic_write` left
#: behind (``.tmp-XXXX.xml``); listings skip them.
_LEGACY_TEMP_PREFIX = ".tmp-"


@functools.lru_cache(maxsize=8192)
def _safe_name(name: str) -> str:
    """A filesystem-safe, collision-free file stem for ``name``.

    Names already made of ``[A-Za-z0-9._-]`` map to themselves.  Any
    other name has its unsafe characters replaced by ``_`` and a short
    hash of the *original* name appended, so two distinct names can
    never sanitise to the same stem (``"a/b"`` vs ``"a_b"``).  A name
    starting with ``.tmp-`` is mangled too (to ``_tmp-…~hash``), so the
    listings' skip of legacy temp files never hides a real entry.
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    )
    if not cleaned:
        raise ReproError("cannot derive a file name from an empty name")
    if cleaned.startswith(_LEGACY_TEMP_PREFIX):
        cleaned = "_" + cleaned[1:]
    if cleaned != name:
        digest = hashlib.sha256(name.encode("utf8")).hexdigest()[:8]
        cleaned = f"{cleaned}~{digest}"
    return cleaned


def _stems(name: str) -> List[str]:
    """The file stems an entry named ``name`` may be stored under.

    Primary lookup is by sanitised stem.  As a recovery path, a
    ``name`` that is itself the literal stem of an existing file is
    accepted — so entries whose document head is unreadable (listed
    under their raw stem) remain loadable, as do files written under
    older, unsuffixed manglings *by the stem the listing reports*.
    Literal stems containing ``~`` only ever arise from mangling, never
    from sanitising a user name, so the fallback cannot shadow a
    distinct entry.
    """
    stem = _safe_name(name)
    if stem != name and os.path.basename(name) == name:
        return [stem, name]
    return [stem]


def _document_name(path: str, stem: str) -> str:
    """The name the document at ``path`` declares, or ``stem``.

    The raw stem stands in when the head is unreadable or its name does
    not sanitise to ``stem`` (a name the listing could not load by).
    """
    try:
        name = document_head(path)[0].get("name", "")
        if _safe_name(name) == stem:
            return name
    except (OSError, ReproError):
        pass
    return stem


def _list_names(directory: str) -> List[str]:
    """The original names of the ``*.xml`` entries of ``directory``.

    One ``listdir``.  Only :func:`_safe_name` puts a ``~`` in a stem,
    so only those entries open their file, for the root's ``name``.
    Temp files never list; a missing directory lists as empty.
    """
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    names = []
    for entry in entries:
        if not entry.endswith(".xml") or entry.startswith(
            _LEGACY_TEMP_PREFIX
        ):
            continue
        stem = entry[:-4]
        if "~" in stem:
            stem = _document_name(os.path.join(directory, entry), stem)
        names.append(stem)
    return sorted(names)


class WorkflowStore:
    """A directory-backed catalog of specifications and their runs."""

    def __init__(self, root):
        # Only real path types.  Anything else (most notably another
        # WorkflowStore, or a Workspace) would be str()-ed by Path into
        # a repr-named directory that silently shadows the real store —
        # exactly the class of bug that once committed a
        # ``<...WorkflowStore object at 0x...>`` directory.
        if not isinstance(root, (str, os.PathLike)):
            raise ReproError(
                "WorkflowStore root must be a path (str or "
                f"os.PathLike), not {type(root).__name__}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "specs").mkdir(exist_ok=True)
        (self.root / "runs").mkdir(exist_ok=True)
        self._spec_dir = str(self.root / "specs")
        self._runs_dir = str(self.root / "runs")

    # -- specifications -------------------------------------------------
    def save_specification(self, spec: WorkflowSpecification) -> Path:
        """Persist (or replace) a specification; returns the file path.
        The registry learns the file with ``spec`` as its object."""
        path = self.root / "specs" / f"{_safe_name(spec.name)}.xml"
        text = specification_to_xml(spec)
        stat = atomic_write(path, text)
        SPEC_REGISTRY.specification(text, spec, str(path), stat)
        return path

    def _spec_paths(self, name: str) -> List[str]:
        return [f"{self._spec_dir}{os.sep}{stem}.xml" for stem in _stems(name)]

    def has_specification(self, name: str) -> bool:
        """True when a specification named ``name`` is stored."""
        return any(os.path.exists(path) for path in self._spec_paths(name))

    def load_specification(self, name: str) -> WorkflowSpecification:
        """The stored specification ``name``, shared through the
        process-wide :data:`~repro.io.registry.SPEC_REGISTRY`: the same
        object while its file is unchanged (one ``stat``), the new
        content as soon as any process rewrites it."""
        for path in self._spec_paths(name):
            spec = SPEC_REGISTRY.load(path, name)
            if spec is not None:
                return spec
        raise NotFoundError(f"no stored specification named {name!r}")

    def adopt_specification(
        self, spec: WorkflowSpecification
    ) -> WorkflowSpecification:
        """The stored specification named ``spec.name``, writing ``spec``
        when none is stored.

        The store's one same-name guard: a stored specification with a
        different fingerprint raises :class:`ConflictError`, because
        overwriting it would orphan every run stored under it.  One with
        an equal fingerprint is kept as it is (the first writer wins), so
        an unchanged specification is never rewritten.
        """
        from repro.corpus.fingerprint import spec_fingerprint

        try:
            stored = self.load_specification(spec.name)
        except NotFoundError:
            self.save_specification(spec)
            return spec
        if stored is not spec and (
            spec_fingerprint(stored) != spec_fingerprint(spec)
        ):
            raise ConflictError(
                f"a different specification named {spec.name!r} already "
                "exists in this store; import under another spec_name or "
                "remove the old specification first"
            )
        return stored

    def list_specifications(self) -> List[str]:
        return _list_names(str(self.root / "specs"))

    # -- runs --------------------------------------------------------------
    def run_path(self, spec_name: str, run_name: str) -> Path:
        """The file path a run of ``spec_name`` named ``run_name`` uses."""
        return (
            self.root
            / "runs"
            / _safe_name(spec_name)
            / f"{_safe_name(run_name)}.xml"
        )

    def locate_run(self, spec_name: str, run_name: str) -> Optional[Path]:
        """The existing file for a run (see :func:`_stems`), or
        ``None``.  Index consumers stat this path so their freshness
        stamps track the file actually read."""
        directory = self.root / "runs" / _safe_name(spec_name)
        for stem in _stems(run_name):
            if (directory / f"{stem}.xml").exists():
                return directory / f"{stem}.xml"
        return None

    def run_stamp(
        self, spec_name: str, run_name: str
    ) -> Optional[Tuple[int, int]]:
        """``(size, mtime_ns)`` of a run's file, or ``None`` if absent.

        The same lookup as :meth:`locate_run` (sanitised stem, then the
        literal-stem fallback), at one ``stat`` for a run stored under
        its sanitised stem: the freshness check of every warm index
        read.
        """
        directory = f"{self._runs_dir}{os.sep}{_safe_name(spec_name)}{os.sep}"
        for candidate in _stems(run_name):
            try:
                stat = os.stat(f"{directory}{candidate}.xml")
            except (OSError, ValueError):
                continue
            return stat.st_size, stat.st_mtime_ns
        return None

    def save_run(
        self,
        run: WorkflowRun,
        meta: Optional["RunMetadata"] = None,
    ) -> Path:
        """Persist a run under its specification's directory.

        The run's specification meets :meth:`adopt_specification`
        first: a conflicting one raises before anything is written,
        and a missing one is saved with the run.

        ``meta`` is the operational account of the ingest
        (:class:`~repro.obs.runmeta.RunMetadata`); when omitted the
        current context is captured automatically.  It lands inside the
        run's document, written with it in one atomic write.
        """
        from repro.obs.runmeta import capture_run_metadata

        self.adopt_specification(run.spec)
        path = self.run_path(run.spec.name, run.name)
        if meta is None:
            meta = capture_run_metadata()
        atomic_write(path, run_to_xml(run, meta.to_dict()))
        return path

    def run_metadata(
        self, spec_name: str, run_name: str
    ) -> Optional["RunMetadata"]:
        """The operational metadata of a stored run, or ``None``.

        Read from the ``<meta>`` element at the head of the run's
        document.  A run file written before 9.0 has none, and its
        metadata is read from the ``<stem>.meta.json`` sidecar those
        versions wrote beside it (nothing writes one any more).
        Metadata is best-effort: a missing or malformed one is simply
        no metadata.
        """
        from repro.obs.runmeta import RunMetadata

        path = self.locate_run(spec_name, run_name)
        if path is None:
            return None
        try:
            meta = document_head(path)[1]
            if meta is not None:
                payload = json.loads(meta.text or "")
            else:
                sidecar = path.with_name(f"{path.stem}.meta.json")
                payload = json.loads(sidecar.read_text(encoding="utf8"))
        except (OSError, ValueError, ReproError):
            return None
        return RunMetadata.from_dict(payload)

    def load_run(
        self, spec: WorkflowSpecification, name: str
    ) -> WorkflowRun:
        path = self.locate_run(spec.name, name)
        if path is None:
            raise NotFoundError(
                f"no stored run {name!r} for specification {spec.name!r}"
            )
        return run_from_xml(path.read_text(encoding="utf8"), spec)

    def list_runs(self, spec_name: str) -> List[str]:
        return _list_names(
            os.path.join(self._runs_dir, _safe_name(spec_name))
        )

    # -- external provenance (interchange subsystem) --------------------
    def ingest_prov(
        self,
        source,
        run_name: str = "",
        spec_name: Optional[str] = None,
    ):
        """Import a PROV-JSON/OPM document and persist spec and run.

        ``source`` is a mapping, JSON text, or file path (see
        :func:`repro.interchange.convert.import_document`).  Documents
        exported by this library reconstruct exactly through their
        embedded plan; foreign documents are SP-ized and land with a
        :class:`~repro.interchange.normalize.NormalizationReport`.  The
        specification is written only when none of its name is stored
        (:meth:`save_run`'s guard).
        Returns the :class:`~repro.interchange.convert.ImportResult`.
        """
        from repro.interchange.convert import import_document
        from repro.obs.runmeta import _utc_now, capture_run_metadata

        started = _utc_now()
        result = import_document(
            source, run_name=run_name, spec_name=spec_name
        )
        self.save_run(
            result.run,
            meta=capture_run_metadata(
                origin="prov-import", started=started
            ),
        )
        return result
