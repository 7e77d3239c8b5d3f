"""File-backed catalog of specifications and runs (PDiffView's store).

The prototype "allows users to view, store, generate and import/export
SP-specifications and their associated runs"; this module provides the
storage half: a directory layout

.. code-block:: text

    <root>/specs/<spec-name>.xml
    <root>/runs/<spec-name>/<run-name>.xml
    <root>/index/<index-name>.json

with atomic writes (temp file + rename) so a crashed process never leaves
a half-written catalog entry — the usual durability idiom for file-backed
stores.  The ``index/`` area holds derived data maintained by the corpus
subsystem (run fingerprints, distance caches); deleting it loses only
recomputable state, never a specification or run.

Names containing characters outside ``[A-Za-z0-9._-]`` are sanitised for
the filesystem and suffixed with a short content hash so distinct names
can never collide on disk (``"a/b"`` and ``"a_b"`` map to different
files); a per-entry ``<stem>.name`` sidecar records each mangled stem's
original name so listings stay faithful.  One sidecar file per entry —
rather than a shared map — keeps every write atomic and free of
read-modify-write races between concurrent savers.

Stored specifications load through the process-wide content-addressed
:data:`~repro.io.registry.SPEC_REGISTRY`, and
:meth:`WorkflowStore.adopt_specification` is the one guard against
replacing a stored specification with different content.
"""

from __future__ import annotations

import hashlib
import os
import json
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConflictError, NotFoundError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runmeta import RunMetadata
from repro.io.registry import SPEC_REGISTRY
from repro.io.xml_io import run_from_xml, run_to_xml, specification_to_xml
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename).

    Readers never observe a partial file: they see either the previous
    content or the full new content.  Shared by the store and by the
    corpus subsystem's derived-data files (distance cache, sidecars).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _safe_name(name: str) -> str:
    """A filesystem-safe, collision-free file stem for ``name``.

    Names already made of ``[A-Za-z0-9._-]`` map to themselves.  Any
    other name has its unsafe characters replaced by ``_`` and a short
    hash of the *original* name appended, so two distinct names can
    never sanitise to the same stem (``"a/b"`` vs ``"a_b"``).
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    )
    if not cleaned:
        raise ReproError("cannot derive a file name from an empty name")
    if cleaned != name:
        digest = hashlib.sha256(name.encode("utf8")).hexdigest()[:8]
        cleaned = f"{cleaned}~{digest}"
    return cleaned


def _record_name(directory: Path, stem: str, original: str) -> None:
    """Remember ``stem -> original`` when sanitisation mangled a name.

    Written as an individual ``<stem>.name`` sidecar file: the write is
    atomic on its own, so concurrent savers of different entries can
    never lose each other's mappings.
    """
    if stem == original:
        return
    atomic_write(directory / f"{stem}.name", original)


def _original_name(directory: Path, stem: str) -> str:
    sidecar = directory / f"{stem}.name"
    if sidecar.exists():
        try:
            return sidecar.read_text(encoding="utf8")
        except OSError:
            pass
    return stem


def _list_names(directory: Path) -> List[str]:
    return sorted(
        _original_name(directory, path.stem)
        for path in directory.glob("*.xml")
    )


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

    @staticmethod
    def _locate(directory: Path, name: str) -> Optional[Path]:
        """The file holding ``name``, or ``None``.

        Primary lookup is by sanitised stem.  As a recovery path, a
        ``name`` that is itself the literal stem of an existing file is
        accepted — so entries whose ``<stem>.name`` sidecar was lost
        (listed under their raw stem) remain loadable, as do files
        written under older, unsuffixed manglings *by the stem the
        listing reports* (their original names are unrecoverable
        without a sidecar).  Literal stems containing ``~`` only ever
        arise from mangling, never from sanitising a user name, so the
        fallback cannot shadow a distinct entry.
        """
        primary = directory / f"{_safe_name(name)}.xml"
        if primary.exists():
            return primary
        literal = directory / f"{name}.xml"
        if literal.name == f"{name}.xml" and literal.exists():
            return literal
        return None

    # -- specifications -------------------------------------------------
    def save_specification(self, spec: WorkflowSpecification) -> Path:
        """Persist a specification; returns the file path."""
        directory = self.root / "specs"
        stem = _safe_name(spec.name)
        path = directory / f"{stem}.xml"
        # Sidecar first: an orphaned name entry is harmless (listings
        # iterate *.xml), whereas an unmapped mangled file would list
        # under its raw stem.
        _record_name(directory, stem, spec.name)
        atomic_write(path, specification_to_xml(spec))
        return path

    def has_specification(self, name: str) -> bool:
        """True when a specification named ``name`` is stored."""
        return self._locate(self.root / "specs", name) is not None

    def _specification_text(self, name: str) -> Optional[str]:
        """The stored XML of specification ``name``; ``None`` if absent.

        A file removed between lookup and read counts as absent.
        """
        path = self._locate(self.root / "specs", name)
        if path is None:
            return None
        try:
            return path.read_text(encoding="utf8")
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                f"cannot read stored specification {name!r}: {exc}"
            ) from None

    def load_specification(self, name: str) -> WorkflowSpecification:
        """The stored specification ``name``, shared through the
        process-wide :data:`~repro.io.registry.SPEC_REGISTRY`."""
        text = self._specification_text(name)
        if text is None:
            raise NotFoundError(
                f"no stored specification named {name!r}"
            )
        return SPEC_REGISTRY.specification(text)

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

        text = self._specification_text(spec.name)
        if text is None:
            self.save_specification(spec)
            return spec
        stored, digest = SPEC_REGISTRY.resolve(text)
        if stored is not spec and digest != spec_fingerprint(spec):
            raise ConflictError(
                f"a different specification named {spec.name!r} already "
                "exists in this store; import under another spec_name or "
                "remove the old specification first"
            )
        return stored

    def list_specifications(self) -> List[str]:
        return _list_names(self.root / "specs")

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
        """The existing file for a run (with the literal-stem fallback
        of :meth:`_locate`), or ``None``.  Index consumers stat this
        path so their freshness stamps track the file actually read."""
        return self._locate(
            self.root / "runs" / _safe_name(spec_name), run_name
        )

    def save_run(
        self,
        run: WorkflowRun,
        meta: Optional["RunMetadata"] = None,
    ) -> Path:
        """Persist a run under its specification's directory.

        ``meta`` is the operational account of the ingest
        (:class:`~repro.obs.runmeta.RunMetadata`); when omitted the
        current context is captured automatically.  It lands in a
        ``<stem>.meta.json`` sidecar next to the run document —
        listings glob ``*.xml``, so sidecars never pollute run names.
        """
        from repro.obs.runmeta import capture_run_metadata

        path = self.run_path(run.spec.name, run.name)
        _record_name(path.parent, path.stem, run.name)  # sidecar first
        if meta is None:
            meta = capture_run_metadata()
        atomic_write(
            path.parent / f"{path.stem}.meta.json",
            json.dumps(meta.to_dict(), sort_keys=True),
        )
        atomic_write(path, run_to_xml(run))
        return path

    def run_metadata(
        self, spec_name: str, run_name: str
    ) -> Optional["RunMetadata"]:
        """The operational metadata of a stored run, or ``None``.

        Metadata is best-effort: a run without a sidecar (written by an
        older version) or with a corrupt one is simply a run with no
        metadata.
        """
        from repro.obs.runmeta import RunMetadata

        path = self.locate_run(spec_name, run_name)
        if path is None:
            return None
        sidecar = path.parent / f"{path.stem}.meta.json"
        if not sidecar.exists():
            return None
        try:
            payload = json.loads(sidecar.read_text(encoding="utf8"))
        except (OSError, ValueError):
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
        directory = self.root / "runs" / _safe_name(spec_name)
        if not directory.exists():
            return []
        return _list_names(directory)

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
        (:meth:`adopt_specification`).
        Returns the :class:`~repro.interchange.convert.ImportResult`.
        """
        from repro.interchange.convert import import_document
        from repro.obs.runmeta import _utc_now, capture_run_metadata

        started = _utc_now()
        result = import_document(
            source, run_name=run_name, spec_name=spec_name
        )
        self.adopt_specification(result.spec)
        self.save_run(
            result.run,
            meta=capture_run_metadata(
                origin="prov-import", started=started
            ),
        )
        return result

    # -- derived indexes (corpus/query subsystems) ----------------------
    @property
    def index_dir(self) -> Path:
        """Directory for derived, recomputable data (``<root>/index/``)."""
        path = self.root / "index"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def index_path(
        self, name: str, namespace: Optional[str] = None
    ) -> Path:
        """The file an index named ``name`` uses (without creating it).

        ``namespace`` selects a subdirectory of ``index/`` — each
        subsystem keeps its derived files in its own namespace (the
        corpus distance cache lives at the top level for backwards
        compatibility; the query engine's files live under
        ``index/query/``).  Deleting a namespace directory loses only
        that subsystem's recomputable state.
        """
        directory = self.root / "index"
        if namespace is not None:
            directory = directory / _safe_name(namespace)
        return directory / f"{_safe_name(name)}.json"

    def load_index(
        self, name: str, namespace: Optional[str] = None
    ) -> Optional[dict]:
        """Read a JSON index by name; ``None`` when absent or corrupt.

        A corrupt index is treated as missing — everything under
        ``index/`` is derived data that callers rebuild on demand.
        Reading never creates ``index/``, so ephemeral (read-only)
        consumers leave the store untouched.
        """
        path = self.index_path(name, namespace)
        if not path.exists():
            return None
        try:
            loaded = json.loads(path.read_text(encoding="utf8"))
        except (OSError, ValueError):
            return None
        return loaded if isinstance(loaded, dict) else None

    def save_index(
        self, name: str, payload: dict, namespace: Optional[str] = None
    ) -> Path:
        """Atomically persist a JSON index by name (and namespace)."""
        path = self.index_path(name, namespace)
        atomic_write(path, json.dumps(payload, sort_keys=True))
        return path

    def list_indexes(self, namespace: Optional[str] = None) -> List[str]:
        """Names of the stored indexes in one namespace (sorted)."""
        directory = self.root / "index"
        if namespace is not None:
            directory = directory / _safe_name(namespace)
        if not directory.exists():
            return []
        return sorted(path.stem for path in directory.glob("*.json"))
