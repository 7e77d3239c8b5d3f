"""Typed configuration for a :class:`~repro.workspace.Workspace`.

One dataclass carries every knob the layered subsystems used to take
separately — cost model, execution backend, parallelism, cache sizing,
persistence — so a workspace (and the CLI) wires store, diff service,
query engine and view layers consistently from a single object::

    from repro import ReproConfig, Workspace
    ws = Workspace(path, ReproConfig(backend="thread", jobs=8))

Configs are plain frozen dataclasses: build variants with
:func:`dataclasses.replace` and pass them around freely — a config
never holds live resources (the backend is constructed on demand by
:meth:`ReproConfig.make_backend`, unless the caller supplies an
instance to share).

Deployments configure through the environment instead of code:
:meth:`ReproConfig.from_env` reads the ``REPRO_*`` variables
(``REPRO_COST``, ``REPRO_BACKEND``, ``REPRO_JOBS``,
``REPRO_CACHE_SIZE``, ``REPRO_LOG_LEVEL``, ``REPRO_LOG_FORMAT``,
``REPRO_METRICS``, ``REPRO_MAX_BODY_BYTES``, ``REPRO_WORKERS``), with
keyword overrides — the CLI's flags — taking precedence over the
environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.backends.base import (
    BACKEND_NAMES,
    ExecutorBackend,
    make_backend,
)
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost, cost_from_spec
from repro.errors import ReproError
from repro.obs.logging import LOG_FORMATS, LOG_LEVELS

#: Truthy/falsy spellings accepted by boolean ``REPRO_*`` variables.
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _env_bool(name: str, raw: str) -> bool:
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ReproError(
        f"{name} must be a boolean "
        f"(one of {', '.join(sorted(_TRUE_WORDS | _FALSE_WORDS))}), "
        f"got {raw!r}"
    )


def _env_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ReproError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ReproConfig:
    """Everything a workspace needs to wire its subsystems.

    Attributes
    ----------
    cost:
        Default cost model ``γ`` for every operation that accepts one
        (each call can still override it per invocation).
    backend:
        Execution substrate for cold batches: ``"serial"`` (the
        default), ``"thread"``, or an
        :class:`~repro.backends.base.ExecutorBackend` instance (used
        as-is).  The DP is pure Python, so threads only contend for the
        GIL; :attr:`workers` is the multi-core path.
    jobs:
        Parallelism for a backend given by name; ``None`` picks for the
        machine.  Must be ``None`` when ``backend`` is an instance.
    cache_size:
        Bound of the in-memory distance/script cache tiers.
    persistent:
        When ``False`` the workspace keeps all derived state (caches,
        fingerprints, indexes) in memory only — nothing lands under
        ``<store>/index/``.
    record_intermediates:
        Whether :meth:`Workspace.view` diffs keep per-operation graph
        snapshots (needed for stepping through intermediate states).
    log_level:
        Threshold of the ``repro`` logger hierarchy (``debug`` ..
        ``critical``); applied by :class:`~repro.service.server.DiffServer`
        through :func:`repro.obs.logging.configure_logging`.
    log_format:
        Log output format: ``json`` (structured, one object per line),
        ``text`` (human-readable), or ``off`` (silent — the test
        fixtures' setting).
    metrics:
        Whether the workspace collects metrics.  ``False`` hands the
        stack a disabled :class:`~repro.obs.metrics.MetricsRegistry`
        whose updates are no-ops.
    max_body_bytes:
        Ceiling on an HTTP request body the diff server will accept
        (both ``Content-Length`` and chunked transfers); larger bodies
        are refused with a structured ``413`` envelope *without being
        read*.  Default 64 MiB.
    workers:
        Server worker processes for ``repro serve``.  ``0`` (the
        default) serves single-process; ``N >= 1`` pre-forks ``N``
        worker processes accepting from one socket
        (:class:`~repro.cluster.supervisor.ClusterServer`).  Ignored by
        non-serving workspaces.
    """

    cost: CostModel = field(default_factory=UnitCost)
    backend: Union[str, ExecutorBackend] = "serial"
    jobs: Optional[int] = None
    cache_size: int = 4096
    persistent: bool = True
    record_intermediates: bool = True
    log_level: str = "info"
    log_format: str = "text"
    metrics: bool = True
    max_body_bytes: int = 64 * 1024 * 1024
    workers: int = 0

    def __post_init__(self):
        if str(self.log_format).strip().lower() not in LOG_FORMATS:
            raise ReproError(
                f"unknown log format {self.log_format!r} "
                f"(expected one of {', '.join(LOG_FORMATS)})"
            )
        if str(self.log_level).strip().lower() not in LOG_LEVELS:
            raise ReproError(
                f"unknown log level {self.log_level!r} "
                f"(expected one of {', '.join(LOG_LEVELS)})"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(
                f"ReproConfig.jobs must be >= 1, got {self.jobs}"
            )
        if self.max_body_bytes < 1:
            raise ReproError(
                "ReproConfig.max_body_bytes must be >= 1, "
                f"got {self.max_body_bytes}"
            )
        if self.workers < 0:
            raise ReproError(
                f"ReproConfig.workers must be >= 0, got {self.workers}"
            )
        if isinstance(self.backend, ExecutorBackend):
            # Enforce the documented contract at construction, where
            # the mistake is made — not later at Workspace() time.
            if self.jobs is not None:
                raise ReproError(
                    "ReproConfig.jobs must be None when backend is an "
                    "already-constructed instance "
                    f"({self.backend.describe()} carries its own width)"
                )
        elif str(self.backend).strip().lower() not in BACKEND_NAMES:
            raise ReproError(
                f"unknown backend {self.backend!r} "
                f"(expected one of {', '.join(BACKEND_NAMES)} "
                "or an ExecutorBackend instance)"
            )

    def make_backend(self) -> ExecutorBackend:
        """Resolve :attr:`backend`/:attr:`jobs` to a live backend."""
        return make_backend(self.backend, self.jobs)

    @classmethod
    def from_env(
        cls,
        env: Optional[Mapping[str, str]] = None,
        **overrides,
    ) -> "ReproConfig":
        """A config from ``REPRO_*`` environment variables.

        ``env`` defaults to :data:`os.environ`; keyword ``overrides``
        (the CLI's explicit flags) win over the environment, which wins
        over the dataclass defaults.  Malformed values raise
        :class:`~repro.errors.ReproError` naming the variable — a
        typo'd deployment must fail at startup, not fall back silently.
        """
        source = os.environ if env is None else env
        values: dict = {}
        if source.get("REPRO_COST"):
            values["cost"] = cost_from_spec(source["REPRO_COST"])
        if source.get("REPRO_BACKEND"):
            values["backend"] = source["REPRO_BACKEND"].strip().lower()
        if source.get("REPRO_JOBS"):
            values["jobs"] = _env_int("REPRO_JOBS", source["REPRO_JOBS"])
        if source.get("REPRO_CACHE_SIZE"):
            values["cache_size"] = _env_int(
                "REPRO_CACHE_SIZE", source["REPRO_CACHE_SIZE"]
            )
        if source.get("REPRO_LOG_LEVEL"):
            values["log_level"] = (
                source["REPRO_LOG_LEVEL"].strip().lower()
            )
        if source.get("REPRO_LOG_FORMAT"):
            values["log_format"] = (
                source["REPRO_LOG_FORMAT"].strip().lower()
            )
        if source.get("REPRO_METRICS"):
            values["metrics"] = _env_bool(
                "REPRO_METRICS", source["REPRO_METRICS"]
            )
        if source.get("REPRO_MAX_BODY_BYTES"):
            values["max_body_bytes"] = _env_int(
                "REPRO_MAX_BODY_BYTES", source["REPRO_MAX_BODY_BYTES"]
            )
        if source.get("REPRO_WORKERS"):
            values["workers"] = _env_int(
                "REPRO_WORKERS", source["REPRO_WORKERS"]
            )
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        return cls(**values)
