"""The workloads that matter, driven against any workspace.

Given a built corpus (:mod:`repro.scale.build`), this module measures
what the ROADMAP's scale item actually gates on:

* **bulk ingest throughput** — a probe batch of fresh pipeline
  documents imported through the real interchange path, timed
  end-to-end (runs/s).  The probe lands under ``<prefix>-probe`` with
  epoch-numbered run names, so repeated driver passes keep ingesting
  *fresh* runs instead of measuring duplicate-detection;
* **cold/warm distance-matrix time** — an all-pairs matrix over the
  dedicated bounded ``<prefix>-matrix`` family (default 32 runs = 496
  pairs).  "Cold" means no distances priced yet this pass; on a store
  with a persistent cache a repeated pass is honest about that by also
  reporting the warm number, which is the steady-state serving shape;
* **indexed query latency** — representative ``QueryFilter`` shapes
  evaluated repeatedly against the matrix family, reported as
  p50/p95 milliseconds.  Each shape first runs once on its own,
  reported as ``cold_ms`` and never gated: that pass may top up edit
  scripts for every matrix pair, which is cold work, not a warm query
  sample;
* **family analytics at size** — on the corpus's largest family
  (``<prefix>-pipeline``, 400 runs in the 1k corpus): a warm matrix,
  ``medoid``, ``outliers(top=5)``, ``nearest(k=5)`` and one streamed
  write, its ``run_open`` timed apart.  Each pass streams a fresh run
  (as the ingest probe does), so the family grows by one per pass.
  These are the numbers an O(N²) step per request would blow up.  On
  the default 1k corpus the first pass's run is ≡ to stored runs, so
  its write prices no DP (``write_dps`` counts them): the gated
  ``write_ms`` is then per-request overhead, not DP time.

Everything goes through the ``WorkspaceAPI`` surface (``import_prov``,
``matrix``, ``query``, ``medoid``, ``stream``, ``stats``), so the same
driver measures a local store, a remote server, or a cluster
unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api_types import QueryFilter
from repro.errors import NotFoundError, ReproError
from repro.obs.logging import get_logger
from repro.scale.workloads import make_workload

logger = get_logger("repro.scale.drivers")

#: Representative indexed-query shapes: kind-only (pure inverted-index
#: hit), label-touch, and a cost-bounded scan (exercises the bound
#: gate).  Kept declarative so they travel over HTTP unchanged.
DEFAULT_QUERY_SHAPES: Tuple[Tuple[str, QueryFilter], ...] = (
    ("kind", QueryFilter(kinds=("path-insertion", "path-deletion"))),
    ("touch", QueryFilter(touches=("g00", "g01"))),
    ("cost", QueryFilter(max_cost=2.5)),
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    if not samples:
        raise ReproError("cannot take a percentile of no samples")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


@dataclass(frozen=True)
class DriverConfig:
    """Knobs for one driver pass."""

    prefix: str = "scale"
    seed: int = 20090329
    #: Fresh documents per ingest probe.
    probe_runs: int = 32
    #: Repeats per query shape for the latency distribution.
    query_repeats: int = 15
    #: Extra spec to time the matrix against (defaults to
    #: ``<prefix>-matrix``, the bounded family the builder creates).
    matrix_spec: Optional[str] = None

    def __post_init__(self):
        if self.probe_runs < 1 or self.query_repeats < 1:
            raise ReproError(
                "probe_runs and query_repeats must be >= 1"
            )


def _existing(workspace, spec_name: str) -> List[str]:
    try:
        return list(workspace.runs(spec_name))
    except NotFoundError:
        return []


def _drive_ingest(workspace, config: DriverConfig) -> dict:
    spec_name = f"{config.prefix}-probe"
    existing = set(_existing(workspace, spec_name))
    target = len(existing) + config.probe_runs
    workload = make_workload(
        "pipeline",
        spec_name,
        seed=config.seed,
        runs=target,
        stages=5,
        width=3,
    )
    pending = [
        index
        for index in range(target)
        if workload.location(index)[1] not in existing
    ][: config.probe_runs]
    if not pending:
        raise ReproError(
            f"ingest probe found no fresh indices under {spec_name!r}"
        )
    # Generation is not what we are measuring — materialise the batch
    # first, then time imports alone.
    documents = [workload.document(index) for index in pending]
    started = time.monotonic()
    for document in documents:
        workspace.import_prov(
            document.document, name=document.run_name, diff=False
        )
    seconds = time.monotonic() - started
    logger.info(
        "scale ingest probe: %d runs in %.2fs (%.1f runs/s)",
        len(documents),
        seconds,
        len(documents) / seconds if seconds else 0.0,
    )
    return {
        "spec": spec_name,
        "runs": len(documents),
        "seconds": round(seconds, 4),
        "runs_per_second": round(
            len(documents) / seconds if seconds else 0.0, 2
        ),
    }


def _drive_matrix(workspace, config: DriverConfig) -> dict:
    spec_name = config.matrix_spec or f"{config.prefix}-matrix"
    runs = _existing(workspace, spec_name)
    if len(runs) < 2:
        raise ReproError(
            f"matrix driver needs >= 2 runs under {spec_name!r}; "
            "build the corpus first (repro scale build)"
        )
    started = time.monotonic()
    cold = workspace.matrix(spec=spec_name)
    cold_seconds = time.monotonic() - started
    started = time.monotonic()
    warm = workspace.matrix(spec=spec_name)
    warm_seconds = time.monotonic() - started
    if cold.distances != warm.distances:
        raise ReproError(
            "warm matrix disagreed with cold matrix — cache defect"
        )
    logger.info(
        "scale matrix %s: %d runs, cold %.2fs, warm %.2fs",
        spec_name,
        len(runs),
        cold_seconds,
        warm_seconds,
    )
    return {
        "spec": spec_name,
        "runs": len(runs),
        "pairs": len(cold.distances),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
    }


def _drive_query(workspace, config: DriverConfig) -> dict:
    spec_name = config.matrix_spec or f"{config.prefix}-matrix"
    samples_ms: List[float] = []
    shapes: Dict[str, dict] = {}
    for label, shape in DEFAULT_QUERY_SHAPES:
        shape_samples: List[float] = []
        matched = 0
        # Repeat 0 is the warm-up: it may generate the edit scripts
        # the shape needs, so it is reported apart as ``cold_ms``.
        for _ in range(config.query_repeats + 1):
            started = time.monotonic()
            results = workspace.query(shape, spec=spec_name)
            shape_samples.append(
                (time.monotonic() - started) * 1000.0
            )
            matched = len(results)
        cold_ms, shape_samples = shape_samples[0], shape_samples[1:]
        samples_ms.extend(shape_samples)
        shapes[label] = {
            "matched": matched,
            "cold_ms": round(cold_ms, 3),
            "p50_ms": round(percentile(shape_samples, 0.5), 3),
            "p95_ms": round(percentile(shape_samples, 0.95), 3),
        }
    # One *cold* bounded query over the freshly-probed runs: their
    # pairs are unpriced, so the packing lower bound can skip DPs
    # outright (``dp_skipped_by_bound``) — the fast path the stats
    # section of the report gates on.  The indexed p50/p95 above stay
    # warm-path numbers on purpose (the steady-state serving shape).
    probe_spec = f"{config.prefix}-probe"
    probe_runs = _existing(workspace, probe_spec)
    cold_bounded_ms = None
    if len(probe_runs) >= 2:
        # "Near-identical pairs" — a ceiling below the packing bound
        # of most distinct runs, so cold pairs get *skipped* by the
        # bound instead of priced (the dp_skipped_by_bound fast path).
        bounded = QueryFilter(max_cost=0.5)
        started = time.monotonic()
        workspace.query(
            bounded, spec=probe_spec, runs=probe_runs[-16:]
        )
        cold_bounded_ms = round(
            (time.monotonic() - started) * 1000.0, 3
        )
    report = {
        "spec": spec_name,
        "repeats": config.query_repeats,
        "p50_ms": round(percentile(samples_ms, 0.5), 3),
        "p95_ms": round(percentile(samples_ms, 0.95), 3),
        "cold_bounded_ms": cold_bounded_ms,
        "shapes": shapes,
    }
    logger.info(
        "scale query %s: p50 %.1fms p95 %.1fms",
        spec_name,
        report["p50_ms"],
        report["p95_ms"],
    )
    return report


def _ms_since(started: float) -> float:
    return round((time.monotonic() - started) * 1000.0, 3)


def _fresh_document(spec_name: str, seed: int, existing):
    """The next pipeline document of ``spec_name`` not yet stored.

    The scale build's pipeline family uses the workload's default shape,
    so a workload of the same name and seed shares its specification.
    """
    taken = set(existing)
    workload = make_workload(
        "pipeline", spec_name, seed=seed, runs=len(taken) + 1
    )
    for index in range(workload.runs):
        if workload.location(index)[1] not in taken:
            return workload.document(index)
    raise ReproError(f"no fresh run index under {spec_name!r}")


def _drive_family(workspace, config: DriverConfig) -> dict:
    from repro.interchange.prov_json import parse_prov_json
    from repro.stream.events import (
        ActivityEvent,
        EdgeEvent,
        events_from_document,
    )

    spec_name = f"{config.prefix}-pipeline"
    runs = _existing(workspace, spec_name)
    if len(runs) < 3:
        raise ReproError(
            f"family driver needs >= 3 runs under {spec_name!r}; "
            "build the corpus first (repro scale build)"
        )
    # Setup, not measured: prices whatever of the family is still cold.
    workspace.matrix(spec=spec_name)
    started = time.monotonic()
    workspace.matrix(spec=spec_name)
    matrix_ms = _ms_since(started)
    started = time.monotonic()
    workspace.medoid(spec=spec_name)
    medoid_ms = _ms_since(started)
    started = time.monotonic()
    workspace.outliers(spec=spec_name, top=5)
    outliers_ms = _ms_since(started)
    started = time.monotonic()
    workspace.nearest(runs[0], k=5, spec=spec_name)
    nearest_ms = _ms_since(started)

    document = _fresh_document(spec_name, config.seed, runs)
    session_id = f"family-{document.run_name}"
    events = events_from_document(
        parse_prov_json(document.document),
        session=session_id,
        spec_name=spec_name,
        run_name=document.run_name,
    )
    computed = workspace.stats["computed_pairs"]
    started = time.monotonic()
    session = workspace.stream(
        spec_name, document.run_name, session=session_id
    )
    session.flush()  # the run_open frame alone
    run_open_ms = _ms_since(started)
    for event in events:
        if isinstance(event, ActivityEvent):
            session.activity(event.node, event.label)
        elif isinstance(event, EdgeEvent):
            session.edge(event.src, event.dst)
    session.close_run()
    write_ms = _ms_since(started)
    write_dps = int(workspace.stats["computed_pairs"] - computed)
    logger.info(
        "scale family %s: %d runs, medoid %.1fms, write %.1fms "
        "(run_open %.1fms)",
        spec_name,
        len(runs),
        medoid_ms,
        write_ms,
        run_open_ms,
    )
    return {
        "spec": spec_name,
        "runs": len(runs),
        "warm_matrix_ms": matrix_ms,
        "medoid_ms": medoid_ms,
        "outliers_ms": outliers_ms,
        "nearest_ms": nearest_ms,
        "run_open_ms": run_open_ms,
        "write_ms": write_ms,
        "write_dps": write_dps,
        "written": document.run_name,
    }


def _stats_ratios(stats: Dict[str, float]) -> dict:
    """DP fast-path counters and ratios out of a ``/stats`` payload."""
    computed = float(stats.get("computed_pairs", 0) or 0)
    skipped = float(stats.get("dp_skipped_by_bound", 0) or 0)
    attempted = computed + skipped
    return {
        "computed_pairs": int(computed),
        "dp_skipped_by_bound": int(skipped),
        "dp_skip_ratio": (
            round(skipped / attempted, 4) if attempted else 0.0
        ),
    }


def drive_workloads(
    workspace, config: Optional[DriverConfig] = None
) -> dict:
    """Run every driver and return one combined report dict."""
    config = config or DriverConfig()
    report = {
        "ingest": _drive_ingest(workspace, config),
        "matrix": _drive_matrix(workspace, config),
        "query": _drive_query(workspace, config),
        "family": _drive_family(workspace, config),
    }
    stats = dict(workspace.stats)
    report["stats"] = _stats_ratios(stats)
    return report
