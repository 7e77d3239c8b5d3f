"""``repro`` — command-line access to a workflow store's corpus.

Installed as a console script (``[project.scripts]`` in
``pyproject.toml``); also runnable as ``python -m repro.cli``.
Subcommands over a store directory (the layout
:class:`~repro.io.store.WorkflowStore` maintains) — or, with
``--remote URL``, over a running ``repro serve`` endpoint:

.. code-block:: sh

    repro diff   STORE SPEC RUN_A RUN_B [--cost unit|length|power:E] [--ops]
                 [--backend serial|thread] [--jobs N]
    repro matrix STORE SPEC [--cost ...] [--json]
                 [--backend serial|thread] [--jobs N]
    repro query  STORE SPEC [--kind K] [--touches L] [--min-cost X]
                 [--max-cost X] [--min-ops N] [--max-ops N]
                 [--histogram] [--churn] [--json]
    repro import STORE DOC.json [--name RUN] [--spec-name NAME] [--json]
    repro export STORE SPEC RUN [--output FILE] [--script RUN_B]
    repro tail   STORE [--follow] [--interval S] [--json]
    repro serve  STORE [--host H] [--port N] [--workers N]
                 [--backend serial|thread] [--jobs N]
                 [--log-level L] [--log-format json|text|off]
                 [--drain-timeout S] [--max-body-bytes N]
    repro scale build STORE [--runs N] [--seed N] [--prefix P]
                 [--matrix-runs N] [--json]
    repro scale run   STORE [--prefix P] [--seed N] [--probe-runs N]
                 [--query-repeats N] [--json]

Every subcommand is a thin shell over the
:class:`repro.api_types.WorkspaceAPI` protocol: a local
:class:`repro.Workspace` (configured through
:class:`repro.ReproConfig`, sharing the corpus's persistent caches
under ``STORE/index/``) or a :class:`repro.client.RemoteWorkspace`
when ``--remote URL`` replaces the STORE argument — ``repro diff
--remote http://host:8321 SPEC A B`` runs the same code path against a
server.  ``serve`` hosts a store over HTTP
(:mod:`repro.service`); ``--backend``/``--jobs`` pick where cold
batches execute in-process (``serial`` by default), and ``serve
--workers N`` is the one path that runs the O(|E|³) DP on more than
one core.
``import`` ingests a PROV-JSON/OPM document (SP-izing foreign graphs,
with a report of any forced serialisations) and computes the new run's
distances to the corpus; ``export`` writes a stored run — or, with
``--script``, the edit script between two runs — back out as
PROV-JSON.  ``tail`` shows the live analytics of every *open*
streaming-ingestion session (nearest run, medoid distance bound,
outlier score, divergence flags) — snapshot by default, ``--follow``
to refresh until interrupted.

Exit codes are stable: ``0`` on success, ``1`` for any
:class:`~repro.errors.ReproError` (missing run, malformed document,
unreachable server, ...), ``2`` for command-line usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Union

from repro import __version__
from repro.backends.base import BACKEND_NAMES
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost, cost_from_spec
from repro.errors import CostModelError, ReproError
from repro.obs.logging import LOG_FORMATS, LOG_LEVELS

# Each command imports what it uses when it runs, so ``repro serve
# --workers N`` supervises without loading the library it serves.

#: What a subcommand operates on: local store or remote endpoint.
AnyWorkspace = Union["Workspace", "RemoteWorkspace"]  # noqa: F821


def _cost_model(text: str) -> CostModel:
    """Parse ``unit``, ``length``, or ``power:<epsilon>``."""
    try:
        return cost_from_spec(text)
    except CostModelError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _store_dir(text: str) -> Path:
    path = Path(text)
    if not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"store directory {text!r} does not exist"
        )
    return path


def _build_filter(args: argparse.Namespace):
    """The declarative filter the query flags describe."""
    from repro.api_types import QueryFilter

    return QueryFilter(
        kinds=tuple(args.kind or ()),
        touches=tuple(args.touches or ()),
        min_cost=args.min_cost,
        max_cost=args.max_cost,
        min_ops=args.min_ops,
        max_ops=args.max_ops,
    )


# -- subcommands --------------------------------------------------------
def _workspace(args: argparse.Namespace) -> AnyWorkspace:
    """The workspace a subcommand operates on, built from its flags.

    ``--remote URL`` selects a :class:`RemoteWorkspace` (the STORE
    positional must then be omitted); otherwise a local
    :class:`Workspace` over the STORE directory.
    """
    remote = getattr(args, "remote", None)
    store = getattr(args, "store", None)
    if remote:
        if store is not None:
            raise ReproError(
                "pass either a STORE directory or --remote URL, "
                "not both"
            )
        from repro.client import RemoteWorkspace

        return RemoteWorkspace(remote, cost=args.cost)
    if store is None:
        raise ReproError(
            "a STORE directory is required (or pass --remote URL)"
        )
    from repro.config import ReproConfig
    from repro.workspace import Workspace

    # Environment (``REPRO_*``) fills whatever the flags left unset;
    # explicit flags always win (from_env skips None overrides).
    return Workspace(
        store,
        ReproConfig.from_env(
            cost=args.cost,
            backend=getattr(args, "backend", None),
            jobs=getattr(args, "jobs", None),
        ),
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    outcome = _workspace(args).diff(
        args.run_a, args.run_b, spec=args.spec
    )
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"delta({args.run_a}, {args.run_b}) = {outcome.distance:g} "
        f"under {outcome.cost_model} ({outcome.op_count} ops)"
    )
    if args.ops:
        for position, op in enumerate(outcome.operations, start=1):
            print(f"  {position:3d}. {op}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    matrix = workspace.matrix(spec=args.spec)
    if args.json:
        print(
            json.dumps(matrix.to_dict(), indent=2, sort_keys=True)
        )
        return 0
    names = matrix.runs
    width = max([4] + [len(name) for name in names])
    header = " " * (width + 1) + " ".join(
        f"{name:>{width}}" for name in names
    )
    print(header)
    for a in names:
        cells = []
        for b in names:
            if a == b:
                cells.append(f"{0.0:>{width}g}")
            else:
                value = matrix.get((a, b), matrix.get((b, a), 0.0))
                cells.append(f"{value:>{width}g}")
        print(f"{a:>{width}} " + " ".join(cells))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    filter = _build_filter(args)
    docs = workspace.query(filter, spec=args.spec, cost=args.cost)
    # Aggregates and the match count cover the full result set; --limit
    # only truncates what is displayed.
    shown_docs = docs if args.limit is None else docs[: args.limit]
    if args.json:
        payload = {
            "spec": args.spec,
            "cost_model": args.cost.name,
            "predicate": filter.describe(),
            "total_matches": len(docs),
            "matches": [
                {
                    "run_a": doc.run_a,
                    "run_b": doc.run_b,
                    "distance": doc.distance,
                    "op_count": doc.op_count,
                }
                for doc in shown_docs
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{len(docs)} matching pair(s) for {filter.describe()} "
        f"under {args.cost.name}"
        + (
            f" (showing {len(shown_docs)})"
            if len(shown_docs) < len(docs)
            else ""
        )
    )
    for doc in shown_docs:
        print(
            f"  {doc.run_a} -> {doc.run_b}: "
            f"distance {doc.distance:g}, {doc.op_count} ops"
        )
    if args.histogram:
        from repro.query.aggregate import op_kind_histogram

        print("operation kinds:")
        for kind, count in sorted(op_kind_histogram(docs).items()):
            print(f"  {kind}: {count}")
    if args.churn:
        from repro.query.aggregate import module_churn

        print("module churn:")
        for entry in module_churn(docs)[:10]:
            print(
                f"  {entry.label}: {entry.operations} ops, "
                f"cost {entry.total_cost:g} across {entry.pairs} pairs"
            )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    if args.remote:
        return _import_remote(workspace, args)
    result, distances = workspace.import_prov(
        args.document,
        name=args.name,
        spec_name=args.spec_name,
        diff=True,
        cost=args.cost,
    )
    report = result.report
    if args.json:
        payload = {
            "spec": result.spec.name,
            "run": result.run.name,
            "origin": result.origin,
            "nodes": result.run.num_nodes,
            "edges": result.run.num_edges,
            "report": report.to_dict(),
            "new_pairs": {
                f"{a}|{b}": value for (a, b), value in distances.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"imported run {result.run.name!r} "
        f"({result.run.num_nodes} nodes, {result.run.num_edges} edges) "
        f"into specification {result.spec.name!r} [{result.origin}]"
    )
    for line in report.summary_lines():
        print(f"  {line}")
    print(f"  distances to existing corpus: {len(distances)} pair(s)")
    return 0


def _import_remote(workspace, args: argparse.Namespace) -> int:
    """``repro import --remote``: POST the document, print the summary."""
    summary = workspace.import_prov(
        args.document,
        name=args.name,
        spec_name=args.spec_name,
        diff=True,
        cost=args.cost,
    )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"imported run {summary.run_name!r} "
        f"({summary.nodes} nodes, {summary.edges} edges) "
        f"into specification {summary.spec_name!r} [{summary.origin}]"
    )
    for line in summary.report_lines:
        print(f"  {line}")
    print(
        f"  distances to existing corpus: "
        f"{len(summary.new_pairs)} pair(s)"
    )
    return 0


def _render_live(status) -> str:
    """One open session as a human-readable ``tail`` line."""
    flag = ""
    if status.flagged:
        flag = f"  ⚑ DIVERGING (since seq {status.flagged_at_seq})"
    elif status.threshold is not None:
        flag = f"  (threshold {status.threshold:g})"
    nearest = (
        f"nearest {status.nearest_run} >= {status.nearest_bound:g}"
        if status.nearest_run
        else "no corpus baseline"
    )
    medoid = (
        f", medoid {status.medoid_run} >= {status.medoid_bound:g}"
        if status.medoid_run
        else ""
    )
    return (
        f"{status.session}: {status.spec_name}/{status.run_name} "
        f"[{status.mode}] seq {status.seq}, "
        f"{status.activities} activities / {status.edges} edges — "
        f"{nearest}{medoid}, outlier {status.outlier_score:g}{flag}"
    )


def _cmd_tail(args: argparse.Namespace) -> int:
    """``repro tail``: live view of open streaming sessions."""
    import time as _time

    workspace = _workspace(args)
    while True:
        sessions = workspace.stream_live()
        if args.json:
            print(
                json.dumps(
                    [status.to_dict() for status in sessions],
                    indent=2,
                    sort_keys=True,
                )
            )
        elif not sessions:
            print("no open streaming sessions")
        else:
            for status in sessions:
                print(_render_live(status))
        if not args.follow:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: host a store over HTTP until stopped.

    SIGTERM and SIGINT trigger a graceful drain: the listener stops
    accepting, in-flight requests get ``--drain-timeout`` seconds to
    finish, and a final stats line is logged.  A second signal hard
    exits immediately.
    """
    import os
    import signal
    import threading

    from repro.config import ReproConfig

    config = ReproConfig.from_env(
        cost=args.cost,
        backend=args.backend,
        jobs=args.jobs,
        log_level=args.log_level,
        log_format=args.log_format,
        max_body_bytes=args.max_body_bytes,
        workers=getattr(args, "workers", None),
    )
    if config.workers >= 1:
        from repro.cluster.supervisor import ClusterServer

        server = ClusterServer(
            args.store, config, host=args.host, port=args.port
        )
    else:
        from repro.service.server import DiffServer

        server = DiffServer(
            args.store, config, host=args.host, port=args.port
        )
    stop_threads: List[threading.Thread] = []
    signals_seen = {"count": 0}

    def _drain(signum, frame):
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            # Second signal: the operator means it.  Skip the drain.
            os._exit(1)
        # stop() must not run on this (the serving) thread: shutdown()
        # would deadlock against the serve_forever loop it waits on.
        worker = threading.Thread(
            target=server.stop,
            args=(args.drain_timeout,),
            name="repro-drain",
            daemon=True,
        )
        stop_threads.append(worker)
        worker.start()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"serving {args.store} at {server.url} "
        "(SIGTERM/Ctrl-C drains and stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - non-main-thread sig
        print("shutting down")
    finally:
        server.stop(args.drain_timeout)
        for worker in stop_threads:
            worker.join(timeout=args.drain_timeout + 5)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    if args.script:
        text = json.dumps(
            workspace.export_script(
                args.run, args.script, spec=args.spec, cost=args.cost
            ),
            indent=2,
            sort_keys=True,
        )
    else:
        text = workspace.export_prov(args.run, spec=args.spec)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf8")
        except OSError as exc:
            raise ReproError(
                f"cannot write {args.output!r}: {exc}"
            ) from None
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_scale_build(args: argparse.Namespace) -> int:
    """``repro scale build``: materialise a seeded corpus.

    Batched, resumable, progress-logged: interrupting and re-running
    picks up where the build stopped, and a completed build re-runs as
    a cheap skip-scan.  Works against a local store directory or (with
    ``--remote``) a running diff server / cluster — every document
    enters through ``import_prov`` / ``POST /prov/import``.
    """
    from repro.scale.build import BuildPlan, CorpusBuilder

    workspace = _workspace(args)
    plan = BuildPlan(
        runs=args.runs,
        seed=args.seed,
        prefix=args.prefix,
        matrix_runs=args.matrix_runs,
        batch=args.batch,
    )
    report = CorpusBuilder(workspace, plan).build()
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"built {payload['imported']} run(s) "
        f"({payload['skipped']} already present) in "
        f"{payload['seconds']:g}s — "
        f"{payload['runs_per_second']:g} runs/s"
    )
    for family, count in payload["families"].items():
        print(f"  {family}: {count} imported")
    if payload["foreign_documents"]:
        print(
            f"  foreign documents: {payload['foreign_documents']} "
            f"({payload['non_sp_documents']} non-SP, "
            f"{payload['forced_serializations']} forced "
            "serialisations)"
        )
    return 0


def _cmd_scale_run(args: argparse.Namespace) -> int:
    """``repro scale run``: drive ingest/matrix/query/family workloads.

    Requires a corpus built by ``repro scale build`` with the same
    ``--prefix``.  Prints throughput/latency results; ``--json`` emits
    the full report (the shape ``bench_scale.py`` commits as
    ``BENCH_scale.json``).
    """
    from repro.scale.drivers import DriverConfig, drive_workloads

    workspace = _workspace(args)
    config = DriverConfig(
        prefix=args.prefix,
        seed=args.seed,
        probe_runs=args.probe_runs,
        query_repeats=args.query_repeats,
    )
    report = drive_workloads(workspace, config)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    ingest = report["ingest"]
    matrix = report["matrix"]
    query = report["query"]
    family = report["family"]
    stats = report["stats"]
    print(
        f"ingest: {ingest['runs']} run(s) in {ingest['seconds']:g}s "
        f"— {ingest['runs_per_second']:g} runs/s"
    )
    print(
        f"matrix [{matrix['spec']}]: {matrix['runs']} runs / "
        f"{matrix['pairs']} pairs — cold {matrix['cold_seconds']:g}s, "
        f"warm {matrix['warm_seconds']:g}s"
    )
    print(
        f"query  [{query['spec']}]: p50 {query['p50_ms']:g}ms, "
        f"p95 {query['p95_ms']:g}ms over {query['repeats']} repeats"
    )
    print(
        f"family [{family['spec']}]: {family['runs']} runs — medoid "
        f"{family['medoid_ms']:g}ms, streamed write "
        f"{family['write_ms']:g}ms (run_open {family['run_open_ms']:g}ms)"
    )
    print(
        f"dp fast paths: {stats['dp_skipped_by_bound']} skipped by "
        f"bound (skip ratio {stats['dp_skip_ratio']:g})"
    )
    return 0


# -- wiring -------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Differencing provenance in scientific workflows: diff, "
            "distance matrices, and edit-script queries over a store "
            "or a remote diff server."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "store",
            type=_store_dir,
            nargs="?",
            default=None,
            help="workflow store directory (omit with --remote)",
        )
        sub.add_argument("spec", help="specification name")
        sub.add_argument(
            "--cost",
            type=_cost_model,
            default=UnitCost(),
            help="cost model: unit, length, or power:E (default unit)",
        )
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )
        sub.add_argument(
            "--remote",
            metavar="URL",
            default=None,
            help="operate on a running `repro serve` endpoint "
            "instead of a local store directory",
        )

    def backend_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            choices=list(BACKEND_NAMES),
            default=None,
            help="where cold diff batches execute (default serial, or "
            "REPRO_BACKEND; the pure-Python DP gains nothing from "
            "threads)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="parallelism of the backend (default: auto)",
        )

    diff = commands.add_parser(
        "diff", help="edit distance and script between two stored runs"
    )
    common(diff)
    diff.add_argument("run_a")
    diff.add_argument("run_b")
    diff.add_argument(
        "--ops", action="store_true", help="print every path operation"
    )
    backend_flags(diff)
    diff.set_defaults(func=_cmd_diff)

    matrix = commands.add_parser(
        "matrix", help="all-pairs distance matrix of a specification"
    )
    common(matrix)
    backend_flags(matrix)
    matrix.set_defaults(func=_cmd_matrix)

    query = commands.add_parser(
        "query", help="search the corpus's edit scripts with predicates"
    )
    common(query)
    query.add_argument(
        "--kind",
        action="append",
        metavar="KIND",
        help="require an operation of this kind (repeatable, OR-ed)",
    )
    query.add_argument(
        "--touches",
        action="append",
        metavar="LABEL",
        help="require an operation touching this label (repeatable)",
    )
    query.add_argument("--min-cost", type=float, default=None)
    query.add_argument("--max-cost", type=float, default=None)
    query.add_argument("--min-ops", type=int, default=None)
    query.add_argument("--max-ops", type=int, default=None)
    query.add_argument(
        "--limit", type=int, default=None, help="show at most N matches"
    )
    query.add_argument(
        "--histogram",
        action="store_true",
        help="also print the operation-kind histogram",
    )
    query.add_argument(
        "--churn",
        action="store_true",
        help="also print the per-module churn ranking",
    )
    query.set_defaults(func=_cmd_query)

    imp = commands.add_parser(
        "import",
        help="ingest a PROV-JSON/OPM provenance document into a store",
    )
    # The store is created on demand: importing into a fresh directory
    # is the natural first step of a new corpus.
    imp.add_argument(
        "store",
        type=Path,
        nargs="?",
        default=None,
        help="workflow store directory (created; omit with --remote)",
    )
    imp.add_argument(
        "--remote",
        metavar="URL",
        default=None,
        help="import into a running `repro serve` endpoint instead",
    )
    imp.add_argument(
        "document", help="PROV-JSON (or OPM dialect) file to import"
    )
    imp.add_argument(
        "--name", default="", help="run name (defaults from the document)"
    )
    imp.add_argument(
        "--spec-name",
        default=None,
        help="specification name for foreign documents (default "
        "'imported'; embedded plans keep their own name)",
    )
    imp.add_argument(
        "--cost",
        type=_cost_model,
        default=UnitCost(),
        help="cost model for the new run's corpus distances",
    )
    imp.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    imp.set_defaults(func=_cmd_import)

    exp = commands.add_parser(
        "export",
        help="write a stored run (or an edit script) as PROV-JSON",
    )
    exp.add_argument(
        "store", type=_store_dir, help="workflow store directory"
    )
    exp.add_argument("spec", help="specification name")
    exp.add_argument("run", help="run to export")
    exp.add_argument(
        "--script",
        metavar="RUN_B",
        default=None,
        help="export the edit script from RUN to RUN_B instead",
    )
    exp.add_argument(
        "--cost",
        type=_cost_model,
        default=UnitCost(),
        help="cost model for --script (default unit)",
    )
    exp.add_argument(
        "--output", "-o", default=None, help="write to a file"
    )
    exp.set_defaults(func=_cmd_export)

    tail = commands.add_parser(
        "tail",
        help="live analytics of open streaming-ingestion sessions",
    )
    tail.add_argument(
        "store",
        type=_store_dir,
        nargs="?",
        default=None,
        help="workflow store directory (omit with --remote)",
    )
    tail.add_argument(
        "--remote",
        metavar="URL",
        default=None,
        help="watch a running `repro serve` endpoint instead",
    )
    tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep refreshing until interrupted",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes with --follow (default 2)",
    )
    tail.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    tail.set_defaults(func=_cmd_tail, cost=None)

    srv = commands.add_parser(
        "serve",
        help="serve a workflow store over HTTP (the diff service)",
    )
    # Created on demand: serving an empty directory is a valid way to
    # start a corpus — clients register and import over the wire.
    srv.add_argument(
        "store", type=Path, help="workflow store directory (created)"
    )
    srv.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    srv.add_argument(
        "--port",
        type=int,
        default=8321,
        metavar="N",
        help="bind port (default 8321; 0 picks a free port)",
    )
    srv.add_argument(
        "--cost",
        type=_cost_model,
        default=None,
        help="server-side default cost model "
        "(default unit, or REPRO_COST)",
    )
    backend_flags(srv)
    srv.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default=None,
        help="logging threshold (default info, or REPRO_LOG_LEVEL)",
    )
    srv.add_argument(
        "--log-format",
        choices=list(LOG_FORMATS),
        default=None,
        help="log output format (default text, or REPRO_LOG_FORMAT; "
        "json emits one object per line, off silences)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="serve through N pre-forked worker processes sharing "
        "one socket (default 0 = single process, or REPRO_WORKERS)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to wait for in-flight requests on shutdown "
        "(default 10)",
    )
    srv.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="N",
        help="refuse request bodies larger than N bytes with a 413 "
        "(default 64 MiB, or REPRO_MAX_BODY_BYTES)",
    )
    srv.set_defaults(func=_cmd_serve)

    scale = commands.add_parser(
        "scale",
        help="build and drive 10³–10⁴-run benchmark corpora",
    )
    scale_commands = scale.add_subparsers(
        dest="scale_command", required=True
    )

    def scale_common(sub: argparse.ArgumentParser) -> None:
        # Created on demand, like `import`: building into a fresh
        # directory is the normal first step.
        sub.add_argument(
            "store",
            type=Path,
            nargs="?",
            default=None,
            help="workflow store directory (created; omit with "
            "--remote)",
        )
        sub.add_argument(
            "--remote",
            metavar="URL",
            default=None,
            help="target a running `repro serve` endpoint (single "
            "process or cluster) instead of a local store",
        )
        sub.add_argument(
            "--prefix",
            default="scale",
            help="corpus naming prefix (default 'scale')",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=20090329,
            metavar="N",
            help="generator seed (same seed => byte-identical corpus)",
        )
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    build = scale_commands.add_parser(
        "build",
        help="materialise a seeded corpus (batched, resumable)",
    )
    scale_common(build)
    build.add_argument(
        "--runs",
        type=int,
        default=1000,
        metavar="N",
        help="corpus size across families (default 1000)",
    )
    build.add_argument(
        "--matrix-runs",
        type=int,
        default=32,
        metavar="N",
        help="size of the dedicated matrix/query family (default 32)",
    )
    build.add_argument(
        "--batch",
        type=int,
        default=64,
        metavar="N",
        help="progress-log every N imports (default 64)",
    )
    backend_flags(build)
    build.set_defaults(func=_cmd_scale_build, cost=UnitCost())

    run = scale_commands.add_parser(
        "run",
        help="drive ingest/matrix/query workloads against a corpus",
    )
    scale_common(run)
    run.add_argument(
        "--probe-runs",
        type=int,
        default=32,
        metavar="N",
        help="fresh documents per ingest probe (default 32)",
    )
    run.add_argument(
        "--query-repeats",
        type=int,
        default=15,
        metavar="N",
        help="repeats per query shape for p50/p95 (default 15)",
    )
    backend_flags(run)
    run.set_defaults(func=_cmd_scale_run, cost=UnitCost())

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point; returns the process exit code.

    Exit codes are part of the CLI contract: ``0`` success, ``1`` any
    :class:`ReproError`, ``2`` usage errors (argparse), ``141`` broken
    pipe.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe early —
        # the conventional exit, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
