"""``ingest-flood``: a closed loop of ``Workspace.import_prov`` calls.

One in-process client imports fresh documents with ``diff=False``:
embedded-plan pipeline runs spread over a few specifications, plus
foreign non-SP documents that take the SP-ization path.  Set-up makes
a store that already holds every specification and a few runs of
each, so the loop measures steady-state ingest.  ``core`` does no work
here.
"""

from __future__ import annotations

import contextlib
import os
import time

from harness import common, inputs, layers, procstat, spans

WARM_DOCUMENTS = 100
#: Enough documents that the loop never runs dry inside a run.
POOL = 2400
#: Operations per untraced or traced block of a traced run.
BLOCK = 25


def _import(workspace, document):
    if document.kind == "foreign":
        return workspace.import_prov(
            document.document,
            name=document.run_name,
            spec_name=document.spec_name,
            diff=False,
        )
    return workspace.import_prov(
        document.document, name=document.run_name, diff=False
    )


def _setup(ctx, warm, attempt: int):
    from repro import ReproConfig, Workspace

    store = common.fresh_dir(
        os.path.join(ctx.state, f"ingest-store-{attempt}")
    )
    started = time.perf_counter()
    workspace = Workspace(
        store, ReproConfig(log_format="off", jobs=common.cpu_cores())
    )
    for document in warm:
        _import(workspace, document)
    return workspace, store, time.perf_counter() - started


def _loop(workspace, documents, seconds, tally, tracer=None):
    """Import until ``seconds`` pass.

    Returns ``({traced: latencies}, elapsed, imported documents)``.
    With a ``tracer``, blocks of :data:`BLOCK` operations alternate
    between untraced and traced, so drift over the run falls on both
    sides of the overhead comparison alike.
    """
    latencies = {False: [], True: []}
    done = []
    started = time.perf_counter()
    deadline = started + seconds
    for op_id, document in enumerate(documents, start=1):
        if time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.active = (op_id // BLOCK) % 2 == 1
        with tracer.op(op_id) if tracer else contextlib.nullcontext() as traced:
            began = time.perf_counter()
            try:
                result = _import(workspace, document)
                ok = result.run.name == document.run_name
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                ok = False
                tally.failures.append(f"{document.run_name}: {exc}")
            ended = time.perf_counter()
        tally.op(ok, f"import {document.run_name}")
        latencies[bool(traced)].append(ended - began)
        done.append(document)
    if tracer is not None:
        tracer.active = False
    return latencies, time.perf_counter() - started, done


def _check_landed(workspace, done, tally) -> None:
    """Every imported run is listed exactly once under its spec."""
    by_spec = {}
    for document in done:
        by_spec.setdefault(document.spec_name, []).append(document.run_name)
    for spec_name, names in by_spec.items():
        listed = workspace.store.list_runs(spec_name)
        missing = [name for name in names if listed.count(name) != 1]
        tally.check(not missing, f"{spec_name} lost runs {missing[:3]}")


def run(ctx) -> dict:
    warm = inputs.ingest_documents(ctx.seed, WARM_DOCUMENTS, "warm")
    pool = inputs.ingest_documents(ctx.seed, POOL, "flood")
    tally = common.Tally()
    setups = []
    workspace = store = None
    repeats = 1 if ctx.trace else common.SETUP_REPEATS
    for attempt in range(repeats):
        workspace, store, seconds = _setup(ctx, warm, attempt)
        setups.append(seconds)
    if not ctx.trace:
        with procstat.Phase([os.getpid()]) as phase:
            latencies, elapsed, done = _loop(
                workspace, pool, ctx.seconds, tally
            )
        _check_landed(workspace, done, tally)
        samples = latencies[False]
        return {
            "tally": tally,
            "window": phase.window,
            "metrics": layers.end_to_end(
                setup_s=common.median(setups),
                peak_rss_mb=phase.peak_mb,
                throughput_per_s=len(done) / elapsed,
                latency_p50_ms=common.median(samples) * 1e3,
                cpu_ms_per_op=phase.cpu_s * 1e3 / len(done),
            ),
        }

    # Traced run: twice as long, alternating untraced and traced blocks.
    tracer = spans.Tracer()
    spans.install(tracer)
    with procstat.Phase([os.getpid()]) as phase:
        latencies, elapsed, done = _loop(
            workspace, pool, 2 * ctx.seconds, tally, tracer
        )
    _check_landed(workspace, done, tally)
    tracer.dump(os.path.join(ctx.state, f"trace-ingest-flood-{ctx.seed}.jsonl"))
    self_s, calls = spans.self_times(tracer.spans)
    untraced, traced = latencies[False], latencies[True]
    checked, violating = spans.check_op_accounting(tracer.spans, "op")
    tally.check(
        violating == 0, f"{violating} of {checked} ops over-account time"
    )
    values = layers.span_metrics(self_s, calls, len(traced))
    values.update(
        {
            "io.spec_parses_per_import": common.ratio(
                calls.get("io.spec_parse", 0), len(traced)
            ),
            "io.bytes_written_per_import": common.ratio(
                phase.bytes_written, len(done)
            ),
            "ingest_runs_per_s": len(untraced) / sum(untraced),
            "ingest_p50_ms": common.percentile(untraced, 0.5) * 1e3,
            "ingest_p99_ms": common.percentile(untraced, 0.99) * 1e3,
            "error_ratio": common.ratio(tally.failed, tally.attempted),
            "obs.trace_overhead_pct": layers.overhead_pct(untraced, traced),
        }
    )
    return {
        "tally": tally,
        "window": phase.window,
        "metrics": layers.per_layer(values),
    }
