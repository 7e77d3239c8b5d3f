"""``matrix-cold``: cold all-pairs matrices and cold edit-script sweeps.

Set-up imports one pipeline family into a store.  Each measured round
then drops the store's derived state (``index/``), opens a fresh
``Workspace`` (thread backend, one job per core) and times a cold
``Workspace.matrix`` followed by a cold ``Workspace.diff_many`` over a
seeded pair sample.  ``core`` and ``backends`` do almost all the work;
ingest does none.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import shutil
import time

from harness import common, inputs, layers, procstat, spans

#: Unordered matrix pairs recomputed from scratch per run.
DISTANCE_AUDIT = 24
#: diff_many outcomes re-derived and verified per run.
SCRIPT_AUDIT = 8


def _config():
    from repro import ReproConfig

    return ReproConfig(log_format="off", jobs=common.cpu_cores())


def _setup(ctx, family, attempt: int):
    from repro import Workspace

    store = common.fresh_dir(os.path.join(ctx.state, f"matrix-store-{attempt}"))
    started = time.perf_counter()
    workspace = Workspace(store, _config())
    for document in family:
        workspace.import_prov(
            document.document, name=document.run_name, diff=False
        )
    return store, time.perf_counter() - started


def _digest(matrix) -> str:
    rows = sorted((a, b, repr(d)) for (a, b), d in matrix.distances.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _busy_seconds(workspace) -> float:
    samples = workspace.metrics.snapshot().get(
        "backend_busy_seconds_total", {}
    ).get("samples", [])
    return sum(sample["value"] for sample in samples)


def _round(store, pairs, tracer, op_id):
    """One cold round; returns its measurements."""
    from repro import Workspace

    shutil.rmtree(os.path.join(store, "index"), ignore_errors=True)
    gc.collect()  # earlier rounds' garbage is not this round's cost
    with tracer.op(op_id) if tracer else contextlib.nullcontext() as traced:
        began = time.perf_counter()
        workspace = Workspace(store, _config())
        matrix = workspace.matrix(spec=inputs.MATRIX_SPEC)
        middle = time.perf_counter()
        outcomes = list(workspace.diff_many(pairs, spec=inputs.MATRIX_SPEC))
        ended = time.perf_counter()
    stats = workspace.stats
    return {
        "traced": bool(traced),
        "digest": _digest(matrix),
        "matrix": matrix,
        "outcomes": outcomes,
        "seconds": ended - began,
        "matrix_s": middle - began,
        "scripts_s": ended - middle,
        "sizes": (len(matrix.distances), len(outcomes)),
        "dp_calls": stats["computed_pairs"] + stats["computed_scripts"],
        "busy_s": _busy_seconds(workspace),
    }


def _rounds(store, pairs, seconds, tracer=None):
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        op_id = len(rounds) + 1
        if tracer is not None:
            tracer.active = op_id % 2 == 0
        if rounds:  # only the last round's results are audited
            rounds[-1].update(matrix=None, outcomes=None)
        rounds.append(_round(store, pairs, tracer, op_id))
    if tracer is not None:
        tracer.active = False
    return rounds


def _check(ctx, store, family, rounds, pairs, tally) -> None:
    """Digest stability, distance audit, script audit."""
    from repro.core.api import diff_runs, distance_only
    from repro.core.verify import verify_diff
    from repro.io.store import WorkflowStore

    digests = {r["digest"] for r in rounds}
    tally.check(len(digests) == 1, f"matrix digests differ: {digests}")
    digest = digests.pop()
    folder = os.path.join(ctx.state, "digests")
    os.makedirs(folder, exist_ok=True)
    # Keyed by the inputs too: a change of the benchmark's inputs is a
    # new matrix, a change of the program must not be.
    inputs_key = hashlib.sha256(
        json.dumps([[d.document for d in family], pairs]).encode()
    ).hexdigest()[:16]
    path = os.path.join(folder, f"matrix-cold-{ctx.seed}-{inputs_key}.txt")
    if os.path.exists(path):
        with open(path, encoding="ascii") as handle:
            tally.check(
                handle.read().strip() == digest,
                f"matrix digest differs from an earlier run of seed {ctx.seed}",
            )
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(digest + "\n")

    fresh = WorkflowStore(store)
    spec = fresh.load_specification(inputs.MATRIX_SPEC)
    runs = {}

    def load(name):
        if name not in runs:
            runs[name] = fresh.load_run(spec, name)
        return runs[name]

    matrix = rounds[-1]["matrix"]
    rng = random.Random(f"audit|{ctx.seed}")
    for a, b in rng.sample(sorted(matrix.distances), DISTANCE_AUDIT):
        again = distance_only(load(a), load(b))
        tally.check(
            again == matrix.distances[(a, b)],
            f"distance {a},{b}: {again!r} != {matrix.distances[(a, b)]!r}",
        )
    outcomes = dict(zip(pairs, rounds[-1]["outcomes"]))
    for a, b in rng.sample(pairs, SCRIPT_AUDIT):
        outcome = outcomes[(a, b)]
        result = diff_runs(load(a), load(b), with_script=True)
        report = verify_diff(result)
        cost = sum(op.cost for op in outcome.operations)
        same_script = [op.to_dict() for op in outcome.operations] == [
            op.to_dict() for op in result.script.operations
        ]
        tally.check(
            report.ok
            and outcome.distance == result.distance
            and abs(cost - outcome.distance) <= 1e-9
            and same_script,
            f"script {a}->{b} does not verify ({report.problems[:2]})",
        )


def run(ctx) -> dict:
    family = inputs.matrix_family(ctx.seed)
    names = sorted(document.run_name for document in family)
    pairs = inputs.directed_pair_sample(
        names, inputs.MATRIX_SCRIPT_PAIRS, random.Random(f"sweep|{ctx.seed}")
    )
    tally = common.Tally()
    setups = []
    repeats = 1 if ctx.trace else common.SETUP_REPEATS
    for attempt in range(repeats):
        store, seconds = _setup(ctx, family, attempt)
        setups.append(seconds)

    tracer = None
    if ctx.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    with procstat.Phase([os.getpid()]) as phase:
        rounds = _rounds(
            store, pairs, ctx.seconds * (2 if ctx.trace else 1), tracer
        )
    matrix_pairs = len(names) * (len(names) - 1) // 2
    for measured in rounds:
        tally.op(
            measured["sizes"] == (matrix_pairs, len(pairs)),
            "round returned a short matrix or sweep",
        )
    _check(ctx, store, family, rounds, pairs, tally)

    if not ctx.trace:
        return {
            "tally": tally,
            "window": phase.window,
            "metrics": layers.end_to_end(
                setup_s=common.median(setups),
                peak_rss_mb=phase.peak_mb,
                throughput_per_s=common.median(
                    [matrix_pairs / r["matrix_s"] for r in rounds]
                ),
                latency_p50_ms=common.median([r["seconds"] for r in rounds])
                * 1e3,
                cpu_ms_per_op=phase.cpu_s * 1e3 / len(rounds),
            ),
        }

    tracer.dump(os.path.join(ctx.state, f"trace-matrix-cold-{ctx.seed}.jsonl"))
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    self_s, calls = spans.self_times(tracer.spans)
    checked, violating = spans.check_op_accounting(tracer.spans, "op")
    tally.check(
        violating == 0, f"{violating} of {checked} rounds over-account time"
    )
    values = layers.span_metrics(self_s, calls, len(traced))
    busy = sum(r["busy_s"] for r in rounds)
    values.update(
        {
            "core.dp_calls": common.median([r["dp_calls"] for r in rounds]),
            "backends.busy_s": busy / len(rounds),
            "backends.utilisation": busy
            / (sum(r["seconds"] for r in rounds) * common.cpu_cores()),
            "matrix_pairs_per_s": common.median(
                [matrix_pairs / r["matrix_s"] for r in untraced]
            ),
            "scripts_per_s": common.median(
                [len(pairs) / r["scripts_s"] for r in untraced]
            ),
            "error_ratio": common.ratio(tally.failed, tally.attempted),
            "obs.trace_overhead_pct": layers.overhead_pct(
                [r["seconds"] for r in untraced],
                [r["seconds"] for r in traced],
            ),
        }
    )
    return {
        "tally": tally,
        "window": phase.window,
        "metrics": layers.per_layer(values),
    }
