"""The paper's evaluation: Table I, Figs. 11-16 and ablations A1-A3.

``PYTHONPATH=src python benchmarks/bench_paper.py`` runs every
experiment of Section VIII, scaled down as ``_workloads`` explains, and
evaluates each claim the reproduction makes about it as a named check.
It writes ``benchmarks/results/BENCH_paper.json`` (per experiment: its
rows, and each check's verdict with the values it compared; plus
``cpu_cores``, the Python version and the scale) and
``BENCH_paper.txt`` (the tables), and exits 1 naming every false check.
``REPRO_BENCH_SCALE`` (default 1.0) grows or shrinks the sweeps; there
is no flag.  Some checks compare timings, which a heavily loaded
machine can upset.
"""

from __future__ import annotations

import json
import math
import operator
import os
import platform
import random
import re
import statistics
import sys

from _workloads import (
    RESULTS_DIR, SCALE, run_pair_with_total_edges, scaled, stable_seed, timed,
)

from repro.baselines.identity_dp import IdentityKeyedComputation
from repro.core.api import diff_runs
from repro.core.deletion import DeletionTables
from repro.core.edit_distance import EditDistanceComputation
from repro.core.edit_script import generate_script
from repro.costs.standard import PowerCost, UnitCost
from repro.matching.hungarian import match_children, solve_assignment
from repro.matching.noncrossing import noncrossing_match
from repro.sptree.annotate_run import annotate_run_tree
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import (
    balanced_fork_loop_specification, fig17b_specification, random_run_pair,
    random_specification,
)
from repro.workflow.real_workflows import TABLE_I, all_real_workflows, pgaq

#: Sample pairs (or matching instances) behind every point of a sweep.
SAMPLES = 3

#: The comparisons a check may make, by the symbol the JSON records.
COMPARISONS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


class Experiment:
    """One table of the evaluation: its rows and its named checks.

    ``columns`` maps each header to a format spec such as ``">9.4f"``;
    a row is a dict keyed by header, and a ``None`` cell prints ``-``.
    """

    def __init__(self, key, title, columns):
        self.key = key
        self.title = title
        self.columns = columns
        self.rows = []
        self.checks = {}

    def row(self, *cells):
        self.rows.append(dict(zip(self.columns, cells)))

    def check(self, name, left, op, right, **context):
        """Record ``<key>.<name>``: whether ``left op right`` holds; a
        dict ``left`` must hold at every key, against the same key of a
        dict ``right`` or against a scalar ``right``."""
        if not isinstance(left, dict):
            passed = COMPARISONS[op](left, right)
        else:
            bounds = right if isinstance(right, dict) else {}
            passed = all(
                COMPARISONS[op](value, bounds.get(key, right))
                for key, value in left.items()
            )
        self.checks[f"{self.key}.{name}"] = {
            "passed": passed, "compared": [left, op, right], **context,
        }

    def table(self):
        """The title, the header and one line per row."""
        # A spec's alignment and width (">9.4f" -> ">9") format the
        # header and the dash of a None cell.
        width = {
            name: re.match(r"[<>]?\d+", spec).group()
            for name, spec in self.columns.items()
        }
        lines = [self.title, " ".join(format(h, width[h]) for h in width)]
        for row in self.rows:
            lines.append(" ".join(
                format(row[h], spec) if row[h] is not None
                else format("-", width[h])
                for h, spec in self.columns.items()
            ))
        return "\n".join(lines)


def means(measure):
    """The mean of each value ``measure(sample)`` returns, over
    :data:`SAMPLES` samples."""
    results = [measure(sample) for sample in range(SAMPLES)]
    return [statistics.mean(column) for column in zip(*results)]


def table1():
    """Table I: characteristics of the six real workflow specifications.

    Regenerates the exact table of Section VIII-A from the reconstructed
    specifications (graph build + canonical tree + Algorithm 1 + validation).
    """
    experiment = Experiment(
        "table1",
        "Table I: characteristics of real workflow specifications",
        {
            "WORKFLOW": "9s", "|V|": ">4", "|E|": ">4", "|F|": ">4",
            "||F||": ">6", "|L|": ">4", "||L||": ">6",
        },
    )
    specs = all_real_workflows()
    mismatched = []
    for name in ("PA", "EMBOSS", "SAXPF", "MB", "PGAQ", "BAIDD"):
        stats = specs[name].characteristics()
        experiment.rows.append({"WORKFLOW": name, **stats})
        if stats != TABLE_I[name]:
            mismatched.append(name)
    experiment.check("matches_paper", mismatched, "==", [])
    return experiment


def fig11():
    """Fig. 11: differencing time vs total run edges, real workflows.

    The paper varies the total edge count of a run pair from 200 to 2000 per
    specification and reports the time to compute the minimum-cost edit script
    (unit cost, averages over 100 sample pairs; XML parse time omitted — here
    runs are generated in memory, so there is nothing to omit).

    Scaled reproduction: totals 200-1200 (x ``REPRO_BENCH_SCALE``), 3 sample
    pairs per point, drawn from seeds that are the same in every process.  The
    claims preserved are the *shape*: time grows polynomially with the total
    edge count, no faster than Section V-D's O(|E|³) bound, and every workflow
    pair of <= 200 edges diffs in well under a second.  The order of the
    workflows is not the paper's: at 1,200 edges MB is the slowest here, then
    EMBOSS and PA, and the loop-heavy PGAQ is the fastest, with the paper's
    identity-keyed DP (MB 2.79 s, PGAQ 0.21 s per pair on a 2-core VM) and with
    the shape cells (MB 0.30 s, PGAQ 0.07 s).
    """
    experiment = Experiment(
        "fig11",
        "Fig. 11: execution time vs total edges in two runs "
        "(unit cost, script included)",
        {"workflow": "9s", "target": ">7", "edges": ">6", "seconds": ">9.4f"},
    )
    totals = [scaled(200), scaled(400), scaled(800), scaled(1200)]
    points = {}  # workflow -> [(mean achieved edges, mean seconds)]
    for name, spec in all_real_workflows().items():
        for total in totals:
            def measure(sample):
                one, two = run_pair_with_total_edges(
                    spec, total, seed=stable_seed(name, total, sample)
                )
                elapsed, _ = timed(diff_runs, one, two, cost=UnitCost())
                return one.num_edges + two.num_edges, elapsed
            edges, seconds = means(measure)
            points.setdefault(name, []).append((edges, seconds))
            experiment.row(name, total, int(edges), seconds)

    # Polynomial growth: larger runs take longer on average.
    check_growth(experiment, "workflow", "edges")
    # Practical speed at the paper's "typical" size (paper: <1 s at
    # 200 edges, in Java).
    small = [row["seconds"] for row in experiment.rows if row["edges"] <= 220]
    experiment.check(
        "small_pairs_under_5s", max(small, default=math.inf), "<", 5.0,
        pairs=len(small),
    )
    # The empirical exponent: the least-squares slope of log(seconds)
    # against log(edges) over the four totals.
    slopes = {name: loglog_slope(series) for name, series in points.items()}
    experiment.check("at_most_cubic", slopes, "<=", 3.0)
    return experiment


def check_growth(experiment, group, size):
    """``time_grows_with_size``: in each ``group`` of rows, the
    smallest ``size`` takes at most 3x the seconds of the largest
    (polynomial growth, with slack for timing noise on small inputs)."""
    smallest, largest = {}, {}
    for row in sorted(experiment.rows, key=lambda r: (r[size], r["seconds"])):
        smallest.setdefault(row[group], row["seconds"])
        largest[row[group]] = row["seconds"] * 3
    experiment.check("time_grows_with_size", smallest, "<=", largest)


def loglog_slope(points):
    """The least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x, mean_y = statistics.mean(xs), statistics.mean(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return covariance / sum((x - mean_x) ** 2 for x in xs)


def fig12_13():
    """Figs. 12 & 13: series vs parallel specifications.

    The paper generates fork/loop-free specifications with series/parallel
    composition ratios r ∈ {3, 1, 1/3} and |E| from 100 to 1000, draws run
    pairs with prob_p = 0.95, and reports (Fig. 12) the differencing time and
    (Fig. 13) the edit distance under unit cost, averaged over 200 samples.

    Scaled reproduction (sizes 80-320 x REPRO_BENCH_SCALE, 3 samples). The
    preserved claims:

    * Fig. 12 — series-heavy specifications are the expensive ones (the
      S-node deletion DP is the O(|E|³) part, vs linear work at P nodes);
    * Fig. 13 — run pairs of series-heavy specifications are *closer*
      (fewer parallel branches means runs look alike, and long paths are
      cheap to delete under unit cost).
    """
    experiment = Experiment(
        "fig12_13",
        "Figs. 12/13: series vs parallel (unit cost, prob_p = 0.95)",
        {"ratio": "7s", "|E|": ">5", "seconds": ">9.4f", "distance": ">9.2f"},
    )
    ratios = [("r=3", 3.0), ("r=1", 1.0), ("r=1/3", 1.0 / 3.0)]
    sizes = [scaled(80), scaled(160), scaled(240), scaled(320)]
    params = ExecutionParams(prob_parallel=0.95)
    for label, ratio in ratios:
        for size in sizes:
            def measure(sample):
                spec = random_specification(
                    size, ratio, seed=stable_seed(label, size, sample)
                )
                one, two = random_run_pair(spec, params, seed=sample + 17)
                elapsed, result = timed(diff_runs, one, two, cost=UnitCost())
                return elapsed, result.distance
            experiment.row(label, size, *means(measure))

    # The rows of r=3 and of r=1/3 at the largest size.
    series, parallel = experiment.rows[len(sizes) - 1], experiment.rows[-1]
    # Fig. 12: the series-heavy ratio is the slowest configuration
    # (S-node deletion DP); allow 20% sampling tolerance.
    experiment.check(
        "series_slowest", series["seconds"], ">=", 0.8 * parallel["seconds"]
    )
    # Fig. 13: series runs are closer than parallel runs.
    experiment.check(
        "series_closer", series["distance"], "<=", parallel["distance"]
    )
    # Time grows with size for every ratio.
    check_growth(experiment, "ratio", "|E|")
    return experiment


def fig14_15():
    """Figs. 14 & 15: forks vs loops.

    The paper fixes a 100-edge specification (r = 0.5) annotated with 5 forks
    and 5 loops, sets prob_p = 1 and maxF = maxL = 20, and sweeps the fork /
    loop probability from 0 to 1, comparing three run-pair kinds:

    * Fork vs Fork — both runs replicate forks only;
    * Fork vs Loop — one of each;
    * Loop vs Loop — both runs iterate loops only.

    Fig. 14 (time): fork-heavy pairs are by far the most expensive — fork
    copies are paired with a minimum-cost bipartite (Hungarian) matching and
    every copy pair needs a recursive mapping cost, whereas ordered loop
    iterations use the cheaper non-crossing DP, and mixed pairs produce tiny
    matching instances (fork copies never match loop copies).  Fig. 15
    (distance): FF and LL distances drop to **zero** as the probability reaches
    one (every fork/loop replicates exactly its maximum, so the runs coincide),
    while the FL distance grows monotonically.

    Scaled reproduction: 60-edge spec (r = 1 so enough series runs exist for
    *balanced* fork/loop elements — see ``balanced_fork_loop_specification``),
    maxF = maxL = 10, probabilities {0.2, 0.5, 0.8, 1.0}, 3 samples per point.
    """
    max_copies = 10
    experiment = Experiment(
        "fig14_15",
        "Figs. 14/15: fork vs loop (unit cost, prob_p = 1, "
        f"maxF = maxL = {max_copies}, balanced elements)",
        {
            "kind": "14s", "prob": ">5.1f", "seconds": ">9.4f",
            "distance": ">9.2f", "edges": ">6",
        },
    )

    def params(replicates, probability):
        """Parameters of a run whose forks, or loops, replicate."""
        forks = replicates == "Fork"
        return ExecutionParams(
            prob_parallel=1.0,
            max_fork=max_copies if forks else 1,
            prob_fork=probability if forks else 0.0,
            max_loop=1 if forks else max_copies,
            prob_loop=0.0 if forks else probability,
        )

    table = {}
    for first, second in (("Fork", "Fork"), ("Fork", "Loop"), ("Loop", "Loop")):
        kind = f"{first} vs {second}"
        for probability in [0.2, 0.5, 0.8, 1.0]:
            def measure(sample):
                spec = balanced_fork_loop_specification(
                    scaled(60), 1.0, num_forks=5, num_loops=5, seed=sample
                )
                seed = sample * 31 + 3
                one = execute_workflow(spec, params(first, probability), seed=seed)
                two = execute_workflow(
                    spec, params(second, probability), seed=seed + 5000
                )
                elapsed, result = timed(
                    diff_runs, one, two, cost=UnitCost(), with_script=False
                )
                return elapsed, result.distance, one.num_edges + two.num_edges
            seconds, distance, edges = means(measure)
            table[kind, probability] = (seconds, distance)
            experiment.row(kind, probability, seconds, distance, int(edges))

    ff = table["Fork vs Fork", 1.0]
    fl = table["Fork vs Loop", 1.0]
    ll = table["Loop vs Loop", 1.0]
    # Fig. 14 at full replication: fork-fork pairing dominates.
    experiment.check("ff_slower_than_ll", ff[0], ">=", ll[0])
    experiment.check("ff_slower_than_fl", ff[0], ">=", fl[0])
    # Fig. 15: FF and LL distances vanish at probability 1 (every
    # fork/loop replicates exactly max_copies, so the runs coincide)...
    experiment.check("ff_distance_zero", ff[1], "==", 0.0)
    experiment.check("ll_distance_zero", ll[1], "==", 0.0)
    # ... while mixed pairs keep growing with the probability.
    low = table["Fork vs Loop", 0.2][1]
    experiment.check("fl_distance_grows", fl[1], ">=", low)
    experiment.check("fl_distance_positive", fl[1], ">", 0.0)
    return experiment


def fig16():
    """Fig. 16: influence of the cost model on the produced edit script.

    The paper's last experiment uses the Fig. 17(b) specification — a fork
    connecting u and v by 10 parallel paths, the i-th of length i² — with
    maxF = 5, probF = 1 and prob_p = 0.5, so each run holds exactly 5 fork
    copies over random path subsets. For ε from 0 to 1 it computes the
    minimum-cost script under γ(l) = l^ε, re-prices that script under the
    unit (ε = 0) and length (ε = 1) models, and reports the average and
    worst-case percent error versus the respective optima over 100 pairs.

    Paper numbers: the length-optimal script averages 14% (worst 50%) error
    under unit cost; the unit-optimal script averages 16% (worst 64%) under
    length cost; intermediate ε trade the two off monotonically.

    Scaled reproduction: 6 paths (lengths 1..36), 12 pairs, ε ∈ {0, 0.25, 0.5,
    0.75, 1}.
    """
    experiment = Experiment(
        "fig16",
        "Fig. 16: percent error of minimum-cost scripts re-priced under "
        "the unit and length models",
        {
            "ε": ">5.2f", "avg unit-err%": ">14.1f", "max unit-err%": ">14.1f",
            "avg len-err%": ">13.1f", "max len-err%": ">13.1f",
        },
    )
    epsilons = [0.0, 0.25, 0.5, 0.75, 1.0]
    spec = fig17b_specification(6)
    params = ExecutionParams(prob_parallel=0.5, max_fork=5, prob_fork=1.0)
    models = {"unit": PowerCost(0.0), "length": PowerCost(1.0)}
    # Percent errors of each ε-optimal script under each model.
    errors = {(eps, model): [] for eps in epsilons for model in models}
    for pair_index in range(scaled(12, minimum=4)):
        one = execute_workflow(spec, params, seed=2 * pair_index)
        two = execute_workflow(spec, params, seed=2 * pair_index + 1)
        optima = {
            model: diff_runs(one, two, cost=cost).distance
            for model, cost in models.items()
        }
        for eps in epsilons:
            script = diff_runs(one, two, cost=PowerCost(eps)).script
            for model, optimum in optima.items():
                repriced = sum(
                    models[model].path_cost(op.length, op.source_label, op.sink_label)
                    for op in script.operations
                )
                if optimum > 0:
                    errors[eps, model].append(
                        100.0 * (repriced - optimum) / optimum
                    )

    for eps in epsilons:
        unit_errors = errors[eps, "unit"] or [0.0]
        length_errors = errors[eps, "length"] or [0.0]
        experiment.row(
            eps, statistics.mean(unit_errors), max(unit_errors),
            statistics.mean(length_errors), max(length_errors),
        )

    # Average errors of the unit-optimal (ε = 0) and the length-optimal
    # (ε = 1) scripts.
    unit_at_0 = experiment.rows[0]["avg unit-err%"]
    unit_at_1 = experiment.rows[-1]["avg unit-err%"]
    length_at_0 = experiment.rows[0]["avg len-err%"]
    length_at_1 = experiment.rows[-1]["avg len-err%"]
    # The ε-optimal script is exact under its own model...
    experiment.check("unit_script_exact", abs(unit_at_0), "<=", 1e-9)
    experiment.check("length_script_exact", abs(length_at_1), "<=", 1e-9)
    # ... and the cross-model errors are non-trivial at the extremes
    # (the paper reports 14-16% averages; shapes, not magnitudes, are
    # the claim at this scale).
    experiment.check("length_script_errs_under_unit", unit_at_1, ">", 0.0)
    experiment.check("unit_script_errs_under_length", length_at_0, ">", 0.0)
    # Monotone trade-off across ε (allowing small sampling noise).
    experiment.check("unit_error_trades_off", unit_at_1, ">=", unit_at_0 - 1e-9)
    experiment.check(
        "length_error_trades_off", length_at_0, ">=", length_at_1 - 1e-9
    )
    return experiment


def ablation_matching():
    """Ablation A1: Hungarian vs non-crossing matching (explains Fig. 14).

    The paper attributes the fork/loop running-time gap to the children
    matching step: fork copies are paired with the Hungarian algorithm
    while ordered loop iterations use the O(n·m) non-crossing DP.  This
    ablation times both matchers head-to-head on identical cost matrices
    of growing size, and certifies the Hungarian optimum on one instance
    of the largest size (which tier-1 also compares against SciPy).
    """
    experiment = Experiment(
        "ablation_matching",
        "Ablation A1: Hungarian (forks) vs non-crossing DP (loops)",
        {
            "n": ">5", "hungarian(s)": ">13.5f", "noncrossing(s)": ">15.5f",
            "ratio": ">7.1f",
        },
    )
    sizes = [scaled(10), scaled(20), scaled(40), scaled(80)]
    for size in sizes:
        def measure(sample):
            rng = random.Random(sample)
            pair = [[rng.uniform(0, 10) for _ in range(size)] for _ in range(size)]
            deletes = [rng.uniform(0, 10) for _ in range(size)]
            inserts = [rng.uniform(0, 10) for _ in range(size)]
            cost_fn = lambda i, j: pair[i][j]  # noqa: E731
            hungarian, _ = timed(match_children, cost_fn, deletes, inserts)
            noncrossing, _ = timed(noncrossing_match, cost_fn, deletes, inserts)
            return hungarian, noncrossing
        hungarian, noncrossing = means(measure)
        ratio = hungarian / noncrossing if noncrossing else float("inf")
        experiment.row(size, hungarian, noncrossing, ratio)

    # The asymptotic gap that drives Fig. 14: at the largest size the
    # Hungarian matcher costs strictly more than the alignment DP.
    largest = experiment.rows[-1]
    experiment.check(
        "hungarian_slower_at_largest",
        largest["hungarian(s)"], ">", largest["noncrossing(s)"],
    )
    rng = random.Random(5)
    size = sizes[-1]
    matrix = [[rng.uniform(0, 10) for _ in range(size)] for _ in range(size)]
    total, assignment = solve_assignment(matrix)
    experiment.check(
        "hungarian_optimal", exchange_gain(matrix, assignment), "<=", 1e-9,
        total=total,
    )
    return experiment


def exchange_gain(matrix, assignment):
    """How much a cyclic exchange of columns still lowers the cost of
    ``assignment``; 0 certifies it optimal.  Bellman-Ford over the rows,
    an edge i -> k pricing "row i takes row k's column": no cycle of
    such moves is negative exactly when the assignment is optimal, and
    then round ``n`` changes no distance."""
    n = len(matrix)
    own = [matrix[i][assignment[i]] for i in range(n)]
    reach = [0.0] * n  # the cheapest move sequence ending at each row
    for _ in range(n):
        gain = 0.0
        for i in range(n):
            for k in range(n):
                candidate = reach[i] + matrix[i][assignment[k]] - own[i]
                if candidate < reach[k] - 1e-12:
                    gain = max(gain, reach[k] - candidate)
                    reach[k] = candidate
        if not gain:
            break
    return gain


def ablation_deletion():
    """Ablation A2: the S-node deletion DP is the series-side bottleneck.

    Fig. 12's explanation: reducing a subtree rooted at an S node needs
    the knapsack-style convolution (O(|E|³) overall), while P/F/L nodes
    take the minimum over children in linear time.  This ablation times
    :class:`~repro.core.deletion.DeletionTables` on runs of pure-series
    vs pure-parallel specifications of equal edge count.
    """
    experiment = Experiment(
        "ablation_deletion",
        "Ablation A2: subtree-deletion tables, series vs parallel runs",
        {"shape": "9s", "|E|": ">5", "seconds": ">10.5f"},
    )
    params = ExecutionParams(prob_parallel=0.95)
    for size in [scaled(100), scaled(200), scaled(400)]:
        for label, ratio in (("series", 6.0), ("parallel", 1.0 / 6.0)):
            def measure(sample):
                spec = random_specification(
                    size, ratio, seed=stable_seed(label, size, sample)
                )
                run = execute_workflow(spec, params, seed=sample)
                elapsed, _ = timed(DeletionTables, run.tree, UnitCost())
                return (elapsed,)
            experiment.row(label, size, *means(measure))

    # The S-node convolution makes series runs the expensive shape (the
    # last two rows: the largest size, series then parallel).
    series, parallel = experiment.rows[-2:]
    experiment.check(
        "series_slower", series["seconds"], ">=", parallel["seconds"]
    )
    return experiment


def ablation_pipeline():
    """Ablation A3: where the differencing time goes.

    Splits one real-workflow diff into its pipeline stages — annotated-tree
    construction (Algorithms 2/5), deletion tables (Algorithm 3), the
    edit-distance DP (Algorithms 4/6), and script generation (Lemma 5.1) — and
    reports the share of each.  The DP is lazy, so its stage times construction
    *and* ``.distance``.

    The checked "dp" stage is the paper's DP
    (:class:`~repro.baselines.identity_dp.IdentityKeyedComputation`, every cell
    keyed by node identity), which is what Section V-D analyses: there the
    matching/DP stage dominates while tree construction stays near-linear.  The
    product's DP (``dp, shape cells``: the ``≡``-shortcut and shared cells) is
    reported beside it without a check; it is not part of the split, and on
    PGAQ it runs faster than annotation.
    """
    total_edges = scaled(900)
    experiment = Experiment(
        "ablation_pipeline",
        f"Ablation A3: pipeline time split (PGAQ, ~{total_edges} total edges)",
        {"stage": "16s", "seconds": ">10.5f", "share": ">7.1%"},
    )
    spec = pgaq()
    cost = UnitCost()

    def solve(computation_class, tree1, tree2):
        """Build a DP and run it to the distance."""
        computation = computation_class(spec, tree1, tree2, cost)
        computation.distance
        return computation

    def measure(sample):
        """Seconds of annotate, deletion, dp, script, dp with cells."""
        one, two = run_pair_with_total_edges(spec, total_edges, seed=sample + 1)
        annotate1, tree1 = timed(annotate_run_tree, spec, one.graph)
        annotate2, tree2 = timed(annotate_run_tree, spec, two.graph)
        deletion1, _ = timed(DeletionTables, tree1, cost)
        deletion2, _ = timed(DeletionTables, tree2, cost)
        dp, computation = timed(solve, IdentityKeyedComputation, tree1, tree2)
        script, _ = timed(generate_script, computation)
        cells, _ = timed(solve, EditDistanceComputation, tree1, tree2)
        return annotate1 + annotate2, deletion1 + deletion2, dp, script, cells

    *split, cells = means(measure)
    for stage, seconds in zip(("annotate", "deletion", "dp", "script"), split):
        experiment.row(stage, seconds, seconds / sum(split))
    experiment.row("dp, shape cells", cells, None)
    # At scale the superlinear DP stage (matchings over homologous
    # pairs) outgrows near-linear tree construction, per Section V-D.
    annotate, _, dp, _ = split
    experiment.check("dp_outgrows_annotate", dp, ">=", annotate * 0.5)
    return experiment


def main() -> int:
    report = {
        "cpu_cores": os.cpu_count(),
        "python": platform.python_version(),
        "scale": SCALE,
        "experiments": {},
    }
    tables = []
    checks = {}
    for run in (
        table1, fig11, fig12_13, fig14_15, fig16,
        ablation_matching, ablation_deletion, ablation_pipeline,
    ):
        seconds, experiment = timed(run)
        tables.append(experiment.table())
        print(tables[-1], f"({seconds:.1f} s)", "", sep="\n", flush=True)
        report["experiments"][experiment.key] = {
            "seconds": round(seconds, 2),
            "rows": experiment.rows,
            "checks": experiment.checks,
        }
        checks.update(experiment.checks)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_text = json.dumps(report, indent=2, ensure_ascii=False)
    (RESULTS_DIR / "BENCH_paper.json").write_text(json_text + "\n", "utf8")
    (RESULTS_DIR / "BENCH_paper.txt").write_text("\n\n".join(tables) + "\n", "utf8")
    failed = [name for name, check in checks.items() if not check["passed"]]
    print(f"{len(checks) - len(failed)} of {len(checks)} checks hold")
    for name in failed:
        print(f"FAILED {name}: {json.dumps(checks[name])}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
