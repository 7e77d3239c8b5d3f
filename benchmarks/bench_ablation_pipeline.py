"""Ablation A3: where the differencing time goes.

Splits one real-workflow diff into its pipeline stages — annotated-tree
construction (Algorithms 2/5), deletion tables (Algorithm 3), the
edit-distance DP (Algorithms 4/6), and script generation (Lemma 5.1) —
and reports the share of each.  The DP is lazy, so its stage times
construction *and* ``.distance``.

The asserted "dp" stage is the paper's DP
(:class:`~repro.baselines.identity_dp.IdentityKeyedComputation`, every
cell keyed by node identity), which is what Section V-D analyses:
there the matching/DP stage dominates while tree construction stays
near-linear.  The product's DP (``dp, shape cells``: the ``≡``-shortcut
and shared cells) is reported beside it without an assertion; it is
not part of the split, and on PGAQ it runs faster than annotation.
"""

import statistics

from repro.baselines.identity_dp import IdentityKeyedComputation
from repro.core.deletion import DeletionTables
from repro.core.edit_distance import EditDistanceComputation
from repro.core.edit_script import generate_script
from repro.costs.standard import UnitCost
from repro.sptree.annotate_run import annotate_run_tree
from repro.workflow.real_workflows import pgaq

from _workloads import emit, run_pair_with_total_edges, scaled, timed

TOTAL_EDGES = scaled(900)
SAMPLES = 3
STAGES = ("annotate", "deletion", "dp", "script")
PRODUCT_DP = "dp, shape cells"


def solve(computation_class, spec, tree1, tree2, cost):
    """Build a DP and run it to the distance."""
    computation = computation_class(spec, tree1, tree2, cost)
    computation.distance
    return computation


def sweep():
    spec = pgaq()
    cost = UnitCost()
    stage_times = {stage: [] for stage in STAGES + (PRODUCT_DP,)}
    for sample in range(SAMPLES):
        one, two = run_pair_with_total_edges(
            spec, TOTAL_EDGES, seed=sample + 1
        )
        elapsed, tree1 = timed(annotate_run_tree, spec, one.graph)
        elapsed2, tree2 = timed(annotate_run_tree, spec, two.graph)
        stage_times["annotate"].append(elapsed + elapsed2)

        elapsed, _ = timed(DeletionTables, tree1, cost)
        elapsed2, _ = timed(DeletionTables, tree2, cost)
        stage_times["deletion"].append(elapsed + elapsed2)

        elapsed, computation = timed(
            solve, IdentityKeyedComputation, spec, tree1, tree2, cost
        )
        stage_times["dp"].append(elapsed)

        elapsed, _ = timed(generate_script, computation)
        stage_times["script"].append(elapsed)

        elapsed, _ = timed(
            solve, EditDistanceComputation, spec, tree1, tree2, cost
        )
        stage_times[PRODUCT_DP].append(elapsed)
    return {
        stage: statistics.mean(values)
        for stage, values in stage_times.items()
    }


def test_pipeline_split(benchmark):
    shares = sweep()
    total = sum(shares[stage] for stage in STAGES)
    lines = [
        f"Ablation A3: pipeline time split (PGAQ, ~{TOTAL_EDGES} total edges)",
        f"{'stage':16s} {'seconds':>10} {'share':>7}",
    ]
    for stage in STAGES:
        lines.append(
            f"{stage:16s} {shares[stage]:>10.5f} "
            f"{100 * shares[stage] / total:>6.1f}%"
        )
    lines.append(f"{PRODUCT_DP:16s} {shares[PRODUCT_DP]:>10.5f} {'-':>7}")
    emit("ablation_pipeline", lines)

    # At scale the superlinear DP stage (matchings over homologous
    # pairs) outgrows near-linear tree construction, per Section V-D.
    assert shares["dp"] >= shares["annotate"] * 0.5

    spec = pgaq()
    one, two = run_pair_with_total_edges(spec, TOTAL_EDGES, seed=11)
    tree1 = annotate_run_tree(spec, one.graph)
    tree2 = annotate_run_tree(spec, two.graph)
    benchmark.pedantic(
        solve,
        args=(IdentityKeyedComputation, spec, tree1, tree2, UnitCost()),
        rounds=3,
        iterations=1,
    )
