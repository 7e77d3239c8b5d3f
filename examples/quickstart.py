"""Quickstart: a Workspace over the paper's running example.

Builds the Fig. 2 specification, opens a :class:`repro.Workspace` on a
temporary store, generates three runs with different fork/loop
behaviour, and walks the unified API: ``diff`` (typed outcome),
``matrix`` (cached all-pairs distances), and ``view`` (the interactive
PDiffView panes).

Run with:  python examples/quickstart.py
"""

import tempfile

from repro import (
    ExecutionParams,
    FlowNetwork,
    ReproConfig,
    UnitCost,
    Workspace,
    WorkflowSpecification,
)


def build_specification() -> WorkflowSpecification:
    """Fig. 2(a): 1 -> 2 -> {3|4|5} -> 6 -> 7 with forks and a loop."""
    graph = FlowNetwork(name="fig2")
    for node in "1234567":
        graph.add_node(node)
    graph.add_edge("1", "2")
    for mid in "345":
        graph.add_edge("2", mid)
        graph.add_edge(mid, "6")
    graph.add_edge("6", "7")
    return WorkflowSpecification(
        graph,
        forks=[["2", "3", "6"], ["2", "4", "6"], ["2", "5", "6"]],
        loops=[("2", "6")],  # iterate the search section until converged
        name="fig2",
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        # One config wires everything: cost model, execution backend,
        # parallelism, caches.  "serial" (the default) and "thread"
        # are drop-in equivalents; `repro serve --workers N` is the
        # way to use more than one core.
        ws = Workspace(
            root, ReproConfig(cost=UnitCost(), backend="thread")
        )
        ws.register(build_specification())
        print(f"workspace: {ws}")
        print()

        params = ExecutionParams(
            prob_parallel=0.7,   # each branch taken with probability 0.7
            max_fork=3,          # forks replicate up to 3 copies
            prob_fork=0.6,
            max_loop=3,          # loops run up to 3 iterations
            prob_loop=0.6,
        )
        for seed, name in ((7, "monday"), (8, "friday"), (9, "sunday")):
            run = ws.generate_run(name, params=params, seed=seed)
            print(f"generated {run}")
        print()

        # One pair: a typed DiffOutcome with the full edit script.
        outcome = ws.diff("monday", "friday")
        print(outcome)
        for index, op in enumerate(outcome.operations, start=1):
            print(f"  {index:2d}. {op}")
        print()

        # All pairs: answered through the persistent distance cache
        # (a second call performs zero edit-distance DPs).
        print("distance matrix:")
        for (a, b), distance in sorted(ws.matrix().items()):
            print(f"  delta({a}, {b}) = {distance:g}")
        print()

        # The PDiffView surface: step through operations interactively.
        view = ws.view("monday", "friday")
        print(view.overview(max_operations=5))


if __name__ == "__main__":
    main()
