"""Property: memoised spec-side tables annotate runs exactly like fresh ones.

``annotate_run_tree`` reuses the specification side of ``f''`` (edge
label pairs, loop markers, ``T_G`` subtree images) across every run of
a specification.  Against a fresh annotator built for each run, the
annotated trees must agree in structure key, run fingerprint, and the
origin of every node.
"""

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.corpus.fingerprint import run_fingerprint, spec_fingerprint
from repro.errors import SpecificationError
from repro.sptree.annotate_run import (
    _Annotator,
    _SpecTables,
    annotate_run_tree,
)
from repro.sptree.canonical import canonical_sp_tree
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification
from repro.workflow.run import WorkflowRun

PARAMS = ExecutionParams(
    prob_parallel=0.7,
    max_fork=3,
    prob_fork=0.6,
    max_loop=2,
    prob_loop=0.6,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    # 0.0 and 0.3 grow parallel multi-edges (identical branches).
    ratio=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    forks=st.integers(min_value=0, max_value=2),
    loops=st.integers(min_value=0, max_value=2),
)
def test_memoised_tables_match_a_fresh_annotator(seed, ratio, forks, loops):
    try:
        spec = random_specification(
            8 + seed % 8, ratio, num_forks=forks, num_loops=loops, seed=seed
        )
    except SpecificationError:
        reject()  # the generator could not place that many elements
    digest = spec_fingerprint(spec)
    for offset in range(3):
        graph = execute_workflow(spec, PARAMS, seed=seed + offset).graph
        memoised = annotate_run_tree(spec, graph)
        fresh = _Annotator(_SpecTables(spec)).annotate(
            spec.tree, canonical_sp_tree(graph)
        )
        assert spec._run_tables is not None
        assert memoised.structure_key() == fresh.structure_key()
        assert run_fingerprint(
            WorkflowRun(spec, graph, tree=memoised), digest
        ) == run_fingerprint(WorkflowRun(spec, graph, tree=fresh), digest)
        pairs = list(zip(memoised.iter_nodes(), fresh.iter_nodes()))
        assert len(pairs) == memoised.num_nodes == fresh.num_nodes
        for ours, theirs in pairs:
            assert ours.kind is theirs.kind
            assert ours.edge == theirs.edge
            assert ours.origin is theirs.origin
