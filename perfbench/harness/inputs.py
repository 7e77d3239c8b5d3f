"""Seeded inputs, generated before any timing starts.

Every document comes from :mod:`repro.scale.workloads`.  Specification
shapes are part of a workload's definition and use a fixed seed; the
benchmark seed picks which runs of those specifications (and which
foreign documents, pairs and traffic) a run sees.  The same seed gives
the same inputs, and the program only ever receives finished
documents.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api_types import QueryFilter
from repro.interchange.prov_json import parse_prov_json
from repro.scale.workloads import GeneratedDocument, make_workload
from repro.stream.events import ActivityEvent, EdgeEvent, events_from_document

#: Seed of every specification shape (a workload constant).
SPEC_SEED = 20090329

#: Run indices reserved per benchmark seed, and per granularity tier.
_SEED_STRIDE = 100_000
_TIER_STRIDE = 30_000
#: Every pipeline sample is stratified over these granularity tiers
#: (equal shares), so the seed changes which runs, never the mix.
TIERS = ("sparse", "standard", "bushy")


def pipeline_documents(
    name: str, seed: int, count: int, skip: int = 0, **shape
) -> List[GeneratedDocument]:
    """``count`` runs of the pipeline specification ``name``, taking
    the tiers in turn (so any prefix is as evenly mixed as can be).

    ``skip`` leaves out the first runs of each tier, so a later call
    draws fresh runs of the same family.
    """
    base = (seed % 20_000) * _SEED_STRIDE
    per_tier = []
    for position, tier in enumerate(TIERS):
        share = count // len(TIERS) + (position < count % len(TIERS))
        first = base + position * _TIER_STRIDE + skip
        family = make_workload(
            "pipeline",
            name,
            seed=SPEC_SEED,
            runs=first + share,
            tiers=(tier,),
            **shape,
        )
        per_tier.append(
            [family.document(index) for index in range(first, first + share)]
        )
    return [
        document
        for turn in itertools.zip_longest(*per_tier)
        for document in turn
        if document is not None
    ]


# ---------------------------------------------------------------------
# ingest-flood
# ---------------------------------------------------------------------
INGEST_SPECS = 4
INGEST_SHAPE = {"stages": 5, "width": 3}
FOREIGN_SHARE = 0.2


def ingest_documents(seed: int, count: int, tag: str) -> List[GeneratedDocument]:
    """``count`` fresh documents: ~80 % embedded-plan runs over
    :data:`INGEST_SPECS` pipeline specifications, ~20 % foreign non-SP
    documents, in a seeded order."""
    rng = random.Random(f"ingest|{seed}|{tag}")
    foreign = int(round(count * FOREIGN_SHARE))
    native = count - foreign
    per_spec = [native // INGEST_SPECS] * INGEST_SPECS
    for index in range(native % INGEST_SPECS):
        per_spec[index] += 1
    documents: List[GeneratedDocument] = []
    skip = 0 if tag == "warm" else 1_000
    for spec_index, runs in enumerate(per_spec):
        documents.extend(
            pipeline_documents(
                f"flood-p{spec_index}", seed, runs, skip=skip, **INGEST_SHAPE
            )
        )
    adversarial = make_workload(
        "adversarial", f"flood-{tag}", seed=seed, runs=foreign
    )
    documents.extend(adversarial.documents())
    rng.shuffle(documents)
    return documents


# ---------------------------------------------------------------------
# matrix-cold
# ---------------------------------------------------------------------
MATRIX_SPEC = "cold-matrix"
MATRIX_RUNS = 150
MATRIX_SCRIPT_PAIRS = 120


def matrix_family(seed: int) -> List[GeneratedDocument]:
    return pipeline_documents(MATRIX_SPEC, seed, MATRIX_RUNS)


def directed_pair_sample(
    names: List[str], count: int, rng: random.Random
) -> List[Tuple[str, str]]:
    """``count`` distinct directed pairs of distinct runs."""
    pairs = set()
    ordered: List[Tuple[str, str]] = []
    while len(ordered) < count:
        a, b = rng.sample(names, 2)
        if (a, b) not in pairs:
            pairs.add((a, b))
            ordered.append((a, b))
    return ordered


# ---------------------------------------------------------------------
# serve-mixed / serve-cluster
# ---------------------------------------------------------------------
SERVE_SPEC = "served"
SERVE_RUNS = 60
SERVE_SHAPE = {"stages": 6, "width": 3}
#: Runs whose directed pairs form the warm diff pool and query slice.
SLICE_RUNS = 12
QUERY_PAGE = 20

QUERY_SHAPES: Tuple[Tuple[str, QueryFilter], ...] = (
    ("kind", QueryFilter(kinds=("path-insertion", "path-deletion"))),
    ("touches", QueryFilter(touches=("g01", "g02"))),
    ("cost", QueryFilter(max_cost=4.0)),
)

#: Operations per connection, counted by operations (out of 100):
#: GET /diff, paged POST /query, and one streamed run.
MIX = (("diff", 86), ("query", 12), ("write", 2))
#: Share of diffs that go to a pair never requested before.
COLD_DIFF_SHARE = 0.05


@dataclass
class StreamedRun:
    run_name: str
    activities: List[Tuple[str, str]]
    edges: List[Tuple[str, str]]


def serve_family(seed: int) -> List[GeneratedDocument]:
    return pipeline_documents(SERVE_SPEC, seed, SERVE_RUNS, **SERVE_SHAPE)


def streamed_runs(seed: int, count: int) -> List[StreamedRun]:
    """Fresh runs of the served family, as stream events."""
    documents = pipeline_documents(
        SERVE_SPEC, seed, count, skip=1_000, **SERVE_SHAPE
    )
    runs = []
    for position, document in enumerate(documents):
        name = f"w{position:04d}"
        events = events_from_document(
            parse_prov_json(document.document),
            session=f"s-{name}",
            spec_name=SERVE_SPEC,
            run_name=name,
        )
        runs.append(
            StreamedRun(
                run_name=name,
                activities=[
                    (event.node, event.label)
                    for event in events
                    if isinstance(event, ActivityEvent)
                ],
                edges=[
                    (event.src, event.dst)
                    for event in events
                    if isinstance(event, EdgeEvent)
                ],
            )
        )
    return runs


def traffic(seed: int, connection: int, length: int) -> List[str]:
    """A seeded operation schedule for one client connection."""
    rng = random.Random(f"traffic|{seed}|{connection}")
    kinds = [kind for kind, share in MIX for _ in range(share)]
    schedule: List[str] = []
    while len(schedule) < length:
        block = list(kinds)
        rng.shuffle(block)
        schedule.extend(block)
    return schedule[:length]


def serve_pairs(
    seed: int, names: List[str]
) -> Dict[str, List[Tuple[str, str]]]:
    """The warm pool (every directed pair of the slice) and a shuffled
    list of cold pairs (never requested: outside the slice)."""
    rng = random.Random(f"pairs|{seed}")
    # Every k-th run: the slice spans every granularity tier.
    chosen = names[:: len(names) // SLICE_RUNS][:SLICE_RUNS]
    warm = [(a, b) for a in chosen for b in chosen if a != b]
    cold = [
        (a, b)
        for a in names
        for b in names
        if a != b and not (a in chosen and b in chosen)
    ]
    rng.shuffle(cold)
    return {"slice": chosen, "warm": warm, "cold": cold}
