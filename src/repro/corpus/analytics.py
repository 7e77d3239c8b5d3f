"""Corpus analytics over pairwise distance matrices.

The paper's conclusions report that scientists want to "determine which
execution(s) differ from the majority of other executions, or whether
executions … cluster together".  These helpers answer both directly from
a ``{(name_a, name_b): distance}`` matrix as produced by
:meth:`repro.corpus.service.DiffService.distance_matrix`:

* :func:`medoid` — the most central run (minimum mean distance), the
  natural "representative execution" of a corpus;
* :func:`outliers` — runs ranked by *descending* mean distance, the
  "differs from the majority" view;
* :func:`k_nearest` — a run's nearest neighbours, the building block for
  the k-NN queries feeding PDiffView's clustering panes.

All functions treat the matrix as symmetric and accept either key order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

DistanceMatrix = Dict[Tuple[str, str], float]


def matrix_names(matrix: DistanceMatrix) -> List[str]:
    """All run names mentioned by a matrix, sorted."""
    names = set()
    for a, b in matrix:
        names.add(a)
        names.add(b)
    return sorted(names)


def pair_distance(matrix: DistanceMatrix, a: str, b: str) -> float:
    """Distance between two runs, accepting either key order."""
    if a == b:
        return 0.0
    if (a, b) in matrix:
        return matrix[(a, b)]
    if (b, a) in matrix:
        return matrix[(b, a)]
    raise ReproError(f"matrix has no entry for pair ({a!r}, {b!r})")


def check_count(name: str, value: Optional[int]) -> None:
    """Refuse a negative ``k`` or ``top``.

    Both truncate a ranking by slicing, and a negative slice bound
    would silently drop runs from its tail instead.
    """
    if value is not None and value < 0:
        raise ReproError(f"{name} must be >= 0, got {value}")


def mean_distances(
    matrix: DistanceMatrix, names: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Mean distance from each run to every other run.

    ``names`` fixes the population (and validates completeness);
    defaults to every name in the matrix.  A singleton corpus has mean
    distance ``0.0`` by convention.
    """
    population = list(names) if names is not None else matrix_names(matrix)
    means: Dict[str, float] = {}
    for name in population:
        others = [o for o in population if o != name]
        if not others:
            means[name] = 0.0
            continue
        total = sum(pair_distance(matrix, name, o) for o in others)
        means[name] = total / len(others)
    return means


def medoid(
    matrix: DistanceMatrix, names: Optional[Sequence[str]] = None
) -> Tuple[str, float]:
    """The corpus medoid: ``(name, mean distance)`` with minimal mean.

    Ties break towards the lexicographically smallest name so results
    are deterministic across platforms.
    """
    means = mean_distances(matrix, names)
    if not means:
        raise ReproError("cannot take the medoid of an empty corpus")
    name = min(means, key=lambda n: (means[n], n))
    return name, means[name]


def outliers(
    matrix: DistanceMatrix,
    names: Optional[Sequence[str]] = None,
    top: Optional[int] = None,
) -> List[Tuple[str, float]]:
    """Runs ranked by descending mean distance to the rest of the corpus.

    The head of the list is the execution most unlike the others; pass
    ``top`` to truncate.  Ties break lexicographically.
    """
    check_count("top", top)
    means = mean_distances(matrix, names)
    ranked = sorted(means.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top] if top is not None else ranked


def k_nearest(
    matrix: DistanceMatrix,
    name: str,
    k: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
) -> List[Tuple[str, float]]:
    """``name``'s neighbours ordered by ascending distance.

    Returns ``(other, distance)`` pairs excluding ``name`` itself;
    ``k=None`` returns all neighbours (a full one-vs-many ranking).
    """
    check_count("k", k)
    population = list(names) if names is not None else matrix_names(matrix)
    if name not in population:
        raise ReproError(f"run {name!r} is not part of the matrix")
    ranked = sorted(
        (
            (other, pair_distance(matrix, name, other))
            for other in population
            if other != name
        ),
        key=lambda item: (item[1], item[0]),
    )
    return ranked[:k] if k is not None else ranked
