"""Prometheus text-exposition validator (the in-repo scrape checker).

No third-party dependency ships a parser here, so CI validates the
``/metrics`` output with this ~hundred-line checker instead:
:func:`parse_exposition` parses exposition text into
``{metric family: {"type": ..., "samples": [(name, labels, value)]}}``
and raises :class:`ExpositionError` on any syntax violation — stray
lines, samples without a preceding ``# TYPE``, malformed label sets,
unparsable values, histogram families missing their ``_sum`` /
``_count`` series, and histogram series that lack their ``+Inf``
bucket, disagree with their ``_count`` or are not cumulative.

Runnable as a module against a file or a live endpoint::

    python -m repro.obs.promcheck metrics.txt
    python -m repro.obs.promcheck http://127.0.0.1:8321/metrics

Exit code 0 when the input parses (a one-line summary is printed),
1 with the violation on stderr otherwise.  The golden tests drive the
same function, so the renderer in :mod:`repro.obs.metrics` and this
checker cannot drift apart.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Tuple

__all__ = ["ExpositionError", "parse_exposition"]

#: Prometheus metric and label name grammar.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class ExpositionError(ValueError):
    """The input is not valid Prometheus text exposition."""


def _fail(line_no: int, line: str, why: str) -> None:
    raise ExpositionError(f"line {line_no}: {why}: {line!r}")


def _parse_labels(raw: str, line_no: int, line: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(raw):
        match = _LABEL_RE.match(raw, position)
        if match is None:
            _fail(line_no, line, "malformed label set")
        value = match.group("value")
        labels[match.group("name")] = (
            value.replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        position = match.end()
    return labels


def _family_of(sample_name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse (and validate) Prometheus text exposition.

    Returns ``{family: {"type": str, "help": str, "samples": [...]}}``
    where each sample is ``(sample_name, labels_dict, float_value)``.
    Raises :class:`ExpositionError` on any violation.
    """
    families: Dict[str, dict] = {}
    declared_type: Dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                _fail(line_no, line, "malformed HELP comment")
            families.setdefault(
                parts[2], {"type": "untyped", "help": "", "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                _fail(line_no, line, "malformed TYPE comment")
            if parts[3] not in _TYPES:
                _fail(line_no, line, f"unknown metric type {parts[3]!r}")
            if parts[2] in declared_type:
                _fail(line_no, line, "duplicate TYPE declaration")
            declared_type[parts[2]] = parts[3]
            families.setdefault(
                parts[2], {"type": "untyped", "help": "", "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comments are legal
        match = _SAMPLE_RE.match(line)
        if match is None:
            _fail(line_no, line, "malformed sample line")
        name = match.group("name")
        labels = _parse_labels(
            match.group("labels") or "", line_no, line
        )
        raw_value = match.group("value")
        if raw_value in ("+Inf", "-Inf", "NaN"):
            value = float(raw_value.replace("Inf", "inf"))
        else:
            try:
                value = float(raw_value)
            except ValueError:
                _fail(line_no, line, f"unparsable value {raw_value!r}")
        family = _family_of(name)
        if family not in declared_type and name not in declared_type:
            _fail(line_no, line, "sample precedes its TYPE declaration")
        target = family if family in declared_type else name
        families.setdefault(
            target, {"type": "untyped", "help": "", "samples": []}
        )["samples"].append((name, labels, value))
    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, dict]) -> None:
    """Every histogram series is complete and cumulative.

    A series is a label set minus ``le``: its buckets must end with
    ``le="+Inf"`` equal to the series' ``_count``, and its bucket
    counts must never decrease as ``le`` grows.
    """
    for family, info in families.items():
        if info["type"] != "histogram":
            continue
        names = [sample[0] for sample in info["samples"]]
        for required in (f"{family}_bucket", f"{family}_sum",
                         f"{family}_count"):
            if info["samples"] and required not in names:
                raise ExpositionError(
                    f"histogram {family} is missing its "
                    f"{required} series"
                )
        buckets: Dict[tuple, List[Tuple[float, float]]] = {}
        counts: Dict[tuple, float] = {}
        for name, labels, value in info["samples"]:
            series = tuple(sorted(
                item for item in labels.items() if item[0] != "le"
            ))
            if name == f"{family}_count":
                counts[series] = value
            elif name == f"{family}_bucket":
                try:
                    bound = float(labels["le"])
                except (KeyError, ValueError):
                    raise ExpositionError(
                        f"histogram {family} has a bucket sample "
                        "without a numeric 'le' label"
                    ) from None
                buckets.setdefault(series, []).append((bound, value))
        for series in set(buckets) | set(counts):
            ordered = sorted(buckets.get(series, []))
            where = f"histogram {family} series {dict(series)}"
            last = (float("inf"), counts.get(series))
            if not ordered or ordered[-1] != last:
                raise ExpositionError(
                    f"{where} needs a le=\"+Inf\" bucket equal to its _count"
                )
            if any(b[1] < a[1] for a, b in zip(ordered, ordered[1:])):
                raise ExpositionError(f"{where} has decreasing buckets")


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.startswith(("http://", "https://")):
        import urllib.request

        with urllib.request.urlopen(source, timeout=30) as response:
            return response.read().decode("utf8")
    with open(source, encoding="utf8") as handle:
        return handle.read()


def main(argv: List[str]) -> int:
    """``python -m repro.obs.promcheck SOURCE`` — validate a scrape."""
    if len(argv) != 1:
        print(
            "usage: python -m repro.obs.promcheck "
            "(FILE | URL | -)",
            file=sys.stderr,
        )
        return 2
    try:
        text = _read_source(argv[0])
        families = parse_exposition(text)
    except ExpositionError as exc:
        print(f"invalid exposition: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read {argv[0]!r}: {exc}", file=sys.stderr)
        return 1
    samples = sum(len(info["samples"]) for info in families.values())
    print(
        f"ok: {len(families)} metric families, {samples} samples"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main(sys.argv[1:]))
