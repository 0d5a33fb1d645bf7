"""Prometheus text exposition (format 0.0.4) for the metrics registry.

The live observability server (:mod:`repro.obs.server`) serves scrapes
from the same :class:`~repro.obs.registry.MetricsRegistry` the engine
publishes into, so the renderer here is the contract between the two:
every family becomes a ``# HELP`` / ``# TYPE`` header followed by its
samples, histograms expand into cumulative ``_bucket``/``_sum``/``_count``
series, and label values are escaped per the exposition spec.

Two deliberate choices beyond a straight dump:

* **zero-series families render.**  A family registered but never
  incremented still emits one unlabeled zero sample (and, for
  histograms, a full zero bucket ladder) — dashboards see the family
  from the first scrape instead of gapping until the first event.
* **step-atomic scrapes.**  :func:`render` holds the registry's lock
  for the whole walk (the collectors run inside it), and the engine holds
  the same lock across each step, so a scrape never observes a
  half-finished step (a histogram whose ``_sum`` moved but whose
  ``_count`` did not, a counter ahead of its sibling gauge).
"""

from __future__ import annotations

import re as _re
from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "lint_exposition",
    "parse_exposition",
    "render",
    "render_metric",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The scrape response Content-Type Prometheus expects."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _fmt(value: Union[int, float]) -> str:
    """Render a sample value: integers bare, floats via repr, ±Inf/NaN named."""
    v = float(value)
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _labels_fragment(labels: Mapping[str, str], extra: str = "") -> str:
    """``{a="x",b="y"}`` (or ``""`` with no labels), keys pre-sorted."""
    parts = [
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _render_scalar(lines: list[str], metric: "Union[Counter, Gauge]") -> None:
    series = metric.series()
    if not series:
        lines.append(f"{metric.name} 0")
        return
    for record in series:
        frag = _labels_fragment(record["labels"])
        lines.append(f"{metric.name}{frag} {_fmt(record['value'])}")


def _render_histogram(lines: list[str], metric: "Histogram") -> None:
    name = metric.name
    series = metric.series()
    if not series:
        # Present-with-zero: the full bucket ladder at zero counts.
        series = [
            {
                "labels": {},
                "count": 0,
                "sum": 0.0,
                "buckets": [
                    {"le": bound, "count": 0} for bound in metric.buckets
                ]
                + [{"le": "+Inf", "count": 0}],
            }
        ]
    for record in series:
        labels = record["labels"]
        for bucket in record["buckets"]:
            le = bucket["le"]
            le_text = le if isinstance(le, str) else _fmt(le)
            frag = _labels_fragment(labels, extra=f'le="{le_text}"')
            lines.append(f"{name}_bucket{frag} {_fmt(bucket['count'])}")
        frag = _labels_fragment(labels)
        lines.append(f"{name}_sum{frag} {_fmt(record['sum'])}")
        lines.append(f"{name}_count{frag} {_fmt(record['count'])}")


def render_metric(metric: "Union[Counter, Gauge, Histogram]") -> str:
    """One family: HELP/TYPE header plus every sample, newline-terminated."""
    lines = [
        f"# HELP {metric.name} {_escape_help(metric.help)}",
        f"# TYPE {metric.name} {metric.kind}",
    ]
    if metric.kind == "histogram":
        _render_histogram(lines, metric)  # type: ignore[arg-type]
    else:
        _render_scalar(lines, metric)  # type: ignore[arg-type]
    return "\n".join(lines) + "\n"


def render(registry: "MetricsRegistry") -> str:
    """The whole registry in exposition format, name-sorted, one atomic walk."""
    with registry.lock:
        return "".join(
            render_metric(metric) for metric in registry.families()
        )


# ------------------------------------------------------- parse / lint --------
_SAMPLE_RE = _re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?\s*\Z"
)
_LABEL_RE = _re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(,|\Z)')
_NAME_OK_RE = _re.compile(r"repro_[a-z][a-z0-9_]*\Z")


def _unescape_label_value(text: str) -> str:
    return (
        text.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
    )


def _parse_labels(fragment: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(fragment):
        match = _LABEL_RE.match(fragment, pos)
        if match is None:
            raise ValueError(f"malformed label fragment {fragment!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        pos = match.end()
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse exposition text back into families (the renderer's inverse).

    Returns ``{family_name: {"type", "help", "samples"}}`` where each
    sample is ``(sample_name, labels_dict, value)``; histogram families
    collect their ``_bucket``/``_sum``/``_count`` samples.  Raises
    :class:`ValueError` on text the format does not allow — the test
    suite and :func:`lint_exposition` both build on this.
    """
    families: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            keyword = line[2:6]
            rest = line[7:].split(" ", 1)
            name = rest[0]
            payload = rest[1] if len(rest) > 1 else ""
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if keyword == "HELP":
                family["help"] = payload
            else:
                if payload not in ("counter", "gauge", "histogram",
                                   "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown TYPE {payload!r} for {name}"
                    )
                family["type"] = payload
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = _parse_value(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from exc
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and base in families:
                if families[base]["type"] == "histogram":
                    family_name = base
                break
        families.setdefault(
            family_name, {"type": None, "help": None, "samples": []}
        )["samples"].append((sample_name, labels, value))
    return families


def _lint_histogram(name: str, family: dict, problems: list[str]) -> None:
    """Cumulative-bucket coherence for one histogram family."""
    by_series: dict[tuple, dict] = {}
    for sample_name, labels, value in family["samples"]:
        key = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"
        ))
        entry = by_series.setdefault(
            key, {"buckets": [], "sum": None, "count": None}
        )
        if sample_name == f"{name}_bucket":
            if "le" not in labels:
                problems.append(f"{name}: _bucket sample without an le label")
                continue
            le = labels["le"]
            bound = float("inf") if le == "+Inf" else float(le)
            entry["buckets"].append((bound, value))
        elif sample_name == f"{name}_sum":
            entry["sum"] = value
        elif sample_name == f"{name}_count":
            entry["count"] = value
        else:
            problems.append(
                f"{name}: stray sample {sample_name!r} in histogram family"
            )
    for key, entry in sorted(by_series.items()):
        where = f"{name}{dict(key) if key else ''}"
        buckets = entry["buckets"]
        if not buckets or buckets[-1][0] != float("inf"):
            problems.append(f"{where}: histogram missing the +Inf bucket")
            continue
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            problems.append(f"{where}: bucket bounds not strictly increasing")
        if counts != sorted(counts):
            problems.append(f"{where}: bucket counts not cumulative")
        if entry["count"] is None or entry["sum"] is None:
            problems.append(f"{where}: missing _count or _sum sample")
        elif entry["count"] != counts[-1]:
            problems.append(
                f"{where}: _count {entry['count']} != +Inf bucket {counts[-1]}"
            )


def lint_exposition(text: str) -> list[str]:
    """Conformance problems in exposition text (empty list = clean).

    Beyond parseability this checks this repo's contract: every sample
    belongs to a ``# TYPE``-declared family, names match the
    ``repro_[a-z][a-z0-9_]*`` convention (counters ``_total``), no
    duplicate series, and histograms expose coherent cumulative buckets
    with a ``+Inf`` bound matching ``_count``.  The CI serve-smoke job
    runs this against a live scrape.
    """
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        return [str(exc)]
    problems: list[str] = []
    seen: set[tuple] = set()
    for name, family in sorted(families.items()):
        if family["type"] is None:
            problems.append(f"{name}: samples without a # TYPE header")
        if family["help"] is None:
            problems.append(f"{name}: missing # HELP header")
        if not _NAME_OK_RE.fullmatch(name):
            problems.append(
                f"{name}: name does not match 'repro_[a-z][a-z0-9_]*'"
            )
        if family["type"] == "counter" and not name.endswith("_total"):
            problems.append(f"{name}: counter must end in '_total'")
        if (family["type"] is not None and not family["samples"]):
            problems.append(f"{name}: declared family has no samples")
        for sample_name, labels, _ in family["samples"]:
            key = (sample_name, tuple(sorted(labels.items())))
            if key in seen:
                problems.append(
                    f"{sample_name}: duplicate series {sorted(labels.items())}"
                )
            seen.add(key)
        if family["type"] == "histogram":
            _lint_histogram(name, family, problems)
    return problems
