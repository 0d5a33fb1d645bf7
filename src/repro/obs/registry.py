"""A dependency-free metrics registry: counters, gauges, histograms.

Every subsystem that wants to publish runtime numbers — engine phases,
the DP hot path, the price calibrator, the baseline schedulers — writes
into one :class:`MetricsRegistry` instead of growing its own ad-hoc
``dict`` of counters.  The registry is deliberately tiny (no third-party
client, no server, no background thread): a metric is a named family of
labeled series, a series is a float (counter/gauge) or a fixed-bucket
histogram, and :meth:`MetricsRegistry.snapshot` renders everything as a
plain JSON-able dict.

*Stored* families are updated when the event they measure happens (a
decision's latency, a placement's queue wait).  *Collected* families are
derived from state another component already owns (round counters,
gauges): a callback registered with :meth:`MetricsRegistry.add_collector`
writes them into a fresh registry on each read — the Prometheus
custom-collector idiom — so nothing recomputes them unread.

Naming conventions (documented in ``docs/observability.md``):

* every metric is prefixed ``repro_``;
* counters end in ``_total``, timings in ``_seconds``;
* labels are few and low-cardinality (``phase``, ``scheduler``,
  ``counter``, ``gpu_type``) — a label value must never be a job id.

A registry is cheap enough to build per simulation; the engine snapshots
it into :attr:`repro.sim.engine.SimulationResult.metrics` at the end of a
run.  ``registry=None`` call sites pay one ``is None`` test — the hot
paths stay clean when metrics are off.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

__all__ = [
    "ALLOWED_LABEL_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricLabelError",
    "MetricNameError",
    "MetricsRegistry",
]

_LabelKey = tuple[tuple[str, str], ...]


class MetricNameError(ValueError):
    """A metric name violating the registry's naming contract."""


class MetricLabelError(ValueError):
    """A label name outside the registry's low-cardinality allowlist."""


ALLOWED_LABEL_NAMES = frozenset(
    {
        "counter",
        "gpu_type",
        "kind",
        "phase",
        "reason",
        "scheduler",
        "source",
        "state",
    }
)
"""Every label name a registry-registered metric may carry.

Labels multiply series cardinality, and the live exposition endpoint
renders every series on every scrape — so the vocabulary is a closed,
reviewed set of low-cardinality dimensions.  A job id (unbounded) must
never become a label value; the decision trace is the per-job surface.
"""

_NAME_RE = re.compile(r"repro_[a-z][a-z0-9_]*\Z")


def _validate_name(metric: "Counter | Gauge | Histogram") -> None:
    """The naming contract ``docs/observability.md`` documents, enforced.

    Raises :class:`MetricNameError` so misnamed families fail at
    registration (one loud error at wiring time) instead of shipping
    nonconforming series to every scraper.
    """
    name = metric.name
    if not _NAME_RE.fullmatch(name):
        raise MetricNameError(
            f"metric name {name!r} must match 'repro_[a-z][a-z0-9_]*'"
        )
    if metric.kind == "counter" and not name.endswith("_total"):
        raise MetricNameError(
            f"counter {name!r} must end in '_total'"
        )
    if metric.kind == "histogram" and not name.endswith("_seconds"):
        raise MetricNameError(
            f"histogram {name!r} must end in '_seconds' (timings are the "
            "only histogrammed unit)"
        )
    if metric.kind == "gauge" and name.endswith("_total"):
        raise MetricNameError(
            f"gauge {name!r} must not end in '_total' (reserved for counters)"
        )


def _validate_labels(name: str, key: _LabelKey) -> None:
    for label_name, _ in key:
        if label_name not in ALLOWED_LABEL_NAMES:
            raise MetricLabelError(
                f"metric {name!r} uses label {label_name!r}, not in the "
                f"allowlist {sorted(ALLOWED_LABEL_NAMES)}"
            )


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing sum, one value per label set."""

    name: str
    help: str = ""
    _series: dict[_LabelKey, float] = field(default_factory=dict)

    kind = "counter"
    validate_labels = False
    """Set by :class:`MetricsRegistry` at registration: new label sets are
    checked against :data:`ALLOWED_LABEL_NAMES` (existing series are by
    definition already conformant, so the hot path pays nothing)."""

    def inc(
        self, amount: float = 1.0, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        current = self._series.get(key)
        if current is None:
            if self.validate_labels and key:
                _validate_labels(self.name, key)
            current = 0.0
        self._series[key] = current + amount

    def advance_to(
        self, target: float, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        """Monotonically raise the series to ``target`` (no-op if at/past it).

        Collectors use this to mirror a cumulative stat another component
        already owns (fault totals, rejection counts) into the fresh
        registry of one read, where the top-up is the stat itself.
        """
        delta = target - self.value(labels=labels)
        if delta > 0:
            self.inc(delta, labels=labels)

    def value(self, labels: Optional[Mapping[str, str]] = None) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]


@dataclass
class Gauge:
    """A value that can move both ways (queue depth, price level, α)."""

    name: str
    help: str = ""
    _series: dict[_LabelKey, float] = field(default_factory=dict)

    kind = "gauge"
    validate_labels = False

    def set(self, value: float, labels: Optional[Mapping[str, str]] = None) -> None:
        key = _label_key(labels)
        if key not in self._series and self.validate_labels and key:
            _validate_labels(self.name, key)
        self._series[key] = float(value)

    def inc(
        self, amount: float = 1.0, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        key = _label_key(labels)
        current = self._series.get(key)
        if current is None:
            if self.validate_labels and key:
                _validate_labels(self.name, key)
            current = 0.0
        self._series[key] = current + amount

    def value(self, labels: Optional[Mapping[str, str]] = None) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]


DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)
"""Log-ish latency buckets spanning sub-ms event dispatch to multi-second
DP rounds; every histogram also carries the implicit +Inf bucket."""


class _HistogramSeries:
    __slots__ = ("counts", "inf_count", "sum", "min", "max")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets
        self.inf_count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


@dataclass
class Histogram:
    """Fixed-bucket distribution (cumulative rendering, Prometheus-style)."""

    name: str
    help: str = ""
    buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    _series: dict[_LabelKey, _HistogramSeries] = field(default_factory=dict)

    kind = "histogram"
    validate_labels = False

    def __post_init__(self) -> None:
        bounds = tuple(self.buckets)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError(
                f"histogram {self.name} bucket bounds must strictly increase"
            )
        self.buckets = bounds

    def observe(
        self, value: float, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            if self.validate_labels and key:
                _validate_labels(self.name, key)
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        idx = bisect_right(self.buckets, value)
        if idx < len(self.buckets):
            series.counts[idx] += 1
        else:
            series.inf_count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value

    def count(self, labels: Optional[Mapping[str, str]] = None) -> int:
        series = self._series.get(_label_key(labels))
        if series is None:
            return 0
        return sum(series.counts) + series.inf_count

    def series(self) -> list[dict]:
        out = []
        for key in sorted(self._series):
            s = self._series[key]
            cumulative: list[int] = []
            running = 0
            for c in s.counts:
                running += c
                cumulative.append(running)
            total = running + s.inf_count
            out.append(
                {
                    "labels": dict(key),
                    "count": total,
                    "sum": s.sum,
                    "min": s.min if total else None,
                    "max": s.max if total else None,
                    "buckets": [
                        {"le": bound, "count": cum}
                        for bound, cum in zip(self.buckets, cumulative)
                    ]
                    + [{"le": "+Inf", "count": total}],
                }
            )
        return out


class MetricsRegistry:
    """Named metric families, each holding labeled series.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the type (and, for histograms, the buckets); a later call with
    the same name but a different type raises, so two subsystems cannot
    silently publish incompatible series under one name.  Registration
    also enforces the naming contract (:class:`MetricNameError`) and arms
    per-series label-allowlist checks (:class:`MetricLabelError`) —
    standalone ``Counter()``/``Gauge()``/``Histogram()`` objects stay
    unvalidated scratch space.

    Reads see stored and collected families together; :meth:`state_dict`
    and :meth:`load_state_dict` cover the stored ones only.

    :attr:`lock` is the concurrency seam with the live exposition server:
    a publisher holds it across each logically-atomic batch of updates
    (the engine, across each step), and every read holds it while the
    collectors run, so a scrape never sees a torn step.  The lock is
    reentrant and uncontended in batch runs.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self.lock = threading.RLock()

    def add_collector(self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Derive families on every read: ``collect(fresh)`` writes them
        into a registry built for that read.  Adding a collector that is
        already registered (an equal bound method) is a no-op."""
        with self.lock:
            if collect not in self._collectors:
                self._collectors.append(collect)

    def _all(self) -> dict[str, Counter | Gauge | Histogram]:
        """Stored families plus the ones the collectors derive now."""
        with self.lock:
            if not self._collectors:
                return self._metrics
            fresh = MetricsRegistry()
            for collect in self._collectors:
                collect(fresh)
            clash = sorted(fresh._metrics.keys() & self._metrics.keys())
            if clash:
                raise ValueError(
                    f"collected families {clash} are also stored in the registry"
                )
            return {**self._metrics, **fresh._metrics}

    def __len__(self) -> int:
        return len(self._all())

    def __contains__(self, name: str) -> bool:
        return name in self._all()

    def names(self) -> list[str]:
        return sorted(self._all())

    def families(self) -> list[Counter | Gauge | Histogram]:
        """Every metric object, stored and collected, name-sorted."""
        metrics = self._all()
        return [metrics[name] for name in sorted(metrics)]

    def get(self, name: str) -> Optional[Counter | Gauge | Histogram]:
        return self._all().get(name)

    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}, cannot re-register as {metric.kind}"
                )
            return existing
        _validate_name(metric)
        metric.validate_labels = True
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, tuple(buckets)))

    # -- bulk publication ----------------------------------------------------
    def count_all(
        self,
        prefix: str,
        counters: Mapping[str, int | float],
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        """Publish a dict of counters as ``<prefix>_total{counter=<key>}``.

        This is the uniform bridge for pre-existing counter dicts —
        ``RoundStats.as_dict()``, ``hotpath_stats`` — so every subsystem's
        numbers land in one namespace without bespoke glue per counter.
        The source dicts are cumulative, so each series is a monotonic
        ``advance_to`` top-up and publishing the same dict twice does not
        double count.
        """
        metric = self.counter(f"{prefix}_total", help)
        for key in sorted(counters):
            merged = {"counter": key}
            if labels:
                merged.update(labels)
            metric.advance_to(float(counters[key]), labels=merged)

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every family, stored and collected, as a plain JSON-able dict."""
        with self.lock:
            return {
                metric.name: {
                    "type": metric.kind,
                    "help": metric.help,
                    "series": metric.series(),
                }
                for metric in self.families()
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """Full reconstructible state of the stored families (unlike
        :meth:`snapshot`, which is a cumulative *rendering* of histograms
        and includes what the collectors derive from their owners' own
        state).  Histogram min/max are hex floats so the ±inf sentinels of
        an empty series survive JSON."""
        with self.lock:
            return self._state_dict_locked()

    def _state_dict_locked(self) -> dict:
        out: dict = {}
        for name, metric in self._metrics.items():
            entry: dict = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": [list(pair) for pair in key],
                        "counts": list(s.counts),
                        "inf_count": s.inf_count,
                        "sum": s.sum,
                        "min": s.min.hex(),
                        "max": s.max.hex(),
                    }
                    for key, s in metric._series.items()
                ]
            else:
                entry["series"] = [
                    {"labels": [list(pair) for pair in key], "value": value}
                    for key, value in metric._series.items()
                ]
            out[name] = entry
        return out

    def load_state_dict(self, state: dict) -> None:
        """Restore in place: publishers (the health phase, the engine) hold
        handles to the metric objects they registered at construction, so
        the objects stay and only their series are replaced."""
        for metric in self._metrics.values():
            metric._series.clear()
        for name, entry in state.items():
            kind = entry["kind"]
            if kind == "histogram":
                metric = self.histogram(
                    name, entry["help"], tuple(entry["buckets"])
                )
                for rec in entry["series"]:
                    key = tuple((str(k), str(v)) for k, v in rec["labels"])
                    series = _HistogramSeries(len(metric.buckets))
                    series.counts = [int(c) for c in rec["counts"]]
                    series.inf_count = int(rec["inf_count"])
                    series.sum = float(rec["sum"])
                    series.min = float.fromhex(rec["min"])
                    series.max = float.fromhex(rec["max"])
                    metric._series[key] = series
            else:
                metric = (
                    self.counter(name, entry["help"])
                    if kind == "counter"
                    else self.gauge(name, entry["help"])
                )
                for rec in entry["series"]:
                    key = tuple((str(k), str(v)) for k, v in rec["labels"])
                    metric._series[key] = float(rec["value"])
