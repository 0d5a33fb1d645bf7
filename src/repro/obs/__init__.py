"""Unified observability layer: tracing, metrics, and timeline export.

Three pieces, one package:

* :class:`~repro.obs.tracer.DecisionTracer` — opt-in structured decision
  tracing.  Hand one to :func:`repro.sim.engine.simulate` and the phase
  pipeline emits a schema-versioned JSONL record per scheduling round:
  per-slot Eq. (5) dual prices, every job's FIND_ALLOC outcome with its
  payoff μ_j and the consolidated-vs-scattered breakdown, skip reasons,
  the applied diff (placements / migrations / preemptions), and the
  round's cache counters.  Near-zero overhead when disabled.
* :class:`~repro.obs.registry.MetricsRegistry` — dependency-free
  counters / gauges / histograms with labeled series.  The engine
  observes decision-time events into it and registers a collector that
  derives its counters and gauges whenever the registry is read; the
  snapshot lands in ``SimulationResult.metrics`` and exports to JSON.
* :mod:`~repro.obs.server` + :mod:`~repro.obs.exposition` — a stdlib
  HTTP endpoint (``repro serve --listen``) serving the registry as
  Prometheus text exposition on ``/metrics`` plus ``/healthz`` /
  ``/readyz`` / ``/status``, scrape-atomic against the stepping engine.
* :class:`~repro.obs.health.ClusterHealthPhase` — cluster health:
  allocation churn and queue waits per decision; fragmentation, per-type
  utilization and queue starvation gauges on each read.
* :mod:`~repro.obs.perfetto` — trace → Chrome ``trace_event`` timeline
  that opens in https://ui.perfetto.dev (rounds as frames, per-job
  allocation lifelines, price counter tracks, wall-clock phase spans).

``python -m repro.obs`` wraps it all in a CLI: ``validate``,
``summarize`` (slowest rounds, admission/skip rates, price
trajectories), ``diff`` (decision-level comparison of two traces),
``export --perfetto``, ``watch`` (poll a live endpoint), and
``lint-exposition``.  See ``docs/observability.md``.
"""

from repro.obs.exposition import (
    CONTENT_TYPE,
    lint_exposition,
    parse_exposition,
    render,
)
from repro.obs.health import ClusterHealthPhase
from repro.obs.perfetto import export_perfetto, trace_to_perfetto
from repro.obs.registry import (
    ALLOWED_LABEL_NAMES,
    Counter,
    Gauge,
    Histogram,
    MetricLabelError,
    MetricNameError,
    MetricsRegistry,
)
from repro.obs.schema import (
    SKIP_REASONS,
    TRACE_SCHEMA_VERSION,
    SchemaError,
    validate_record,
    validate_trace,
)
from repro.obs.server import ObservabilityServer, parse_listen
from repro.obs.summarize import (
    TraceDiff,
    TraceSummary,
    diff_traces,
    summarize_trace,
)
from repro.obs.tracer import (
    DecisionTracer,
    load_trace,
    load_trace_set,
    read_trace,
    read_trace_set,
    trace_part_paths,
)

__all__ = [
    "ALLOWED_LABEL_NAMES",
    "CONTENT_TYPE",
    "ClusterHealthPhase",
    "Counter",
    "DecisionTracer",
    "Gauge",
    "Histogram",
    "MetricLabelError",
    "MetricNameError",
    "MetricsRegistry",
    "ObservabilityServer",
    "SKIP_REASONS",
    "SchemaError",
    "TRACE_SCHEMA_VERSION",
    "TraceDiff",
    "TraceSummary",
    "diff_traces",
    "export_perfetto",
    "lint_exposition",
    "load_trace",
    "load_trace_set",
    "parse_exposition",
    "parse_listen",
    "read_trace",
    "read_trace_set",
    "render",
    "summarize_trace",
    "trace_part_paths",
    "trace_to_perfetto",
    "validate_record",
    "validate_trace",
]
