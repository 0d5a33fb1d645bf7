"""Flow-analysis policy: what the interprocedural passes enforce.

Everything repo-specific lives here, declaratively — the pass engines
in :mod:`~repro.analysis.flow.taint` / ``memo`` / ``purity`` are
generic over a :class:`FlowConfig`.  :data:`DEFAULT_CONFIG` encodes the
contracts this repository's reproducibility claims rest on:

* **REP009 sinks** — scheduler decisions (every ``Scheduler.schedule``
  implementation, the ``find_alloc`` family, ``ClusterState``
  allocate/release arguments) admit *no* nondeterministic taint; trace
  emission admits ``measurement`` (monotonic latencies are part of the
  trace schema) but nothing else; regenerable report artifacts admit
  nothing, measurement included — their bytes must be reproducible.
* **REP010 memo specs** — one :class:`MemoSpec` per memo layer in
  ``core/round_context.py`` / ``core/find_alloc.py``.  Every parameter
  must be classified; ``guarded`` parameters carry the exact attribute
  read set the memo key captures, and ``invariant`` parameters are
  recorded human proof obligations (each ``note`` says why the key may
  omit them).  A spec that matches no function is itself a finding, so
  renames can't silently retire a contract.
* **REP011 contracts** — observer phases/classes must have no write
  effects on protected simulation state; mutator phases may reach it
  only through their sanctioned seam methods.

Specs are matched by trailing qualname components, so fixture packages
under ``tests/analysis/flow/`` exercise the same default policy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

__all__ = [
    "CallSink",
    "DEFAULT_CONFIG",
    "FlowConfig",
    "FunctionContract",
    "MemoSpec",
    "PhaseContract",
    "ReturnSink",
    "SnapshotSpec",
    "TAINT_KINDS",
]

TAINT_KINDS = ("wallclock", "env", "rng", "measurement")
ALL_KINDS = frozenset(TAINT_KINDS)


@dataclass(frozen=True)
class ReturnSink:
    """A function whose *return value* is a determinism sink."""

    suffix: str
    forbids: tuple[str, ...]
    desc: str


@dataclass(frozen=True)
class CallSink:
    """A callee whose *arguments* are a determinism sink."""

    suffix: str
    forbids: tuple[str, ...]
    desc: str


@dataclass(frozen=True)
class MemoSpec:
    """Key-coherence contract for one memoized function.

    ``key_params`` are captured by the memo key (reads unrestricted);
    ``ignored_params`` are round-frozen machinery (the context/self);
    ``guarded`` parameters are mutable state whose reads must stay
    within the listed attribute/method names; ``invariant_params`` are
    explicitly waived, with the justification carried in ``note``.
    """

    function: str
    key_params: tuple[str, ...] = ()
    ignored_params: tuple[str, ...] = ()
    guarded: tuple[tuple[str, tuple[str, ...]], ...] = ()
    invariant_params: tuple[str, ...] = ()
    note: str = ""

    def guarded_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.guarded)


@dataclass(frozen=True)
class SnapshotSpec:
    """Snapshot-completeness contract for one engine-state class.

    REP012 enumerates every mutable attribute the class can carry —
    class-level declared fields (dataclass fields) plus every
    ``self.<attr>`` write in any method — and requires each to be either
    ``captured`` (serialized by the class's ``state_dict``) or
    ``waived`` (deliberately not snapshotted; ``note`` carries the
    justification, typically "per-round transient, every consumer reads
    it within the round that wrote it" or "pure cache, rebuilt on
    demand").  A spec naming a class or attribute that no longer exists
    is config drift and fires too — renames cannot silently retire a
    snapshot obligation.
    """

    cls: str
    captured: tuple[str, ...] = ()
    waived: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class PhaseContract:
    """Write-effect contract for one phase/observer class."""

    cls: str
    role: str  # "observer" | "mutator"
    seams: tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionContract:
    """Named parameters of one function that must not be written."""

    suffix: str
    pure_params: tuple[str, ...]


@dataclass(frozen=True)
class FlowConfig:
    return_sinks: tuple[ReturnSink, ...] = ()
    call_sinks: tuple[CallSink, ...] = ()
    memo_specs: tuple[MemoSpec, ...] = ()
    contracts: tuple[PhaseContract, ...] = ()
    function_contracts: tuple[FunctionContract, ...] = ()
    protected_types: tuple[str, ...] = ()
    snapshot_specs: tuple[SnapshotSpec, ...] = ()

    def digest(self) -> str:
        """Stable hash folded into the incremental-cache fingerprint."""
        blob = json.dumps(
            {
                "return_sinks": [vars(s) for s in self.return_sinks],
                "call_sinks": [vars(s) for s in self.call_sinks],
                "memo_specs": [
                    {
                        "function": m.function,
                        "key": m.key_params,
                        "ignored": m.ignored_params,
                        "guarded": m.guarded,
                        "invariant": m.invariant_params,
                    }
                    for m in self.memo_specs
                ],
                "contracts": [vars(c) for c in self.contracts],
                "function_contracts": [
                    vars(c) for c in self.function_contracts
                ],
                "protected": self.protected_types,
                "snapshot_specs": [
                    {
                        "cls": s.cls,
                        "captured": s.captured,
                        "waived": s.waived,
                    }
                    for s in self.snapshot_specs
                ],
            },
            sort_keys=True,
            # frozensets must serialize in a hash-seed-independent order
            # or the digest (and the cache fingerprint) churns per run.
            default=sorted,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


#: Reads of a mutable ``ClusterState`` that every find-alloc memo key
#: captures: the free-capacity vector (``key``/``free``/``free_slots``)
#: and its derived fit predicate.  Anything else read off the state by a
#: memoized function is a cache-coherence bug.
_STATE_KEY_READS = ("key", "free", "free_slots", "can_fit")

DEFAULT_CONFIG = FlowConfig(
    return_sinks=(
        ReturnSink(
            suffix=".schedule",
            forbids=TAINT_KINDS,
            desc="scheduler decision (Scheduler.schedule return)",
        ),
        ReturnSink(
            suffix="find_alloc.find_alloc",
            forbids=TAINT_KINDS,
            desc="allocation decision (find_alloc return)",
        ),
        ReturnSink(
            suffix="find_alloc.cached_find_alloc",
            forbids=TAINT_KINDS,
            desc="allocation decision (cached_find_alloc return)",
        ),
        ReturnSink(
            suffix="reporting.generate_report",
            forbids=TAINT_KINDS,
            desc="reproducible artifact (generated EXPERIMENTS report)",
        ),
    ),
    call_sinks=(
        CallSink(
            suffix="ClusterState.allocate",
            forbids=TAINT_KINDS,
            desc="simulation state mutation (ClusterState.allocate)",
        ),
        CallSink(
            suffix="ClusterState.release",
            forbids=TAINT_KINDS,
            desc="simulation state mutation (ClusterState.release)",
        ),
        CallSink(
            suffix="DecisionTracer.emit",
            forbids=("wallclock", "env", "rng"),
            desc="trace emission (DecisionTracer.emit)",
        ),
    ),
    memo_specs=(
        MemoSpec(
            function="RoundContext.price",
            key_params=("slot", "free"),
            ignored_params=("self",),
            note="Eq. (5) price is a pure function of (slot, free) given "
            "the round-frozen PriceBook on self.",
        ),
        MemoSpec(
            function="RoundContext.move_delay_for",
            key_params=("rt",),
            ignored_params=("self",),
            invariant_params=("picks",),
            note="find_alloc has always charged exactly one reallocation "
            "delay per (job, round) regardless of the candidate picks; "
            "the key omits picks by that documented contract (see the "
            "move_delay_for docstring). The estimator may only read the "
            "job, not the picks.",
        ),
        MemoSpec(
            function="find_alloc._generate_candidates",
            key_params=("w", "usable_desc", "state_key"),
            ignored_params=("ctx",),
            guarded=(("state", _STATE_KEY_READS),),
            invariant_params=("model",),
            note="Generation cache keyed (usable_desc, rate-rank "
            "signature, W, state_key). model influences the result "
            "only through the captured usable order and rank "
            "signature — the equivalence argument in the "
            "_generate_candidates docstring.",
        ),
    ),
    contracts=(
        PhaseContract(cls="TelemetryPhase", role="observer"),
        PhaseContract(cls="ClusterHealthPhase", role="observer"),
        PhaseContract(cls="SanitizerPhase", role="observer"),
        PhaseContract(cls="TracePhase", role="observer"),
        PhaseContract(cls="InvariantSanitizer", role="observer"),
        PhaseContract(cls="DecisionTracer", role="observer"),
        PhaseContract(
            cls="SchedulerPhase",
            role="mutator",
            seams=("invoke", "apply", "bookkeep_round"),
        ),
        PhaseContract(
            cls="FaultPhase",
            role="mutator",
            seams=("apply", "reload", "note_placement"),
        ),
    ),
    function_contracts=(
        FunctionContract(
            suffix="HadarScheduler._build_decision_trace",
            pure_params=("state",),
        ),
        FunctionContract(
            suffix="find_alloc.explain_alloc",
            pure_params=("rt", "state"),
        ),
    ),
    protected_types=(
        "ClusterState",
        "ProgressLedger",
        "EventKernel",
        "JobRuntime",
    ),
    snapshot_specs=(
        SnapshotSpec(
            cls="events.EventQueue",
            captured=("_heap", "_next_seq"),
            note="Heap array serialized verbatim (a captured heap is a "
            "valid heap; pops replay in original order) plus the push "
            "sequence counter.",
        ),
        SnapshotSpec(
            cls="kernel.EventKernel",
            captured=("_queue",),
            note="Delegates wholesale to EventQueue.state_dict.",
        ),
        SnapshotSpec(
            cls="progress.JobRuntime",
            captured=(
                "job", "state", "iterations_done", "allocation", "rate",
                "slowdown", "straggler_events", "checkpoint_iterations",
                "failures", "rollbacks", "rollback_seconds",
                "rollback_iterations", "resume_time", "last_integrated",
                "generation", "alloc_epoch", "first_start_time",
                "finish_time", "preemptions", "allocation_changes",
                "overhead_seconds", "attained_service", "waiting_seconds",
                "rounds_scheduled", "rounds_by_type", "history",
            ),
            note="Every mutable field, plus the immutable job spec so a "
            "runtime round-trips standalone.",
        ),
        SnapshotSpec(
            cls="progress.ProgressLedger",
            captured=("_dirty",),
            waived=(
                "runtimes", "allocation", "finish_time", "generation",
                "rate", "state",
            ),
            note="The runtimes table is owned (and captured, in insertion "
            "order) by the engine; the ledger snapshot is just the dirty "
            "set's mark order. The remaining names are writes that reach "
            "JobRuntime objects *through* local aliases of that table "
            "(finalize_completions' rt.state etc.) — captured on "
            "JobRuntime, not ledger state.",
        ),
        SnapshotSpec(
            cls="state.ClusterState",
            captured=("_capacity", "_free"),
            waived=("_order", "_index", "_vec", "_key_cache"),
            note="Capacity/free maps captured in insertion order (their "
            "dict order feeds free_by_type/used_by_type output order). "
            "_order/_index are the immutable slot universe (validated "
            "against the restoring cluster); _vec/_key_cache are derived "
            "caches rebuilt by load_state_dict.",
        ),
        SnapshotSpec(
            cls="pricing.PriceCalibrator",
            captured=("_types", "_records", "last_jobs", "last_dirty"),
            waived=("config", "_model_rates"),
            note="Eq. (8) records captured in insertion order. config is "
            "immutable; _model_rates is a pure deterministic cache over "
            "the immutable throughput matrix, rebuilt on demand.",
        ),
        SnapshotSpec(
            cls="scheduler.HadarScheduler",
            captured=("last_alpha", "_calibrator", "audit"),
            waived=(
                "config", "reacts_to_events", "round_based",
                "trace_decisions", "last_prices", "last_chosen",
                "last_round_stats", "last_decision_trace",
                "last_calibration_s",
            ),
            note="config/reacts_to_events/round_based are construction-"
            "time constants; trace_decisions is rewired by the engine at "
            "restore; the last_* fields are per-round transients — every "
            "consumer reads them within the round that wrote them.",
        ),
        SnapshotSpec(
            cls="scheduler.GavelScheduler",
            captured=("_cached_key", "_cached_matrix"),
            waived=(
                "config", "reacts_to_events", "round_based",
                "_solved_last_round", "last_round_stats",
            ),
            note="The solved LP matrix is captured (not just its key) so "
            "restore does not depend on solver determinism. "
            "_solved_last_round/last_round_stats are per-round "
            "transients.",
        ),
        SnapshotSpec(
            cls="tiresias.TiresiasScheduler",
            captured=("_demoted",),
            waived=("config", "reacts_to_events", "round_based",
                    "last_round_stats"),
            note="Only the demotion set survives rounds; the queues are "
            "recomputed from attained service each invocation.",
        ),
        SnapshotSpec(
            cls="random_sched.RandomScheduler",
            captured=("_rng",),
            waived=("_seed", "reacts_to_events", "round_based"),
            note="RNG position via bit_generator.state; the seed is "
            "construction-time config.",
        ),
        SnapshotSpec(
            cls="phase.FaultPhase",
            captured=("failed", "_taken", "stats", "rollback_seconds",
                      "rollback_iterations", "_partitions", "_stalled",
                      "_degraded", "_reloads"),
            waived=("model", "cluster", "emit", "sanitizer",
                    "matrix", "_schedules", "_max_time", "_fault_id_limit"),
            note="Every fault schedule is a pure function of (model|spec, "
            "cluster, max_time): epoch 0 is regenerated at construction "
            "and reloaded epochs are replayed from the captured _reloads "
            "stack (which also rebuilds _fault_id_limit) — outstanding "
            "FAULT events live in the kernel heap snapshot. "
            "emit/sanitizer/matrix are wiring the engine re-establishes.",
        ),
        SnapshotSpec(
            cls="telemetry.UtilizationRecorder",
            captured=("times", "used_total", "used_by_type",
                      "queue_times", "queue_depths"),
            note="All five step-function series, verbatim.",
        ),
        SnapshotSpec(
            cls="registry.MetricsRegistry",
            captured=("_metrics",),
            waived=("lock",),
            note="Full reconstructible state (state_dict, not the "
            "cumulative snapshot() rendering); histogram min/max travel "
            "as hex floats for the ±inf empty-series sentinels. The "
            "exposition lock is process-local wiring rebuilt at "
            "construction, never state.",
        ),
        SnapshotSpec(
            cls="sanitizer.InvariantSanitizer",
            captured=("rounds_checked", "_tiresias_seen", "violations"),
            waived=("mode", "abs_tol", "rel_tol"),
            note="mode/tolerances are construction-time config; "
            "violations round-trip as structured records.",
        ),
        SnapshotSpec(
            cls="phases.SchedulerPhase",
            captured=("decision_seconds", "hotpath_stats", "last_changes",
                      "last_queue_depth", "validator"),
            waived=(
                "scheduler", "cluster", "matrix", "round_length",
                "checkpoint", "on_place", "fault_phase", "capture_changes",
                "_nominal",
            ),
            note="Cross-round accumulators captured (validator via its "
            "rejections list). The waived names are construction wiring "
            "the engine re-creates identically at restore.",
        ),
        SnapshotSpec(
            cls="phases.PhaseTimings",
            captured=("decision_s", "integration_s", "repredict_s",
                      "event_dispatch_s", "calibration_s"),
            note="All five wall-clock buckets.",
        ),
        SnapshotSpec(
            cls="arrivals.SubmissionSource",
            captured=("_rng", "_next_job_id", "_emitted", "_clock"),
            waived=("jobs_per_hour", "max_jobs", "seed", "template"),
            note="RNG position + stream counters; rate/bound/seed/"
            "template are construction-time config.",
        ),
    ),
)
