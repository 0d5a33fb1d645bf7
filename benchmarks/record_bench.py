"""Record (and regression-check) the DP hot-path benchmark.

Runs the golden-parity scenarios and writes
``benchmarks/BENCH_dp_hotpath.json``: per-scenario wall-clock, per-phase
engine timings (``SimulationResult.phase_timings``), the ``RoundStats``
counters, and the work the round caches save — against the frozen
counters of the removed every-cache-off mode (``RETIRED_REFERENCE``,
copied into the file verbatim) — see ``docs/performance.md`` for how to
read the file.

An extra ``engine/tiresias`` scenario drives the event kernel + phase
pipeline with the cheap Tiresias policy, so engine overhead (dispatch,
integration, dirty-set re-prediction) is gated independently of the DP
search.  Both scenario families flow through the same ``--check`` gate.

Every cached run attaches a :class:`repro.obs.MetricsRegistry`, so the
recorded counters (RoundStats, ``calib_jobs``/``calib_dirty``, the
baselines' round stats) come out of the same ``repro_hotpath_total``
metric family the simulator publishes everywhere else.  Each Hadar
scenario is additionally rerun with a *disabled* ``DecisionTracer``
attached, and again with an all-rates-zero ``FaultModel`` (the whole
fault machinery wired in — repair-mode validator, fault phase, empty
schedule — but no events); the ``--check`` gate fails if even the
least-noisy seed shows >= 3% wall-clock overhead on either off path.
A fourth ``snapshot_overhead`` rerun drives the same scenario through
the step lifecycle with a full engine snapshot serialized every 25
rounds (the ``--snapshot-every`` CLI default) and gates that tax the
same way.  A fifth ``metrics_live`` comparison reruns the scenario with
no observers at all and gates the live per-round publication tax (the
registry-attached run pays engine families + the health observer every
round, lock held, so a ``--listen`` endpoint can scrape mid-run) the
same < 3% min-over-seeds way.

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py
    PYTHONPATH=src python benchmarks/record_bench.py --output /tmp/bench.json
    PYTHONPATH=src python benchmarks/record_bench.py \
        --check benchmarks/BENCH_dp_hotpath.json

``--check`` reruns the cached scenarios and exits 1 if any is more than
``--threshold`` (default 2.0) times slower than the baseline file — the
CI smoke gate.  Counter ratios are machine-independent; wall-clock is
noisy, hence the generous threshold.

Scale follows ``REPRO_SCALE`` (quick/default/full) like every bench.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_scale  # noqa: E402

from repro.cluster.cluster import simulated_cluster  # noqa: E402
from repro.core.scheduler import HadarScheduler  # noqa: E402
from repro.faults import FaultModel  # noqa: E402
from repro.obs import DecisionTracer, MetricsRegistry  # noqa: E402
from repro.sim.engine import SimulationResult, simulate  # noqa: E402
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace  # noqa: E402

SEEDS = (1, 2, 3)
JOBS_BY_SCALE = {"quick": 14, "default": 24, "full": 40}
DEFAULT_OUTPUT = Path(__file__).with_name("BENCH_dp_hotpath.json")
TRACING_OVERHEAD_LIMIT_PCT = 3.0
"""Gate on the disabled-tracer tax: attaching a ``DecisionTracer`` with
``enabled=False`` must cost < 3% wall-clock vs no tracer at all (the
minimum over the seeds is compared, so one noisy run cannot fail CI)."""
FAULTS_OVERHEAD_LIMIT_PCT = 3.0
"""Gate on the faults-disabled tax: attaching an all-rates-zero
``FaultModel`` (empty schedule, repair-mode validator) must cost < 3%
wall-clock vs no fault machinery at all (same min-over-seeds rule)."""
SNAPSHOT_OVERHEAD_LIMIT_PCT = 3.0
"""Gate on the checkpointing tax: with a full engine snapshot captured
and serialized every ``SNAPSHOT_EVERY`` rounds (the CLI's default
interval), the seconds spent inside snapshot+serialize must be < 3% of
the run's remaining wall-clock.  Measured directly around the snapshot
calls (not run-vs-run, which is noise-bound), min over the seeds."""
SNAPSHOT_EVERY = 25
"""Rounds between snapshots in the ``snapshot_overhead`` scenario —
matches the ``--snapshot-every`` CLI default."""
RETIRED_REFERENCE = {
    "mode": "DPConfig(round_caching=False): every RoundContext cache off; "
    "removed, its search lives on as explain_alloc",
    "scale": "quick",
    "scenarios": {
        "hadar/1": {"wall_s": 10.471, "find_alloc_calls": 68915,
                    "candidate_evals": 1032984, "price_evals": 1033381},
        "hadar/2": {"wall_s": 3.478, "find_alloc_calls": 22432,
                    "candidate_evals": 284632, "price_evals": 319405},
        "hadar/3": {"wall_s": 1.715, "find_alloc_calls": 10816,
                    "candidate_evals": 162240, "price_evals": 162240},
    },
}
"""The last recording of the removed reference mode.  Its counters are
deterministic for the scale, so the cache layers' candidate-evaluation
reduction is still computed against them; ``wall_s`` is history only."""
METRICS_LIVE_OVERHEAD_LIMIT_PCT = 3.0
"""Gate on the live-publication tax: the cached run with a
``MetricsRegistry`` attached (per-round engine families + the
``ClusterHealthPhase`` observer, published under ``registry.lock`` so a
``--listen`` endpoint can scrape mid-run) must cost < 3% wall-clock vs
the same run with no observers at all (min over the seeds)."""


def _phases(result: SimulationResult) -> dict[str, float]:
    return {k: round(v, 4) for k, v in result.phase_timings.items()}


def _run(
    seed: int,
    num_jobs: int,
    tracer: Optional[DecisionTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[FaultModel] = None,
) -> tuple[float, SimulationResult]:
    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=num_jobs, seed=seed))
    scheduler = HadarScheduler()
    start = time.perf_counter()
    result = simulate(
        cluster, trace, scheduler, tracer=tracer, metrics=metrics, faults=faults
    )
    return time.perf_counter() - start, result


def _run_snapshotting(
    seed: int, num_jobs: int
) -> tuple[float, float, SimulationResult, int]:
    """The cached Hadar scenario driven through the step lifecycle with a
    full engine snapshot serialized every ``SNAPSHOT_EVERY`` rounds — the
    service-mode hot path (``repro.cli serve``).  Returns the total
    wall-clock, the seconds spent inside snapshot+serialize (the
    checkpointing tax the gate bounds), the result, and the snapshot
    count."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.snapshot import SnapshotCodec

    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=num_jobs, seed=seed))
    scheduler = HadarScheduler()
    engine = SimulationEngine(
        cluster=cluster,
        trace=trace,
        scheduler=scheduler,
        metrics=MetricsRegistry(),
    )
    codec = SnapshotCodec()
    snapshots = 0
    snapshot_s = 0.0
    start = time.perf_counter()
    engine.start()
    last = engine.scheduling_invocations
    more = True
    while more:
        more = engine.step()
        rounds = engine.scheduling_invocations
        if more and rounds - last >= SNAPSHOT_EVERY:
            snap_start = time.perf_counter()
            codec.dumps(engine.snapshot())
            snapshot_s += time.perf_counter() - snap_start
            snapshots += 1
            last = rounds
    result = engine.stop()
    return time.perf_counter() - start, snapshot_s, result, snapshots


def _run_engine(seed: int, num_jobs: int) -> tuple[float, SimulationResult]:
    """The engine-dominated scenario: Tiresias decisions are trivial, so
    the measured time is the kernel + ledger + phase pipeline itself."""
    from repro.baselines import TiresiasScheduler

    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=num_jobs, seed=seed))
    metrics = MetricsRegistry()
    start = time.perf_counter()
    result = simulate(cluster, trace, TiresiasScheduler(), metrics=metrics)
    return time.perf_counter() - start, result


def _counter_metrics(result: SimulationResult) -> dict[str, dict]:
    """The registry's counter series for the report (uniform across
    schedulers: engine counters plus whatever ``last_round_stats`` the
    policy published — Hadar's RoundStats, the baselines' round stats).
    Timing metrics are deliberately dropped: they duplicate the wall_s /
    phase_timings fields and would churn the recorded file."""
    counters = {}
    for name, metric in sorted(result.metrics.items()):
        if metric.get("type") != "counter":
            continue
        counters[name] = {
            "help": metric.get("help", ""),
            "series": metric.get("series", []),
        }
    return counters


def record(num_jobs: int, scale: str) -> dict:
    """Measure every scenario; returns the report dict."""
    retired = RETIRED_REFERENCE["scenarios"] if scale == RETIRED_REFERENCE["scale"] else {}
    scenarios: dict[str, dict] = {}
    for seed in SEEDS:
        cached_s, cached = _run(seed, num_jobs, metrics=MetricsRegistry())
        # The live-publication tax: the run above pays per-round metrics
        # publication + the health observer; this one runs bare.
        bare_s, _ = _run(seed, num_jobs)
        # The tracing-off tax: same scenario with a disabled DecisionTracer
        # attached — the engine must skip all record building.
        disabled_tracer = DecisionTracer(sink=[], enabled=False)
        disabled_s, _ = _run(seed, num_jobs, tracer=disabled_tracer)
        # The faults-off tax: all machinery attached, zero fault events.
        faults_s, _ = _run(seed, num_jobs, faults=FaultModel(seed=seed))
        # The checkpointing tax: step-driven run with periodic snapshots.
        snap_s, snap_cost_s, snap_result, snapshots = _run_snapshotting(
            seed, num_jobs
        )
        if repr(snap_result.end_time) != repr(cached.end_time):
            raise AssertionError(
                f"snapshot_overhead run diverged from the batch run at "
                f"seed {seed}: end_time {snap_result.end_time!r} != "
                f"{cached.end_time!r}"
            )
        c_stats = cached.hotpath_stats
        name = f"hadar/{seed}"
        scenarios[name] = {
            "cached": {
                "wall_s": round(cached_s, 3),
                "phase_timings": _phases(cached),
                "counters": c_stats,
                "metrics": _counter_metrics(cached),
            },
            "metrics_live": {
                "wall_s": round(cached_s, 3),
                "bare_wall_s": round(bare_s, 3),
                "overhead_pct": round(
                    100.0 * (cached_s / max(bare_s, 1e-9) - 1.0), 2
                ),
            },
            "tracing_disabled": {
                "wall_s": round(disabled_s, 3),
                "overhead_pct": round(100.0 * (disabled_s / max(cached_s, 1e-9) - 1.0), 2),
            },
            "faults_disabled": {
                "wall_s": round(faults_s, 3),
                "overhead_pct": round(100.0 * (faults_s / max(cached_s, 1e-9) - 1.0), 2),
            },
            "snapshot_overhead": {
                "wall_s": round(snap_s, 3),
                "snapshot_s": round(snap_cost_s, 4),
                "overhead_pct": round(
                    100.0 * snap_cost_s / max(snap_s - snap_cost_s, 1e-9), 2
                ),
                "snapshots": snapshots,
            },
        }
        if name in retired:
            scenarios[name]["candidate_eval_reduction"] = round(
                retired[name]["candidate_evals"]
                / max(c_stats.get("candidate_evals", 0), 1),
                2,
            )
    engine_s, engine_result = _run_engine(SEEDS[0], num_jobs)
    scenarios["engine/tiresias"] = {
        "cached": {
            "wall_s": round(engine_s, 3),
            "phase_timings": _phases(engine_result),
            "metrics": _counter_metrics(engine_result),
        },
    }
    hadar = [s for name, s in scenarios.items() if name.startswith("hadar/")]
    reductions = [
        s["candidate_eval_reduction"] for s in hadar if "candidate_eval_reduction" in s
    ]
    overheads = [s["tracing_disabled"]["overhead_pct"] for s in hadar]
    fault_overheads = [s["faults_disabled"]["overhead_pct"] for s in hadar]
    snapshot_overheads = [s["snapshot_overhead"]["overhead_pct"] for s in hadar]
    live_overheads = [s["metrics_live"]["overhead_pct"] for s in hadar]
    return {
        "meta": {
            "bench": "dp_hotpath",
            "scale": scale,
            "num_jobs": num_jobs,
            "seeds": list(SEEDS),
            "cluster": "simulated_cluster",
            "modes": {
                "cached": "HadarScheduler defaults (RoundContext caches)",
                "engine": "Tiresias policy; isolates kernel/ledger overhead",
            },
        },
        "scenarios": scenarios,
        "retired_reference": RETIRED_REFERENCE,
        "summary": {
            "min_candidate_eval_reduction": min(reductions, default=None),
            "max_candidate_eval_reduction": max(reductions, default=None),
            "min_tracing_overhead_pct": min(overheads),
            "min_faults_overhead_pct": min(fault_overheads),
            "min_snapshot_overhead_pct": min(snapshot_overheads),
            "min_metrics_live_overhead_pct": min(live_overheads),
        },
    }


def check(report: dict, baseline: dict, threshold: float) -> list[str]:
    """Latency regressions of ``report`` vs ``baseline`` (cached mode)."""
    problems: list[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name in sorted(report["scenarios"]):
        base = base_scenarios.get(name)
        if base is None:
            continue
        now_s = report["scenarios"][name]["cached"]["wall_s"]
        base_s = base["cached"]["wall_s"]
        if base_s > 0 and now_s > threshold * base_s:
            problems.append(
                f"{name}: cached wall-clock {now_s:.3f}s exceeds "
                f"{threshold:.1f}x baseline {base_s:.3f}s"
            )
    overhead = report.get("summary", {}).get("min_tracing_overhead_pct")
    if overhead is not None and overhead >= TRACING_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"tracing-disabled overhead {overhead:.2f}% on every seed — "
            f"the off path must cost < {TRACING_OVERHEAD_LIMIT_PCT:.0f}%"
        )
    fault_overhead = report.get("summary", {}).get("min_faults_overhead_pct")
    if fault_overhead is not None and fault_overhead >= FAULTS_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"faults-disabled overhead {fault_overhead:.2f}% on every seed — "
            f"the off path must cost < {FAULTS_OVERHEAD_LIMIT_PCT:.0f}%"
        )
    snap_overhead = report.get("summary", {}).get("min_snapshot_overhead_pct")
    if snap_overhead is not None and snap_overhead >= SNAPSHOT_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"snapshot overhead {snap_overhead:.2f}% on every seed — "
            f"periodic checkpointing must cost < "
            f"{SNAPSHOT_OVERHEAD_LIMIT_PCT:.0f}%"
        )
    live_overhead = report.get("summary", {}).get("min_metrics_live_overhead_pct")
    if live_overhead is not None and live_overhead >= METRICS_LIVE_OVERHEAD_LIMIT_PCT:
        problems.append(
            f"live metrics publication overhead {live_overhead:.2f}% on "
            f"every seed — the attached-registry path must cost < "
            f"{METRICS_LIVE_OVERHEAD_LIMIT_PCT:.0f}%"
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/record_bench.py",
        description="Record / regression-check the DP hot-path benchmark.",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"report destination (default: {DEFAULT_OUTPUT.name})",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a baseline report; exit 1 on latency regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="allowed cached wall-clock ratio vs baseline (default: 2.0)",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    num_jobs = JOBS_BY_SCALE.get(scale, JOBS_BY_SCALE["quick"])
    print(f"recording dp_hotpath at scale={scale} ({num_jobs} jobs) ...")
    report = record(num_jobs, scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"wrote {args.output}")
    if summary["min_candidate_eval_reduction"] is not None:
        print(
            "candidate-eval reduction vs the retired reference: "
            f"{summary['min_candidate_eval_reduction']:.2f}x - "
            f"{summary['max_candidate_eval_reduction']:.2f}x"
        )
    print(
        "tracing-off overhead (min): "
        f"{summary['min_tracing_overhead_pct']:.2f}%; "
        "faults-off overhead (min): "
        f"{summary['min_faults_overhead_pct']:.2f}%; "
        "snapshot overhead (min): "
        f"{summary['min_snapshot_overhead_pct']:.2f}%; "
        "live metrics overhead (min): "
        f"{summary['min_metrics_live_overhead_pct']:.2f}%"
    )

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        problems = check(report, baseline, args.threshold)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"no latency regression vs {args.check} (threshold {args.threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
