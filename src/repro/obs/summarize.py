"""Trace analytics behind the ``repro.obs`` CLI: summarize and diff.

Pure functions over parsed trace records — no printing here (rendering
lives in :mod:`repro.obs.__main__`, the only obs module allowed to write
to stdout under REP007).  ``summarize_trace`` answers "where did the time
go and who got in"; ``diff_traces`` answers "do these two runs make the
same decisions, and if not, where do they fork" — the workhorse for
comparing a change against a recorded baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["TraceSummary", "TraceDiff", "summarize_trace", "diff_traces"]


@dataclass
class TraceSummary:
    """Aggregates of one decision trace."""

    scheduler: str = "unknown"
    rounds: int = 0
    jobs_seen: int = 0
    admitted: int = 0
    kept: int = 0
    skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)
    changes: int = 0
    preemptions: int = 0
    migrations: int = 0
    placements: int = 0
    total_decision_s: float = 0.0
    slowest_rounds: list[dict] = field(default_factory=list)
    """Top-k rounds by decision latency: {round, t, decision_s, ...}."""
    price_trajectories: dict[str, dict] = field(default_factory=dict)
    """Per GPU type: first/min/max/last mean Eq. (5) price over rounds."""
    fault_events: dict[str, int] = field(default_factory=dict)
    """Counts of the fault-injected record kinds (``gpu_failed``,
    ``network_partition``, ``storage_lost``, ...); empty for clean runs."""
    stalled_gangs: int = 0
    """Gangs stalled across all ``network_partition`` records."""
    rolled_back_jobs: int = 0
    """``job_rollback`` records (crash restarts + storage losses)."""
    summary_record: Optional[dict] = None

    @property
    def admission_rate(self) -> float:
        """Admitted+kept over all traced job outcomes (0 when untraced)."""
        if self.jobs_seen == 0:
            return 0.0
        return (self.admitted + self.kept) / self.jobs_seen

    @property
    def skip_rate(self) -> float:
        if self.jobs_seen == 0:
            return 0.0
        return self.skipped / self.jobs_seen


def summarize_trace(records: Iterable[dict], top_k: int = 5) -> TraceSummary:
    """Fold a record stream into a :class:`TraceSummary`."""
    out = TraceSummary()
    latencies: list[tuple[float, dict]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "meta":
            out.scheduler = record.get("scheduler", out.scheduler)
            continue
        if kind == "summary":
            out.summary_record = record
            continue
        if kind != "round":
            if kind in (
                "gpu_failed",
                "gpu_recovered",
                "job_rollback",
                "decision_rejected",
                "network_partition",
                "partition_healed",
                "node_degraded",
                "storage_lost",
                "faultspec_reloaded",
            ):
                out.fault_events[kind] = out.fault_events.get(kind, 0) + 1
                if kind == "network_partition":
                    out.stalled_gangs += len(record.get("stalled", []))
                elif kind == "job_rollback":
                    out.rolled_back_jobs += 1
            continue
        out.rounds += 1
        jobs = record.get("jobs", [])
        for job in jobs:
            out.jobs_seen += 1
            outcome = job.get("outcome")
            if outcome == "admitted":
                out.admitted += 1
            elif outcome == "kept":
                out.kept += 1
            elif outcome == "skipped":
                out.skipped += 1
                reason = job.get("reason", "unknown")
                out.skip_reasons[reason] = out.skip_reasons.get(reason, 0) + 1
        changes = record.get("changes", [])
        out.changes += len(changes)
        for change in changes:
            what = change.get("change")
            if what == "preempt":
                out.preemptions += 1
            elif what == "migrate":
                out.migrations += 1
            elif what == "place":
                out.placements += 1

        decision_s = float(record.get("decision_s", 0.0))
        out.total_decision_s += decision_s
        latencies.append(
            (
                decision_s,
                {
                    "round": record.get("round"),
                    "t": record.get("t"),
                    "decision_s": decision_s,
                    "queued": record.get("queued"),
                    "admitted": sum(
                        1 for j in jobs if j.get("outcome") in ("admitted", "kept")
                    ),
                },
            )
        )

        prices = record.get("prices")
        if prices:
            by_type: dict[str, list[float]] = {}
            for entry in prices:
                by_type.setdefault(entry["gpu_type"], []).append(entry["price"])
            for gpu, vals in by_type.items():
                mean = sum(vals) / len(vals)
                traj = out.price_trajectories.get(gpu)
                if traj is None:
                    out.price_trajectories[gpu] = {
                        "first": mean, "min": mean, "max": mean, "last": mean,
                    }
                else:
                    traj["min"] = min(traj["min"], mean)
                    traj["max"] = max(traj["max"], mean)
                    traj["last"] = mean

    latencies.sort(key=lambda item: (-item[0], item[1]["round"]))
    out.slowest_rounds = [info for _, info in latencies[: max(top_k, 0)]]
    return out


@dataclass
class TraceDiff:
    """Decision-level comparison of two traces (A = left, B = right)."""

    rounds_a: int = 0
    rounds_b: int = 0
    compared_rounds: int = 0
    identical_rounds: int = 0
    first_divergence: Optional[dict] = None
    """{round, t, only_a, only_b} of the earliest admitted-set mismatch."""
    divergent_rounds: list[dict] = field(default_factory=list)
    decision_s_a: float = 0.0
    decision_s_b: float = 0.0

    @property
    def decisions_match(self) -> bool:
        return (
            self.rounds_a == self.rounds_b
            and self.identical_rounds == self.compared_rounds
        )

    @property
    def speedup(self) -> Optional[float]:
        """Decision wall-clock of A over B (>1 means B is faster)."""
        if self.decision_s_b <= 0.0:
            return None
        return self.decision_s_a / self.decision_s_b


def _admitted_map(record: dict) -> dict[int, list]:
    """job_id -> allocation for the round's admitted/kept jobs."""
    out = {}
    for job in record.get("jobs", []):
        if job.get("outcome") in ("admitted", "kept"):
            out[int(job["job_id"])] = job.get("allocation", [])
    return out


def diff_traces(
    records_a: Iterable[dict],
    records_b: Iterable[dict],
    max_divergences: int = 10,
) -> TraceDiff:
    """Compare two traces round-by-round on their admitted allocations.

    Two rounds match when they admit the same jobs with the same gangs.
    Decision latencies are summed for a wall-clock comparison (the main
    use: a performance change and its recorded baseline must match on
    decisions and differ only in latency).
    """
    rounds_a = [r for r in records_a if r.get("kind") == "round"]
    rounds_b = [r for r in records_b if r.get("kind") == "round"]
    out = TraceDiff(rounds_a=len(rounds_a), rounds_b=len(rounds_b))
    out.decision_s_a = sum(float(r.get("decision_s", 0.0)) for r in rounds_a)
    out.decision_s_b = sum(float(r.get("decision_s", 0.0)) for r in rounds_b)

    for ra, rb in zip(rounds_a, rounds_b):
        out.compared_rounds += 1
        admitted_a, admitted_b = _admitted_map(ra), _admitted_map(rb)
        if admitted_a == admitted_b:
            out.identical_rounds += 1
            continue
        only_a = sorted(
            j for j in admitted_a
            if j not in admitted_b or admitted_a[j] != admitted_b.get(j)
        )
        only_b = sorted(
            j for j in admitted_b
            if j not in admitted_a or admitted_b[j] != admitted_a.get(j)
        )
        divergence = {
            "round": ra.get("round"),
            "t": ra.get("t"),
            "only_a": only_a,
            "only_b": only_b,
        }
        if out.first_divergence is None:
            out.first_divergence = divergence
        if len(out.divergent_rounds) < max_divergences:
            out.divergent_rounds.append(divergence)
    return out
