"""Decision trace → Chrome/Perfetto ``trace_event`` timeline.

Converts a decision trace (plus the per-phase wall-clock totals its
summary record carries) into the Trace Event JSON format that
``ui.perfetto.dev`` and ``chrome://tracing`` open natively:

* **rounds as frames** — every scheduling round is a complete (``X``)
  slice on the *simulated time* axis, spanning to the next round, with
  its admission counts and decision latency in ``args``;
* **per-job allocation lifelines** — one track per job, a slice per
  placement interval (opened by a ``place``/``migrate`` change, closed
  by the next change or the run's end), named by the gang (``2×V100@n0``)
  so migrations and preemptions read directly off the timeline;
* **counter tracks** — queued/running depth and the per-GPU-type mean
  Eq. (5) price trajectory;
* **per-phase spans** — a separate wall-clock process laying each
  round's scheduler decision end-to-end, plus one slice per engine phase
  total (event dispatch, integration, re-prediction, decision) from the
  summary record.

Simulated time maps 1 s → 1 ms of trace time (``displayTimeUnit: ms``),
so a 6-minute round renders as a 360 ms frame; the wall-clock process
uses real microseconds.  Everything here is pure data transformation —
no engine imports — so traces from old runs keep exporting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = ["trace_to_perfetto", "export_perfetto"]

_SIM_PID = 1
_JOBS_PID = 2
_WALL_PID = 3

_SIM_SCALE_US = 1_000.0
"""Simulated seconds → trace µs (1 sim-second renders as 1 ms)."""


def _meta(pid: int, name: str) -> dict:
    return {
        "ph": "M", "pid": pid, "tid": 0,
        "name": "process_name", "args": {"name": name},
    }


def _thread_meta(pid: int, tid: int, name: str) -> dict:
    return {
        "ph": "M", "pid": pid, "tid": tid,
        "name": "thread_name", "args": {"name": name},
    }


def _gang_label(placements: Iterable) -> str:
    """``[[0, "V100", 2], [1, "K80", 1]]`` → ``"2×V100@n0+1×K80@n1"``."""
    parts = [f"{count}×{gpu}@n{node}" for node, gpu, count in placements]
    return "+".join(parts) if parts else "idle"


def trace_to_perfetto(records: Iterable[dict]) -> dict:
    """Build the ``trace_event`` document from parsed trace records."""
    events: list[dict] = [
        _meta(_SIM_PID, "simulation (sim time, 1s = 1ms)"),
        _thread_meta(_SIM_PID, 1, "rounds"),
        _meta(_JOBS_PID, "job allocation lifelines (sim time)"),
        _meta(_WALL_PID, "scheduler wall-clock"),
        _thread_meta(_WALL_PID, 1, "decision latency per round"),
        _thread_meta(_WALL_PID, 2, "engine phase totals"),
    ]
    meta: Optional[dict] = None
    summary: Optional[dict] = None
    rounds: list[dict] = []
    # job_id -> (start sim-time, placements) for the open lifeline slice.
    open_slices: dict[int, tuple[float, list]] = {}
    job_tracks: set[int] = set()
    last_t = 0.0
    wall_cursor = 0.0

    for record in records:
        kind = record.get("kind")
        if kind == "meta":
            meta = record
        elif kind == "round":
            rounds.append(record)
            last_t = max(last_t, float(record["t"]))
        elif kind == "summary":
            summary = record
            last_t = max(last_t, float(record.get("end_time", 0.0)))

    round_length = float(meta["round_length_s"]) if meta else 360.0

    for i, record in enumerate(rounds):
        t = float(record["t"])
        ts = t * _SIM_SCALE_US
        nxt = float(rounds[i + 1]["t"]) if i + 1 < len(rounds) else t + round_length
        jobs = record.get("jobs", [])
        admitted = sum(1 for j in jobs if j.get("outcome") in ("admitted", "kept"))
        skipped = sum(1 for j in jobs if j.get("outcome") == "skipped")
        args = {
            "round": record["round"],
            "sim_t_s": t,
            "admitted": admitted,
            "skipped": skipped,
            "changes": len(record.get("changes", [])),
        }
        if "decision_s" in record:
            args["decision_ms"] = round(record["decision_s"] * 1e3, 3)
        events.append(
            {
                "ph": "X", "pid": _SIM_PID, "tid": 1,
                "name": f"round {record['round']}",
                "cat": "round", "ts": ts,
                "dur": max(nxt - t, 0.0) * _SIM_SCALE_US,
                "args": args,
            }
        )

        # Counter tracks: queue pressure and the price trajectory.
        counters: dict[str, float] = {}
        if "queued" in record:
            counters["queued"] = record["queued"]
        if "running" in record:
            counters["running"] = record["running"]
        if counters:
            events.append(
                {
                    "ph": "C", "pid": _SIM_PID, "tid": 0,
                    "name": "jobs", "ts": ts, "args": counters,
                }
            )
        prices = record.get("prices")
        if prices:
            by_type: dict[str, list[float]] = {}
            for entry in prices:
                by_type.setdefault(entry["gpu_type"], []).append(entry["price"])
            events.append(
                {
                    "ph": "C", "pid": _SIM_PID, "tid": 0,
                    "name": "mean price (Eq. 5)", "ts": ts,
                    "args": {
                        gpu: sum(vals) / len(vals)
                        for gpu, vals in sorted(by_type.items())
                    },
                }
            )

        # Allocation lifelines from the applied diff.
        for change in record.get("changes", []):
            job_id = int(change["job_id"])
            job_tracks.add(job_id)
            opened = open_slices.pop(job_id, None)
            if opened is not None:
                start, placements = opened
                events.append(
                    {
                        "ph": "X", "pid": _JOBS_PID, "tid": job_id,
                        "name": _gang_label(placements),
                        "cat": "allocation",
                        "ts": start * _SIM_SCALE_US,
                        "dur": max(t - start, 0.0) * _SIM_SCALE_US,
                        "args": {"job_id": job_id, "until": change["change"]},
                    }
                )
            if change.get("new"):
                open_slices[job_id] = (t, change["new"])

        # Wall-clock lane: decision latencies laid end-to-end.
        decision_s = float(record.get("decision_s", 0.0))
        if decision_s > 0.0:
            events.append(
                {
                    "ph": "X", "pid": _WALL_PID, "tid": 1,
                    "name": f"decision (round {record['round']})",
                    "cat": "decision",
                    "ts": wall_cursor * 1e6,
                    "dur": decision_s * 1e6,
                    "args": {"round": record["round"], "sim_t_s": t},
                }
            )
            wall_cursor += decision_s

    # Close lifelines still open at the end of the run.
    for job_id in sorted(open_slices):
        start, placements = open_slices[job_id]
        events.append(
            {
                "ph": "X", "pid": _JOBS_PID, "tid": job_id,
                "name": _gang_label(placements),
                "cat": "allocation",
                "ts": start * _SIM_SCALE_US,
                "dur": max(last_t - start, 0.0) * _SIM_SCALE_US,
                "args": {"job_id": job_id, "until": "end"},
            }
        )
    for job_id in sorted(job_tracks):
        events.append(_thread_meta(_JOBS_PID, job_id, f"job {job_id}"))

    # Engine phase totals, end-to-end on their own wall-clock lane.
    if summary is not None:
        cursor = 0.0
        for phase, seconds in sorted(summary.get("phase_timings", {}).items()):
            seconds = float(seconds)
            if seconds <= 0.0:
                continue
            events.append(
                {
                    "ph": "X", "pid": _WALL_PID, "tid": 2,
                    "name": phase, "cat": "phase",
                    "ts": cursor * 1e6, "dur": seconds * 1e6,
                    "args": {"seconds": seconds},
                }
            )
            cursor += seconds

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "scheduler": (meta or {}).get("scheduler", "unknown"),
            "sim_time_scale": "1 simulated second = 1 trace millisecond",
        },
    }
    return doc


def export_perfetto(
    trace_path: Union[str, Path], out_path: Union[str, Path]
) -> dict:
    """Read a JSONL decision trace, write the Perfetto JSON; returns the doc."""
    from repro.obs.tracer import read_trace

    doc = trace_to_perfetto(read_trace(trace_path))
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc
