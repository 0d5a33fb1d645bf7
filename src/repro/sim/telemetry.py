"""Busy-GPU time series for the utilization metric (Figs. 4 and 10).

The recorder stores a right-continuous step function: at each change point
we record the number of *allocated* GPUs per type.  GPU utilization over a
window is then the integral of allocated GPUs divided by ``capacity ×
window`` — the paper's "percentage of total job run-time during which the
GPUs are utilized".  Checkpoint pause windows keep their devices (the GPUs
are held, loading state), matching the prototype's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["UtilizationRecorder"]


@dataclass
class UtilizationRecorder:
    """Step-function recorder of allocated-GPU counts and queue depth."""

    times: list[float] = field(default_factory=list)
    used_total: list[int] = field(default_factory=list)
    used_by_type: list[dict[str, int]] = field(default_factory=list)
    queue_times: list[float] = field(default_factory=list)
    queue_depths: list[int] = field(default_factory=list)
    revision: int = field(default=0, init=False, repr=False, compare=False)
    """Counts the changes to the series: :meth:`record`,
    :meth:`record_queue` and :meth:`load_state_dict` are their only
    writers, so an unchanged revision means an unchanged
    :meth:`state_dict` (the engine's snapshot cache reuses its encoding)."""

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """All five series, verbatim (JSON floats round-trip exactly)."""
        return {
            "times": list(self.times),
            "used_total": list(self.used_total),
            "used_by_type": [dict(d) for d in self.used_by_type],
            "queue_times": list(self.queue_times),
            "queue_depths": list(self.queue_depths),
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self.times = [float(t) for t in state["times"]]
        self.used_total = [int(u) for u in state["used_total"]]
        self.used_by_type = [
            {str(t): int(c) for t, c in d.items()} for d in state["used_by_type"]
        ]
        self.queue_times = [float(t) for t in state["queue_times"]]
        self.queue_depths = [int(d) for d in state["queue_depths"]]

    def record_queue(self, time: float, depth: int) -> None:
        """Record the number of waiting jobs effective from ``time``."""
        if depth < 0:
            raise ValueError("queue depth must be non-negative")
        if self.queue_times and time < self.queue_times[-1] - 1e-9:
            raise ValueError(
                f"queue telemetry time went backwards: {time} < {self.queue_times[-1]}"
            )
        if self.queue_times and abs(time - self.queue_times[-1]) <= 1e-9:
            self.queue_depths[-1] = depth
            self.revision += 1
            return
        if self.queue_depths and self.queue_depths[-1] == depth:
            return
        self.revision += 1
        self.queue_times.append(float(time))
        self.queue_depths.append(int(depth))

    def record(self, time: float, by_type: Mapping[str, int]) -> None:
        """Record the allocation level effective from ``time`` onwards."""
        if self.times and time < self.times[-1] - 1e-9:
            raise ValueError(
                f"telemetry time went backwards: {time} < {self.times[-1]}"
            )
        snapshot = {t: int(c) for t, c in by_type.items()}
        total = sum(snapshot.values())
        if self.times and abs(time - self.times[-1]) <= 1e-9:
            # Same instant: overwrite (the last write at a timestamp wins).
            self.times[-1] = time
            self.used_total[-1] = total
            self.used_by_type[-1] = snapshot
            self.revision += 1
            return
        if self.used_total and self.used_total[-1] == total and (
            self.used_by_type[-1] == snapshot
        ):
            return  # no change; keep the series compact
        self.revision += 1
        self.times.append(float(time))
        self.used_total.append(total)
        self.used_by_type.append(snapshot)

    # -- integrals -------------------------------------------------------------
    def busy_gpu_seconds(self, start: float, end: float) -> float:
        """∫ allocated-GPU count dt over ``[start, end]``."""
        if end < start:
            raise ValueError("end must be >= start")
        if not self.times or end == start:
            return 0.0
        times = np.asarray(self.times, dtype=float)
        used = np.asarray(self.used_total, dtype=float)
        # Segment i covers [times[i], times[i+1]); the last extends to `end`.
        seg_start = np.clip(times, start, end)
        seg_end = np.clip(np.append(times[1:], end), start, end)
        return float(np.sum(used * np.maximum(0.0, seg_end - seg_start)))

    def busy_gpu_seconds_by_type(
        self, start: float, end: float
    ) -> dict[str, float]:
        """Per-type ∫ allocated dt over ``[start, end]``."""
        if end < start:
            raise ValueError("end must be >= start")
        out: dict[str, float] = {}
        if not self.times or end == start:
            return out
        times = np.asarray(self.times, dtype=float)
        seg_start = np.clip(times, start, end)
        seg_end = np.clip(np.append(times[1:], end), start, end)
        widths = np.maximum(0.0, seg_end - seg_start)
        type_names = sorted({t for snap in self.used_by_type for t in snap})
        for type_name in type_names:
            counts = np.fromiter(
                (snap.get(type_name, 0) for snap in self.used_by_type),
                dtype=float,
                count=len(self.used_by_type),
            )
            busy = float(counts @ widths)
            if busy > 0.0:
                out[type_name] = busy
        return out

    def average_utilization(
        self, capacity: int, start: float, end: float
    ) -> float:
        """Mean fraction of the cluster's GPUs allocated over ``[start, end]``."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        window = end - start
        if window <= 0:
            return 0.0
        return self.busy_gpu_seconds(start, end) / (capacity * window)

    def utilization_by_type(
        self, capacity_by_type: Mapping[str, int], start: float, end: float
    ) -> dict[str, float]:
        """Per-type mean allocated fraction over ``[start, end]``."""
        window = end - start
        if window <= 0:
            return {t: 0.0 for t in capacity_by_type}
        busy = self.busy_gpu_seconds_by_type(start, end)
        return {
            t: busy.get(t, 0.0) / (cap * window) if cap > 0 else 0.0
            for t, cap in capacity_by_type.items()
        }

    # -- contended-window views -----------------------------------------------
    def contended_windows(self, end: float) -> list[tuple[float, float]]:
        """Intervals within ``[0, end]`` during which jobs were waiting."""
        windows: list[tuple[float, float]] = []
        if not self.queue_times:
            return windows
        times = self.queue_times + [end]
        for i, depth in enumerate(self.queue_depths):
            lo, hi = times[i], min(times[i + 1], end)
            if depth > 0 and hi > lo:
                windows.append((lo, hi))
        return windows

    def contended_utilization(self, capacity: int, end: float) -> float:
        """Mean allocated fraction restricted to queue-non-empty windows.

        This is the utilization figure the Fig. 4/10 comparisons report:
        idle devices only count against a scheduler while work is
        actually waiting for them.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        windows = self.contended_windows(end)
        total = sum(hi - lo for lo, hi in windows)
        if total <= 0:
            return 0.0
        busy = sum(self.busy_gpu_seconds(lo, hi) for lo, hi in windows)
        return busy / (capacity * total)

    def timeline(self) -> list[tuple[float, int]]:
        """The raw ``(time, total allocated)`` step series."""
        return list(zip(self.times, self.used_total))
