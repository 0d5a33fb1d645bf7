"""Round-length analysis and advisor (the Fig. 9 discussion).

The paper: "Using smaller round lengths results in more optimal
allocations, but it also incurs higher overhead due to frequent
checkpointing.  To balance this, a round length of 7 minutes and a
checkpoint time of fewer than 6 seconds can provide a steady average
JCT ... Larger round lengths lead to performance degradation due to both
queuing delays ... and allocation drifts".

:func:`recommended_round_length` captures that balance analytically: the
shortest round such that (a) the *worst* per-round reallocation overhead
in the workload stays under ``max_overhead_fraction`` and (b) the round
is no longer than ``max_queuing_fraction`` of the workload's median
ideal job runtime (a newly arrived median job should not spend more than
that fraction of its life waiting for the first boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.allocation import Allocation
from repro.sim.checkpoint import CheckpointModel, ModelAwareCheckpoint
from repro.workload.throughput import ThroughputMatrix, default_throughput_matrix
from repro.workload.trace import Trace

__all__ = ["RoundLengthAdvice", "recommended_round_length"]

_RUNNING = Allocation.single(0, "V100", 1)
"""A non-empty gang to move from: a running job's move also pays the save."""


@dataclass(frozen=True, slots=True)
class RoundLengthAdvice:
    """The advisor's output."""

    round_length_s: float
    worst_reallocation_s: float
    """Largest per-move pause any workload model pays."""
    overhead_floor_s: float
    """Round length below which the overhead bound binds."""
    queuing_ceiling_s: float
    """Round length above which the queuing bound binds."""

    @property
    def round_length_min(self) -> float:
        return self.round_length_s / 60.0


def recommended_round_length(
    trace: Trace,
    checkpoint: Optional[CheckpointModel] = None,
    matrix: Optional[ThroughputMatrix] = None,
    *,
    max_overhead_fraction: float = 0.02,
    max_queuing_fraction: float = 0.15,
    floor_s: float = 60.0,
) -> RoundLengthAdvice:
    """Pick a round length balancing checkpoint overhead vs. queuing delay.

    With the paper's models and workloads this lands near the 6-7 minute
    round the paper recommends.
    """
    if not 0 < max_overhead_fraction < 1:
        raise ValueError("max_overhead_fraction must be in (0, 1)")
    if not 0 < max_queuing_fraction < 1:
        raise ValueError("max_queuing_fraction must be in (0, 1)")
    if not len(trace):
        raise ValueError("trace must contain at least one job")
    checkpoint = checkpoint or ModelAwareCheckpoint()
    matrix = matrix or default_throughput_matrix()

    worst_move = max(checkpoint.move_delay(job, _RUNNING) for job in trace)
    # (a) overhead bound: worst_move / L ≤ max_overhead_fraction.
    overhead_floor = worst_move / max_overhead_fraction

    # (b) queuing bound: L ≤ max_queuing_fraction × median ideal runtime
    # (expected wait for the first boundary is L/2; use L for slack).
    ideal = np.asarray([job.min_duration(matrix) for job in trace])
    queuing_ceiling = max_queuing_fraction * float(np.median(ideal))

    chosen = max(floor_s, overhead_floor)
    if queuing_ceiling > chosen:
        chosen = min(queuing_ceiling, max(chosen, overhead_floor))
    # When the bounds conflict (tiny jobs + huge checkpoints) prefer the
    # overhead bound — thrashing hurts everyone, queuing hurts one job.
    return RoundLengthAdvice(
        round_length_s=chosen,
        worst_reallocation_s=worst_move,
        overhead_floor_s=overhead_floor,
        queuing_ceiling_s=queuing_ceiling,
    )
