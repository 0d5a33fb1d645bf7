"""The fault phase — applies failure/recovery events to the live run.

Dispatch target for :attr:`~repro.sim.events.EventKind.FAULT` events in
the engine loop.  On a failure it

1. works out how many devices each touched slot loses (all surviving
   devices for a node-level failure, ``count`` clamped to surviving
   capacity for a device failure);
2. preempts every running gang holding devices the failure needs freed —
   victims are selected in job-id order — and **rolls each back to its
   last checkpoint**: ``iterations_done`` returns to
   ``checkpoint_iterations`` (lost progress = work since the last save,
   the crash-restart semantics of :mod:`repro.sim.checkpoint`), the job
   re-queues, and its ``generation``/``alloc_epoch`` both bump so
   outstanding completion predictions and straggler events for the dead
   gang go stale in the kernel;
3. removes the failed devices from :class:`~repro.cluster.state.ClusterState`
   capacity, so Eq. 5 pricing and every scheduler's planning state see
   the reduced cluster; and
4. records exactly what was taken under the event's ``fault_id``, so the
   paired recovery restores precisely those devices (never exceeding
   nominal capacity even when failure windows overlap).

The failure-domain extension adds four more event families:

* **PARTITION / PARTITION_HEAL** — a failure domain drops off the
  network.  Gangs *spanning* the boundary stall (rate → 0, the
  synchronization barrier never completes) or preempt+rollback per
  ``partition_policy``; gangs fully inside the cut keep running.  The
  isolated nodes' free capacity disappears from planning through
  :attr:`unreachable_nodes` → ``SchedulerContext.unreachable`` (Eq. 5
  prices rise because ``fresh_state`` hides the capacity), while the
  live cluster state keeps its devices — nothing physically failed.
* **DEGRADE / DEGRADE_END** — a node throttles to ``rate_factor``
  without evicting; every running gang touching it slows to the min
  factor across its nodes (the straggler-barrier physics of
  :mod:`repro.sim.stragglers`, composed via
  :func:`repro.sim.stragglers.compose_rate`).  Post-recovery healing
  windows reuse exactly this path: a RECOVER carrying
  ``rate_factor < 1`` opens a degrade window closed by a pre-scheduled
  DEGRADE_END sharing its ``fault_id``.
* **STORAGE** — a checkpoint-storage tier loses its data: every
  unfinished job on the tier (``job_id % storage_tiers``) has its
  ``checkpoint_iterations`` invalidated to zero; running gangs
  crash-restart through the ordinary rollback path (to iteration 0),
  queued jobs lose their accrued progress on the spot.

Live reload (:meth:`reload`) splices a new :class:`FaultModel` into the
running timeline at ``now``: the new spec's schedule is drawn fresh,
rebased to non-colliding fault ids, and only its future events enter
the kernel (tagged with a schedule *epoch*).  Old-epoch events still in
the heap resolve deterministically at pop time: window-openers from a
superseded spec are dropped, window-closers apply iff their window is
still open — so a failure that already happened always recovers, and
the splice point fully determines the merged timeline.

The phase also keeps the live ``failed`` mask handed to
:class:`~repro.sim.interface.SchedulerContext` and the counters the
engine publishes as ``repro_faults_total`` / ``repro_rollback_seconds_total``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.allocation import EMPTY_ALLOCATION
from repro.faults.model import (
    DEGRADE,
    DEGRADE_END,
    FAIL,
    PARTITION,
    PARTITION_HEAL,
    RECOVER,
    STORAGE,
    FaultModel,
    FaultSchedule,
)
from repro.sim.progress import JobRuntime, JobState
from repro.sim.stragglers import compose_rate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import InvariantSanitizer
    from repro.cluster.cluster import Cluster
    from repro.cluster.state import ClusterState
    from repro.core.throughput import ThroughputMatrix
    from repro.sim.kernel import EventKernel
    from repro.sim.progress import ProgressLedger

__all__ = ["FaultPhase"]

#: Event kinds that open a fault window (dropped when their schedule
#: epoch has been superseded by a reload).
_OPENERS = (FAIL, PARTITION, DEGRADE, STORAGE)


class FaultPhase:
    """Applies a pre-generated :class:`FaultSchedule` to the running sim."""

    def __init__(
        self,
        model: FaultModel,
        cluster: "Cluster",
        *,
        max_time: Optional[float] = None,
        sanitizer: Optional["InvariantSanitizer"] = None,
        emit: Optional[Callable[[dict], None]] = None,
        matrix: Optional["ThroughputMatrix"] = None,
    ):
        self.model = model
        self.cluster = cluster
        self.matrix = matrix
        """Throughput matrix for recomputing gang rates on degrade /
        partition-heal (the engine always wires it)."""
        self._max_time = max_time
        # Epoch 0 is the construction-time schedule; each live reload
        # appends a rebased schedule and becomes the current epoch.
        # (``schedule`` is a property over epoch 0 so tests that inject a
        # hand-built schedule stay supported.)
        self._schedules: list[FaultSchedule] = [
            model.build_schedule(cluster, max_time)
        ]
        self._fault_id_limit = 1 + max(
            (ev.fault_id for ev in self.schedule.events), default=-1
        )
        self._reloads: list[list] = []
        """``[time, spec]`` per live reload, in order — enough to replay
        the exact schedule stack on restore."""
        self.sanitizer = sanitizer
        self.emit = emit
        """Trace sink (``DecisionTracer.emit`` when tracing is live)."""
        self.failed: dict[tuple[int, str], int] = {}
        """Devices currently lost to faults, per slot — the mask behind
        :attr:`SchedulerContext.failed`."""
        self._taken: dict[int, dict[tuple[int, str], int]] = {}
        """fault_id → devices that failure actually removed per slot."""
        self._partitions: dict[int, tuple[int, ...]] = {}
        """fault_id → isolated node group of each active partition."""
        self._stalled: dict[int, set[int]] = {}
        """job_id → partition fault_ids currently stalling that gang."""
        self._degraded: dict[int, dict[int, float]] = {}
        """node_id → {fault_id: rate_factor} of active degrade windows
        (DEGRADE events and post-recovery healing windows alike)."""
        self.stats: dict[str, int] = {
            "node_faults": 0,
            "gpu_faults": 0,
            "permanent_faults": 0,
            "recoveries": 0,
            "gangs_preempted": 0,
            "rollbacks": 0,
            "partitions": 0,
            "partition_heals": 0,
            "gangs_stalled": 0,
            "degraded_windows": 0,
            "storage_losses": 0,
            "stale_fault_events": 0,
        }
        self.rollback_seconds = 0.0
        self.rollback_iterations = 0.0

    @property
    def schedule(self) -> FaultSchedule:
        """The epoch-0 (construction-time) fault schedule."""
        return self._schedules[0]

    @schedule.setter
    def schedule(self, value: FaultSchedule) -> None:
        self._schedules[0] = value
        self._fault_id_limit = max(
            self._fault_id_limit,
            1 + max((ev.fault_id for ev in value.events), default=-1),
        )

    @property
    def capacity_lost(self) -> int:
        """Devices currently failed across the cluster."""
        return sum(self.failed.values())

    @property
    def epoch(self) -> int:
        """The current schedule epoch (0 until the first live reload)."""
        return len(self._schedules) - 1

    @property
    def unreachable_nodes(self) -> frozenset[int]:
        """Nodes isolated by currently-active partitions — hidden from
        planning via :attr:`SchedulerContext.unreachable`."""
        if not self._partitions:
            return frozenset()
        out: set[int] = set()
        for nodes in self._partitions.values():
            out.update(nodes)
        return frozenset(out)

    @property
    def stalled_jobs(self) -> frozenset[int]:
        """Jobs currently stalled by a partition (rate pinned to 0)."""
        return frozenset(self._stalled)

    # ------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """The live fault position: failed mask, open windows, counters.

        The :class:`FaultSchedule` stack itself is *not* captured — epoch
        0 is a pure function of ``(model, cluster, max_time)`` via
        per-node seeded streams and each reload epoch replays from its
        recorded ``[time, spec]`` pair, so a restored phase regenerates
        the identical schedules at load, and the kernel snapshot already
        holds which fault events are still outstanding.
        ``tests/core/test_chaos_snapshot.py`` checks that a restored run
        reproduces every output of the uninterrupted one.
        """
        return {
            "failed": [
                [node_id, type_name, count]
                for (node_id, type_name), count in self.failed.items()
            ],
            "taken": [
                [
                    fault_id,
                    [[n, t, c] for (n, t), c in slots.items()],
                ]
                for fault_id, slots in self._taken.items()
            ],
            "stats": dict(self.stats),
            "rollback_seconds": self.rollback_seconds,
            "rollback_iterations": self.rollback_iterations,
            "partitions": [
                [fault_id, list(nodes)]
                for fault_id, nodes in self._partitions.items()
            ],
            "stalled": [
                [job_id, sorted(fault_ids)]
                for job_id, fault_ids in self._stalled.items()
            ],
            "degraded": [
                [node_id, [[fid, factor] for fid, factor in entry.items()]]
                for node_id, entry in self._degraded.items()
            ],
            "reloads": [[t, spec] for t, spec in self._reloads],
        }

    def load_state_dict(self, state: dict) -> None:
        self.failed = {
            (int(n), str(t)): int(c) for n, t, c in state["failed"]
        }
        self._taken = {
            int(fault_id): {(int(n), str(t)): int(c) for n, t, c in slots}
            for fault_id, slots in state["taken"]
        }
        stats = {str(k): int(v) for k, v in state["stats"].items()}
        # Additive keys default to zero so pre-domain snapshots load.
        for key in self.stats:
            stats.setdefault(key, 0)
        self.stats = stats
        self.rollback_seconds = float(state["rollback_seconds"])
        self.rollback_iterations = float(state["rollback_iterations"])
        self._partitions = {
            int(fault_id): tuple(int(n) for n in nodes)
            for fault_id, nodes in state.get("partitions", [])
        }
        self._stalled = {
            int(job_id): {int(f) for f in fault_ids}
            for job_id, fault_ids in state.get("stalled", [])
        }
        self._degraded = {
            int(node_id): {int(f): float(x) for f, x in entry}
            for node_id, entry in state.get("degraded", [])
        }
        # Replay the reload stack: rebuild each spliced schedule exactly
        # (the kernel snapshot holds the already-pushed events).
        self._schedules = [self.schedule]
        self._fault_id_limit = 1 + max(
            (ev.fault_id for ev in self.schedule.events), default=-1
        )
        self._reloads = []
        for t, spec in state.get("reloads", []):
            self._splice(str(spec))
            self._reloads.append([float(t), str(spec)])

    # ------------------------------------------------------- live reload --
    def _splice(self, spec: str) -> FaultSchedule:
        """Build, rebase, and stack the schedule for ``spec``; the new
        epoch's fault ids continue past every earlier epoch's."""
        model = FaultModel.from_spec(spec)
        schedule = model.build_schedule(self.cluster, self._max_time)
        base = self._fault_id_limit
        events = tuple(
            replace(ev, fault_id=ev.fault_id + base)
            for ev in schedule.events
        )
        self._schedules.append(FaultSchedule(events=events))
        self._fault_id_limit = base + 1 + max(
            (ev.fault_id for ev in schedule.events), default=-1
        )
        self.model = model
        return self._schedules[-1]

    def reload(self, spec: str, kernel: "EventKernel", now: float) -> dict:
        """Splice fault spec ``spec`` into the running timeline at ``now``.

        Only the new schedule's strictly-future events enter the kernel,
        tagged ``[epoch, index]``; the superseded epochs' future openers
        are dropped at pop time while their still-open windows close
        normally.  The splice is traced as a ``faultspec_reloaded``
        record; returns its summary.
        """
        schedule = self._splice(spec)
        epoch = self.epoch
        pushed = 0
        for index, ev in enumerate(schedule.events):
            if ev.time > now:
                kernel.push_fault(ev.time, [epoch, index])
                pushed += 1
        self._reloads.append([now, spec])
        if self.emit is not None:
            self.emit({
                "kind": "faultspec_reloaded",
                "t": now,
                "spec": spec,
                "epoch": epoch,
                "events": pushed,
            })
        return {"epoch": epoch, "events": pushed, "spec": spec}

    # ------------------------------------------------------------- dispatch --
    def apply(
        self,
        payload,
        ledger: "ProgressLedger",
        state: "ClusterState",
        now: float,
    ) -> bool:
        """Apply the fault event behind ``payload``; True if capacity or
        any gang's allocation changed (a plain ``int`` payload indexes
        epoch 0, ``[epoch, index]`` a reloaded schedule)."""
        if isinstance(payload, int):
            epoch, index = 0, payload
        else:
            epoch, index = int(payload[0]), int(payload[1])
        event = self._schedules[epoch].events[index]
        kind = event.kind
        # Reload splice semantics: openers from a superseded spec are
        # dropped; closers apply only while their window is still open
        # (a closer whose opener was spliced away closes nothing).
        if kind in _OPENERS:
            if epoch != self.epoch:
                self.stats["stale_fault_events"] += 1
                return False
        elif not self._window_open(event):
            self.stats["stale_fault_events"] += 1
            return False
        if kind == FAIL:
            return self._apply_failure(event, ledger, state, now)
        if kind == RECOVER:
            self._apply_recovery(event, ledger, state, now)
            return False
        if kind == PARTITION:
            return self._apply_partition(event, ledger, state, now)
        if kind == PARTITION_HEAL:
            self._apply_partition_heal(event, ledger, now)
            return False
        if kind == DEGRADE:
            self._apply_degrade(event, ledger, now)
            return False
        if kind == DEGRADE_END:
            self._apply_degrade_end(event, ledger, now)
            return False
        if kind == STORAGE:
            return self._apply_storage(event, ledger, state, now)
        raise ValueError(f"unknown fault event kind {kind!r}")

    def _window_open(self, event) -> bool:
        """Whether a window-closing event still has a window to close."""
        if event.kind == RECOVER:
            return event.fault_id in self._taken
        if event.kind == PARTITION_HEAL:
            return event.fault_id in self._partitions
        if event.kind == DEGRADE_END:
            return event.fault_id in self._degraded.get(event.node_id, {})
        return True

    def _apply_failure(self, event, ledger, state, now) -> bool:
        # Surviving devices each slot loses (overlapping faults clamp here).
        want: dict[tuple[int, str], int] = {}
        if event.is_node_level:
            for slot in state.slots:
                if slot[0] == event.node_id:
                    cap = state.capacity(*slot)
                    if cap > 0:
                        want[slot] = cap
        else:
            slot = (event.node_id, event.gpu_type)
            cap = state.capacity(*slot)
            if cap > 0:
                want[slot] = min(event.count, cap)

        victims: list[JobRuntime] = []
        deficits = self._deficits(want, state)
        if deficits:
            for rt in sorted(ledger.live.values(), key=lambda r: r.job_id):
                if rt.state is not JobState.RUNNING or not rt.allocation:
                    continue
                if any(s in deficits for s in rt.allocation.placements):
                    self._rollback(rt, ledger, state, now, event.fault_id)
                    victims.append(rt)
                    deficits = self._deficits(want, state)
                    if not deficits:
                        break
        assert not self._deficits(want, state), "fault left devices busy"

        for slot, count in sorted(want.items()):
            state.fail(slot[0], slot[1], count)
            self.failed[slot] = self.failed.get(slot, 0) + count
        if not event.permanent:
            self._taken[event.fault_id] = want

        scope = "node" if event.is_node_level else "gpu"
        self.stats["node_faults" if event.is_node_level else "gpu_faults"] += 1
        if event.permanent:
            self.stats["permanent_faults"] += 1
        if self.emit is not None:
            self.emit({
                "kind": "gpu_failed",
                "t": now,
                "fault_id": event.fault_id,
                "node": event.node_id,
                "scope": scope,
                "permanent": event.permanent,
                "slots": [
                    [slot[0], slot[1], count]
                    for slot, count in sorted(want.items())
                ],
                "preempted": [rt.job_id for rt in victims],
            })
        return bool(victims)

    def _apply_recovery(self, event, ledger, state, now) -> None:
        taken = self._taken.pop(event.fault_id, {})
        for slot, count in sorted(taken.items()):
            state.restore(slot[0], slot[1], count)
            left = self.failed.get(slot, 0) - count
            if left > 0:
                self.failed[slot] = left
            else:
                self.failed.pop(slot, None)
        self.stats["recoveries"] += 1
        if self.emit is not None:
            self.emit({
                "kind": "gpu_recovered",
                "t": now,
                "fault_id": event.fault_id,
                "node": event.node_id,
                "slots": [
                    [slot[0], slot[1], count]
                    for slot, count in sorted(taken.items())
                ],
            })
        if event.rate_factor < 1.0 and event.heal_s > 0:
            # Healing window: the repaired host is back but throttled —
            # the same degrade machinery, closed by the pre-scheduled
            # DEGRADE_END sharing this fault_id.
            entry = self._degraded.setdefault(event.node_id, {})
            entry[event.fault_id] = event.rate_factor
            self.stats["degraded_windows"] += 1
            jobs = self._retune_node(event.node_id, ledger, now)
            if self.emit is not None:
                self.emit({
                    "kind": "node_degraded",
                    "t": now,
                    "fault_id": event.fault_id,
                    "node": event.node_id,
                    "factor": event.rate_factor,
                    "healing": True,
                    "jobs": jobs,
                })

    # ----------------------------------------------------------- partitions --
    def _apply_partition(self, event, ledger, state, now) -> bool:
        self._partitions[event.fault_id] = event.nodes
        self.stats["partitions"] += 1
        cut = set(event.nodes)
        stalled: list[int] = []
        victims: list[int] = []
        for rt in sorted(ledger.live.values(), key=lambda r: r.job_id):
            if rt.state is not JobState.RUNNING or not rt.allocation:
                continue
            placed = {node_id for node_id, _ in rt.allocation.placements}
            if placed & cut and placed - cut:
                # Only gangs *spanning* the boundary lose their barrier;
                # gangs fully inside the cut keep training locally.
                if self.model.partition_policy == "preempt":
                    self._rollback(rt, ledger, state, now, event.fault_id)
                    victims.append(rt.job_id)
                else:
                    self._stall(rt, event.fault_id, ledger)
                    stalled.append(rt.job_id)
        if self.emit is not None:
            self.emit({
                "kind": "network_partition",
                "t": now,
                "fault_id": event.fault_id,
                "domain": event.domain,
                "nodes": list(event.nodes),
                "policy": self.model.partition_policy,
                "stalled": stalled,
                "preempted": victims,
            })
        return bool(victims)

    def _stall(self, rt: JobRuntime, fault_id: int, ledger) -> None:
        """Pin a spanning gang's rate to zero until the partition heals
        (the allocation is kept — nothing physically failed)."""
        newly = not self._stalled.get(rt.job_id)
        if rt.job_id not in self._stalled:
            self._stalled[rt.job_id] = set()
        self._stalled[rt.job_id].add(fault_id)
        rt.rate = 0.0
        # The outstanding completion prediction assumed the old rate.
        rt.generation += 1
        ledger.mark_dirty(rt)
        if newly:
            self.stats["gangs_stalled"] += 1

    def _apply_partition_heal(self, event, ledger, now) -> None:
        nodes = self._partitions.pop(event.fault_id)
        self.stats["partition_heals"] += 1
        resumed: list[int] = []
        for job_id in sorted(self._stalled):
            if event.fault_id not in self._stalled[job_id]:
                continue
            self._stalled[job_id].discard(event.fault_id)
            if self._stalled[job_id]:
                continue  # still cut by another partition
            del self._stalled[job_id]
            rt = ledger.runtimes.get(job_id)
            if rt is not None:
                self._retune_job(rt, ledger, now)
                resumed.append(job_id)
        if self.emit is not None:
            self.emit({
                "kind": "partition_healed",
                "t": now,
                "fault_id": event.fault_id,
                "domain": event.domain,
                "nodes": list(nodes),
                "resumed": resumed,
            })

    # ----------------------------------------------------------- degrading --
    def _apply_degrade(self, event, ledger, now) -> None:
        entry = self._degraded.setdefault(event.node_id, {})
        entry[event.fault_id] = event.rate_factor
        self.stats["degraded_windows"] += 1
        jobs = self._retune_node(event.node_id, ledger, now)
        if self.emit is not None:
            self.emit({
                "kind": "node_degraded",
                "t": now,
                "fault_id": event.fault_id,
                "node": event.node_id,
                "factor": event.rate_factor,
                "jobs": jobs,
            })

    def _apply_degrade_end(self, event, ledger, now) -> None:
        self._degraded[event.node_id].pop(event.fault_id, None)
        if not self._degraded[event.node_id]:
            del self._degraded[event.node_id]
        jobs = self._retune_node(event.node_id, ledger, now)
        if self.emit is not None:
            self.emit({
                "kind": "node_degraded",
                "t": now,
                "fault_id": event.fault_id,
                "node": event.node_id,
                "factor": 1.0,
                "ended": True,
                "jobs": jobs,
            })

    def node_factor(self, node_id: int) -> float:
        """The effective rate factor of ``node_id`` — the min across its
        active degrade windows (1.0 when healthy)."""
        entry = self._degraded.get(node_id)
        if not entry:
            return 1.0
        return min(entry.values())

    def gang_factor(self, rt: JobRuntime) -> float:
        """A gang runs at its slowest worker: min node factor across its
        placement nodes (the synchronization-barrier physics)."""
        factor = 1.0
        for node_id, _ in rt.allocation.placements:
            entry = self._degraded.get(node_id)
            if entry:
                factor = min(factor, min(entry.values()))
        return factor

    def _retune_job(self, rt: JobRuntime, ledger, now: float) -> None:
        """Recompute a running gang's rate from the current topology:
        realized rate × straggler slowdown × degrade factor, or zero
        while a partition stalls it."""
        if rt.state is not JobState.RUNNING or not rt.allocation:
            return
        from repro.sim.interface import realized_rate

        base = realized_rate(rt.job, rt.allocation, self.matrix, self.cluster)
        if rt.job_id in self._stalled:
            rt.rate = 0.0
        else:
            rt.rate = compose_rate(
                base, rt.slowdown, self.gang_factor(rt)
            )
            if self.sanitizer is not None:
                self.sanitizer.check_degraded_rate(
                    rt, compose_rate(base, rt.slowdown), now=now
                )
        rt.generation += 1
        ledger.mark_dirty(rt)

    def _retune_node(self, node_id: int, ledger, now: float) -> list[int]:
        """Retune every running gang with a worker on ``node_id``."""
        jobs: list[int] = []
        for rt in sorted(ledger.live.values(), key=lambda r: r.job_id):
            if rt.state is not JobState.RUNNING or not rt.allocation:
                continue
            if any(n == node_id for n, _ in rt.allocation.placements):
                self._retune_job(rt, ledger, now)
                jobs.append(rt.job_id)
        return jobs

    def note_placement(self, rt: JobRuntime) -> None:
        """Post-placement hook from ``SchedulerPhase.apply``: fresh
        workers clear any stall (the gang moved), then the new placement
        picks up the live topology — degraded nodes throttle it, and a
        placement spanning an active partition stalls immediately (only
        reachable via the kept-capacity edge case documented on
        ``SchedulerContext.fresh_state``)."""
        self._stalled.pop(rt.job_id, None)
        if not rt.allocation:
            return
        placed = {node_id for node_id, _ in rt.allocation.placements}
        for fault_id, members in sorted(self._partitions.items()):
            cut = set(members)
            if placed & cut and placed - cut:
                self._stalled.setdefault(rt.job_id, set()).add(fault_id)
        if rt.job_id in self._stalled:
            rt.rate = 0.0
            self.stats["gangs_stalled"] += 1
            return
        factor = self.gang_factor(rt)
        if factor < 1.0:
            rt.rate = compose_rate(rt.rate, factor)

    # ------------------------------------------------------------- storage --
    def _apply_storage(self, event, ledger, state, now) -> bool:
        tiers = max(1, self.model.storage_tiers)
        victims: list[int] = []
        queued_hit: list[int] = []
        lost_total = 0.0
        for rt in sorted(ledger.live.values(), key=lambda r: r.job_id):
            if rt.job_id % tiers != event.tier:
                continue
            if rt.iterations_done <= 0 and rt.checkpoint_iterations <= 0:
                continue  # nothing saved, nothing lost
            if rt.state is JobState.RUNNING and rt.allocation:
                lost_total += rt.iterations_done
                rt.checkpoint_iterations = 0.0
                self._rollback(rt, ledger, state, now, event.fault_id)
                victims.append(rt.job_id)
            else:
                # Queued with progress: the checkpoint it would resume
                # from is gone — it restarts from iteration zero.
                remaining_before = rt.remaining_iterations
                lost = rt.iterations_done
                lost_total += lost
                rt.checkpoint_iterations = 0.0
                rt.iterations_done = 0.0
                rt.rollbacks += 1
                rt.rollback_iterations += lost
                self.stats["rollbacks"] += 1
                self.rollback_iterations += lost
                if self.sanitizer is not None:
                    self.sanitizer.check_rollback(
                        rt, remaining_before, now=now,
                        fault_id=event.fault_id,
                    )
                if self.emit is not None:
                    self.emit({
                        "kind": "job_rollback",
                        "t": now,
                        "job_id": rt.job_id,
                        "fault_id": event.fault_id,
                        "lost_iterations": lost,
                        "lost_seconds": 0.0,
                    })
                queued_hit.append(rt.job_id)
        self.stats["storage_losses"] += 1
        if self.emit is not None:
            self.emit({
                "kind": "storage_lost",
                "t": now,
                "fault_id": event.fault_id,
                "tier": event.tier,
                "jobs": victims + queued_hit,
                "lost_iterations": lost_total,
            })
        return bool(victims)

    # ------------------------------------------------------------- rollback --
    def _rollback(
        self,
        rt: JobRuntime,
        ledger: "ProgressLedger",
        state: "ClusterState",
        now: float,
        fault_id: int,
    ) -> None:
        """Crash-restart ``rt``: re-queue (it stays live) and roll back to its checkpoint."""
        remaining_before = rt.remaining_iterations
        lost_iters = max(0.0, rt.iterations_done - rt.checkpoint_iterations)
        lost_seconds = lost_iters / rt.rate if rt.rate > 0 else 0.0
        state.release(rt.allocation)
        rt.allocation = EMPTY_ALLOCATION
        ledger.move(rt, JobState.QUEUED)
        rt.iterations_done = rt.checkpoint_iterations
        rt.rate = 0.0
        rt.slowdown = 1.0  # the degraded workers died with the gang
        rt.preemptions += 1
        rt.failures += 1
        rt.rollbacks += 1
        rt.rollback_seconds += lost_seconds
        rt.rollback_iterations += lost_iters
        # Outstanding completion predictions and straggler events both
        # belong to the dead gang: bump both staleness counters.
        rt.generation += 1
        rt.alloc_epoch += 1
        rt.record_placement(now, EMPTY_ALLOCATION)
        self._stalled.pop(rt.job_id, None)  # the stalled gang is gone
        self.stats["gangs_preempted"] += 1
        self.stats["rollbacks"] += 1
        self.rollback_seconds += lost_seconds
        self.rollback_iterations += lost_iters
        if self.sanitizer is not None:
            self.sanitizer.check_rollback(
                rt, remaining_before, now=now, fault_id=fault_id
            )
        if self.emit is not None:
            self.emit({
                "kind": "job_rollback",
                "t": now,
                "job_id": rt.job_id,
                "fault_id": fault_id,
                "lost_iterations": lost_iters,
                "lost_seconds": lost_seconds,
            })

    @staticmethod
    def _deficits(
        want: dict[tuple[int, str], int], state: "ClusterState"
    ) -> dict[tuple[int, str], int]:
        """Slots where fewer devices are free than the failure must take."""
        out = {}
        for slot, count in want.items():
            short = count - state.free(*slot)
            if short > 0:
                out[slot] = short
        return out
