"""Decision recording and replay.

Debugging and regression tooling: wrap any scheduler in a
:class:`RecordingScheduler` to capture the exact decision sequence of a
run, then re-execute it verbatim with :class:`ReplayScheduler` — e.g. to
re-run a problematic schedule under a different checkpoint model, to
bisect an engine change, or to assert a refactor is decision-identical.

Replay is positional: the n-th invocation replays the n-th recorded
decision.  The engine's event sequence is deterministic for a fixed
(cluster, trace, scheduler contract), so replays line up exactly; a
replay that runs out of recorded decisions keeps everything unchanged
(and reports it via :attr:`ReplayScheduler.exhausted`).

A replay against a *different* world — another trace, another cluster, or
a fault-injected run whose capacity no longer fits the recorded gangs —
is a **divergence**.  By default (``strict=True``) the replay fails
loudly with a typed :class:`ReplayDiverged` carrying the invocation
index, job and reason; under ``strict=False`` the offending entries are
skipped instead and every skip is reported in
:attr:`ReplayScheduler.divergences`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.cluster.allocation import Allocation
from repro.sim.interface import Scheduler, SchedulerContext

__all__ = [
    "RecordingScheduler",
    "ReplayScheduler",
    "ReplayDiverged",
    "save_decisions",
    "load_decisions",
]

Decision = dict[int, Allocation]


class ReplayDiverged(RuntimeError):
    """A recorded decision no longer matches the world it replays into.

    Attributes carry the structured context: ``invocation`` (0-based
    replay index), ``job_id`` (``None`` for stream-level divergences),
    and ``reason`` (``"unknown_job"``, ``"unknown_slot"``, or
    ``"capacity"``).
    """

    def __init__(
        self,
        message: str,
        *,
        invocation: int,
        job_id: Optional[int] = None,
        reason: str = "unknown_job",
    ):
        super().__init__(
            f"replay diverged at invocation {invocation}"
            + (f", job {job_id}" if job_id is not None else "")
            + f": {message}"
        )
        self.invocation = invocation
        self.job_id = job_id
        self.reason = reason


class RecordingScheduler(Scheduler):
    """Record every decision the wrapped scheduler makes."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.decisions: list[Decision] = []

    @property
    def name(self) -> str:
        return f"{self.inner.name}+recording"

    @property
    def round_based(self) -> bool:  # type: ignore[override]
        return self.inner.round_based

    @property
    def reacts_to_events(self) -> bool:  # type: ignore[override]
        return self.inner.reacts_to_events

    def reset(self) -> None:
        self.inner.reset()
        self.decisions.clear()

    def state_dict(self) -> dict:
        """The wrapped scheduler's state and every decision recorded so far."""
        return {
            "inner": self.inner.state_dict(),
            "decisions": [
                [
                    [job_id, [[n, t, c] for (n, t), c in alloc.placements.items()]]
                    for job_id, alloc in decision.items()
                ]
                for decision in self.decisions
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state["inner"])
        self.decisions = [
            {
                int(job_id): Allocation.from_pairs(
                    (int(n), str(t), int(c)) for n, t, c in gang
                )
                for job_id, gang in decision
            }
            for decision in state["decisions"]
        ]

    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        target = dict(self.inner.schedule(ctx))
        self.decisions.append(dict(target))
        return target


class ReplayScheduler(Scheduler):
    """Re-issue a recorded decision sequence verbatim.

    ``round_based`` / ``reacts_to_events`` must match the recording
    scheduler's contract so invocations line up 1:1.
    """

    def __init__(
        self,
        decisions: Sequence[Decision],
        *,
        round_based: bool = True,
        reacts_to_events: bool = False,
        strict: bool = True,
    ):
        self._decisions = [dict(d) for d in decisions]
        self._cursor = 0
        self.exhausted = False
        self.round_based = round_based
        self.reacts_to_events = reacts_to_events
        self.strict = strict
        """Raise :class:`ReplayDiverged` on the first mismatch; with
        ``False``, skip the offending entries and report them in
        :attr:`divergences` instead."""
        self.divergences: list[dict] = []
        """One report per skipped entry (``strict=False``):
        ``{invocation, job_id, reason, detail}``."""

    @property
    def name(self) -> str:
        return "replay"

    def reset(self) -> None:
        self._cursor = 0
        self.exhausted = False
        self.divergences.clear()

    def state_dict(self) -> dict:
        """Where the replay stands: the next decision's index, whether it
        ran out, and the divergences reported so far.  The decisions
        themselves are the replay's input, so a restore needs a replay
        built over the same sequence."""
        return {
            "cursor": self._cursor,
            "exhausted": self.exhausted,
            "divergences": [dict(d) for d in self.divergences],
        }

    def load_state_dict(self, state: dict) -> None:
        self._cursor = int(state["cursor"])
        self.exhausted = bool(state["exhausted"])
        self.divergences = [dict(d) for d in state["divergences"]]

    def _diverge(
        self, invocation: int, job_id: Optional[int], reason: str, detail: str
    ) -> None:
        if self.strict:
            raise ReplayDiverged(
                detail, invocation=invocation, job_id=job_id, reason=reason
            )
        self.divergences.append(
            {
                "invocation": invocation,
                "job_id": job_id,
                "reason": reason,
                "detail": detail,
            }
        )

    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        if self._cursor >= len(self._decisions):
            self.exhausted = True
            # Keep the world as it is: re-assert current placements.
            return {rt.job_id: rt.allocation for rt in ctx.running}
        invocation = self._cursor
        decision = self._decisions[self._cursor]
        self._cursor += 1
        active_ids = {rt.job_id for rt in ctx.active}
        probe = ctx.fresh_state()
        known_slots = set(probe.slots)
        target: Decision = {}
        for job_id, alloc in decision.items():
            if job_id not in active_ids:
                self._diverge(
                    invocation,
                    job_id,
                    "unknown_job",
                    f"recorded decision names job {job_id}, absent from "
                    "this run's context",
                )
                continue
            if alloc and any(s not in known_slots for s in alloc.placements):
                self._diverge(
                    invocation,
                    job_id,
                    "unknown_slot",
                    f"recorded gang {alloc} references a slot this "
                    "cluster does not have",
                )
                continue
            if alloc and not probe.can_fit(alloc):
                self._diverge(
                    invocation,
                    job_id,
                    "capacity",
                    f"recorded gang {alloc} no longer fits the replay "
                    "cluster's free capacity",
                )
                continue
            if alloc:
                probe.allocate(alloc)
            target[job_id] = alloc
        return target


# ------------------------------------------------------------------- disk --
def save_decisions(decisions: Sequence[Decision], path: str | Path) -> None:
    """Persist a decision sequence as JSON-lines."""
    with Path(path).open("w") as fh:
        for decision in decisions:
            payload = {
                str(job_id): [
                    [node_id, type_name, count]
                    for (node_id, type_name), count in alloc.placements.items()
                ]
                for job_id, alloc in decision.items()
            }
            fh.write(json.dumps(payload) + "\n")


def load_decisions(path: str | Path) -> list[Decision]:
    """Inverse of :func:`save_decisions`."""
    out: list[Decision] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            out.append(
                {
                    int(job_id): Allocation.from_pairs(
                        (int(n), str(t), int(c)) for n, t, c in placements
                    )
                    for job_id, placements in payload.items()
                }
            )
    return out
