"""Opt-in runtime invariant checking for simulation runs.

The paper states the invariants in prose; the engine enforces a subset
at decision boundaries.  :class:`InvariantSanitizer` re-derives all of
them independently, every round, from first principles:

* **capacity conservation** — per ``(server, GPU-type)`` slot,
  ``0 ≤ free ≤ capacity`` and the devices claimed by running gangs
  exactly account for ``capacity − free`` (constraint 1d);
* **gang completeness** — every running job holds exactly ``W_j``
  workers and every non-running job holds none (constraint 1e);
* **price bounds** — every slot's dual price satisfies
  ``U_min^r ≤ k_h^r(γ) ≤ U_max^r`` (Eqs. 5-8);
* **positive payoff** — every job admitted this round earned
  ``μ_j > 0`` (Algorithm 2, line 33);
* **primal/dual increments** — each audited round satisfies
  ``P_j − P_{j−1} ≥ (D_j − D_{j−1}) / α`` (Lemma 2).

The baselines get their own invariants, dispatched off each scheduler's
public introspection surface:

* **Gavel LP feasibility** — the time-fraction matrix ``Y`` behind every
  decision satisfies ``0 ≤ Y ≤ 1``, per-job row sums ``Σ_r Y[j,r] ≤ 1``,
  and per-type weighted column sums ``Σ_j W_j·Y[j,r] ≤ C_r`` (the LP's
  own constraints, re-checked as residuals on the solver output);
* **Tiresias queue monotonicity** — demotion to the low-priority queue
  is one-way (PromoteKnob disabled), and the demoted set is exactly the
  active jobs whose attained service crossed the queue threshold.

Attach one to an engine (``SimulationEngine(..., sanitizer=...)`` or
``simulate(..., sanitizer=...)``); it is called after every scheduler
decision is applied.  A violation raises a structured
:class:`InvariantViolation` carrying the round index, simulated time,
offending job, and the observed values — or, in ``collect`` mode,
accumulates them for post-mortem inspection.

The per-invariant ``check_*`` methods are public so tests (and
downstream users with custom schedulers) can aim them at hand-crafted
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.cluster.state import ClusterState
from repro.sim.interface import unwrap
from repro.sim.progress import JobRuntime, JobState

__all__ = ["InvariantViolation", "InvariantSanitizer"]


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; carries structured context.

    Attributes
    ----------
    rule:
        Which invariant failed: ``"capacity"``, ``"gang"``,
        ``"price-bounds"``, ``"payoff"``, ``"primal-dual"``,
        ``"gavel-feasibility"``, ``"queue-monotonicity"``,
        ``"availability"``, ``"rollback"``, ``"degraded-rate"``, or
        ``"partition-stall"``.
    round_index / now / job_id:
        Where in the run it happened (``None`` when not applicable).
    details:
        The offending values (slot, counts, bounds, ...).
    """

    def __init__(
        self,
        rule: str,
        message: str,
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
        job_id: Optional[int] = None,
        details: Optional[Mapping[str, Any]] = None,
    ):
        self.rule = rule
        self.round_index = round_index
        self.now = now
        self.job_id = job_id
        self.details = dict(details or {})
        where = []
        if round_index is not None:
            where.append(f"round {round_index}")
        if now is not None:
            where.append(f"t={now:g}s")
        if job_id is not None:
            where.append(f"job {job_id}")
        prefix = f"[{rule}" + (f" @ {', '.join(where)}" if where else "") + "] "
        extras = "; ".join(f"{k}={v}" for k, v in self.details.items())
        super().__init__(prefix + message + (f" ({extras})" if extras else ""))


@dataclass
class InvariantSanitizer:
    """Per-round invariant checker (see module docstring).

    Parameters
    ----------
    rel_tol / abs_tol:
        Tolerances for the float-valued checks (price bounds, Lemma 2).
        Counts (capacity, gangs) are checked exactly.
    mode:
        ``"raise"`` (default) raises on the first violation;
        ``"collect"`` records every violation in :attr:`violations` and
        keeps going — useful for surveying a broken run.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    mode: str = "raise"
    violations: list[InvariantViolation] = field(default_factory=list)
    rounds_checked: int = 0
    # Jobs ever seen demoted — the reference set for one-way demotion.
    _tiresias_seen: set[int] = field(default_factory=set, init=False, repr=False)
    # The table the gang check last walked in full, and the ids live at the
    # last round (see ``_gang_jobs``); transient, never snapshotted.
    _table: Optional[Mapping[int, JobRuntime]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _live_ids: frozenset = field(
        default=frozenset(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in {"raise", "collect"}:
            raise ValueError(f"mode must be 'raise' or 'collect', got {self.mode!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")

    # ------------------------------------------------------------- emission --
    def _emit(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        if self.mode == "raise":
            raise violation

    @property
    def ok(self) -> bool:
        """No violation observed so far (the useful assert in collect mode)."""
        return not self.violations

    # ---------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """Cross-round sanitizer state for engine snapshots.

        Violation ``details`` values may be arbitrary Python objects
        (slots, tuples); non-JSON-able values are stringified on capture —
        the structured fields and the formatted message round-trip
        exactly.
        """
        def _jsonable(value):
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return str(value)

        return {
            "rounds_checked": self.rounds_checked,
            "tiresias_seen": sorted(self._tiresias_seen),
            "violations": [
                {
                    "rule": v.rule,
                    "message": str(v),
                    "round_index": v.round_index,
                    "now": v.now,
                    "job_id": v.job_id,
                    "details": {k: _jsonable(val) for k, val in v.details.items()},
                }
                for v in self.violations
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self._table = None
        self.rounds_checked = int(state["rounds_checked"])
        self._tiresias_seen = {int(j) for j in state["tiresias_seen"]}
        violations = []
        for rec in state["violations"]:
            v = InvariantViolation.__new__(InvariantViolation)
            Exception.__init__(v, rec["message"])
            v.rule = rec["rule"]
            v.round_index = rec["round_index"]
            v.now = rec["now"]
            v.job_id = rec["job_id"]
            v.details = dict(rec["details"])
            violations.append(v)
        self.violations = violations

    # ------------------------------------------------------ invariant checks --
    def check_capacity(
        self,
        state: ClusterState,
        runtimes: Iterable[JobRuntime] = (),
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Conservation per slot: ``0 ≤ free ≤ cap`` and gangs account for use."""
        claimed: dict[tuple[int, str], int] = {}
        claimants: dict[tuple[int, str], list[int]] = {}
        for rt in runtimes:
            if rt.state is not JobState.RUNNING:
                continue
            for slot, count in rt.allocation.placements.items():
                claimed[slot] = claimed.get(slot, 0) + count
                claimants.setdefault(slot, []).append(rt.job_id)
        for slot in state.slots:
            node_id, type_name = slot
            cap = state.capacity(node_id, type_name)
            free = state.free(node_id, type_name)
            if free < 0 or free > cap:
                self._emit(
                    InvariantViolation(
                        "capacity",
                        f"free count outside [0, capacity] at slot {slot}",
                        round_index=round_index,
                        now=now,
                        details={"slot": slot, "free": free, "capacity": cap},
                    )
                )
                continue
            used = cap - free
            held = claimed.pop(slot, 0)
            if held != used:
                self._emit(
                    InvariantViolation(
                        "capacity",
                        f"running gangs hold {held} device(s) at slot {slot} "
                        f"but the state records {used} in use",
                        round_index=round_index,
                        now=now,
                        details={
                            "slot": slot,
                            "held_by_gangs": held,
                            "state_used": used,
                            "jobs": sorted(claimants.get(slot, [])),
                        },
                    )
                )
        for slot, held in sorted(claimed.items()):
            self._emit(
                InvariantViolation(
                    "capacity",
                    f"running gangs hold {held} device(s) at unknown slot {slot}",
                    round_index=round_index,
                    now=now,
                    details={"slot": slot, "held_by_gangs": held,
                             "jobs": sorted(claimants.get(slot, []))},
                )
            )

    def check_gangs(
        self,
        runtimes: Iterable[JobRuntime],
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """All-or-nothing gangs: RUNNING ⇒ exactly ``W_j``; else zero."""
        for rt in runtimes:
            held = rt.allocation.total_workers
            if rt.state is JobState.RUNNING:
                if held != rt.job.num_workers:
                    self._emit(
                        InvariantViolation(
                            "gang",
                            f"running job holds {held} worker(s), gang size is "
                            f"{rt.job.num_workers}",
                            round_index=round_index,
                            now=now,
                            job_id=rt.job_id,
                            details={
                                "held": held,
                                "num_workers": rt.job.num_workers,
                            },
                        )
                    )
            elif held != 0:
                self._emit(
                    InvariantViolation(
                        "gang",
                        f"{rt.state.value} job holds {held} worker(s); only "
                        "running jobs may hold devices",
                        round_index=round_index,
                        now=now,
                        job_id=rt.job_id,
                        details={"held": held, "state": rt.state.value},
                    )
                )

    def check_price_bounds(
        self,
        prices: Any,
        state: ClusterState,
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """``U_min^r ≤ k_h^r(γ) ≤ U_max^r`` at the current occupancy (Eq. 5).

        ``prices`` is any object with the :class:`~repro.core.pricing.PriceBook`
        surface (``u_min`` / ``u_max`` mappings and ``price(node, type,
        state)``), so custom price functions are checkable too.
        """
        for node_id, type_name in state.slots:
            lo = prices.u_min.get(type_name, 0.0)
            hi = prices.u_max.get(type_name, 0.0)
            k = prices.price(node_id, type_name, state)
            slack = self.rel_tol * max(abs(lo), abs(hi)) + self.abs_tol
            if k < lo - slack or k > hi + slack:
                self._emit(
                    InvariantViolation(
                        "price-bounds",
                        f"price of slot ({node_id}, {type_name!r}) escaped "
                        "its calibrated bounds",
                        round_index=round_index,
                        now=now,
                        details={
                            "slot": (node_id, type_name),
                            "price": k,
                            "u_min": lo,
                            "u_max": hi,
                            "occupancy": state.used(node_id, type_name),
                        },
                    )
                )

    def check_payoffs(
        self,
        chosen: Mapping[int, Any],
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Every admitted job earned a strictly positive payoff ``μ_j``."""
        for job_id in sorted(chosen):
            candidate = chosen[job_id]
            payoff = candidate.payoff
            if not payoff > 0.0 or not math.isfinite(payoff):
                self._emit(
                    InvariantViolation(
                        "payoff",
                        "admitted job has non-positive payoff; admission "
                        "requires μ_j > 0 (Algorithm 2, line 33)",
                        round_index=round_index,
                        now=now,
                        job_id=job_id,
                        details={
                            "payoff": payoff,
                            "utility": getattr(candidate, "utility", None),
                            "cost": getattr(candidate, "cost", None),
                        },
                    )
                )

    def check_round_audit(
        self,
        record: Any,
        *,
        round_index: Optional[int] = None,
    ) -> None:
        """Lemma 2 on one :class:`~repro.core.scheduler.RoundAudit` record:
        ``primal_increment ≥ dual_increment / α`` (within tolerance)."""
        alpha = max(record.alpha, 1.0)
        bound = record.dual_increment / alpha
        slack = self.rel_tol * max(abs(bound), abs(record.primal_increment))
        if record.primal_increment < bound - slack - self.abs_tol:
            self._emit(
                InvariantViolation(
                    "primal-dual",
                    "round violates Lemma 2: primal increment below "
                    "dual increment / α",
                    round_index=round_index,
                    now=getattr(record, "now", None),
                    details={
                        "primal_increment": record.primal_increment,
                        "dual_increment": record.dual_increment,
                        "alpha": record.alpha,
                        "bound": bound,
                    },
                )
            )

    def check_gavel_feasibility(
        self,
        allocation_matrix: Any,
        workers: Mapping[int, int],
        capacity: Mapping[str, int],
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Residual check of Gavel's LP constraints on a solved ``Y``.

        ``allocation_matrix`` is anything with the
        :class:`~repro.baselines.gavel.policy.AllocationMatrix` surface
        (``job_ids``, ``types``, ``fraction``); ``workers`` maps job id to
        gang size ``W_j`` and ``capacity`` maps GPU type to device count
        ``C_r``.  Verifies ``0 ≤ Y[j,r] ≤ 1``, ``Σ_r Y[j,r] ≤ 1`` per job,
        and ``Σ_j W_j·Y[j,r] ≤ C_r`` per type, all within tolerance.
        """
        entry_slack = self.rel_tol + self.abs_tol
        col_used: dict[str, float] = {t: 0.0 for t in allocation_matrix.types}
        for job_id in allocation_matrix.job_ids:
            row_sum = 0.0
            for type_name in allocation_matrix.types:
                y = allocation_matrix.fraction(job_id, type_name)
                if y < -entry_slack or y > 1.0 + entry_slack:
                    self._emit(
                        InvariantViolation(
                            "gavel-feasibility",
                            f"Y entry for type {type_name!r} escaped [0, 1]",
                            round_index=round_index,
                            now=now,
                            job_id=job_id,
                            details={"type": type_name, "fraction": y},
                        )
                    )
                row_sum += y
                col_used[type_name] += workers.get(job_id, 0) * y
            if row_sum > 1.0 + self.rel_tol + self.abs_tol:
                self._emit(
                    InvariantViolation(
                        "gavel-feasibility",
                        "job's time fractions sum past 1 "
                        "(it would run on >1 type at once)",
                        round_index=round_index,
                        now=now,
                        job_id=job_id,
                        details={"row_sum": row_sum},
                    )
                )
        for type_name in allocation_matrix.types:
            cap = float(capacity.get(type_name, 0))
            used = col_used[type_name]
            if used > cap + self.rel_tol * max(cap, 1.0) + self.abs_tol:
                self._emit(
                    InvariantViolation(
                        "gavel-feasibility",
                        f"expected demand on type {type_name!r} exceeds "
                        "its device capacity",
                        round_index=round_index,
                        now=now,
                        details={
                            "type": type_name,
                            "weighted_demand": used,
                            "capacity": cap,
                        },
                    )
                )

    def check_availability(
        self,
        state: ClusterState,
        runtimes: Iterable[JobRuntime],
        failed: Mapping[tuple[int, str], int],
        *,
        nominal: Optional[Mapping[tuple[int, str], int]] = None,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Fault-availability invariants on the surviving cluster.

        Under fault injection, the live :class:`ClusterState` carries the
        *surviving* capacity — failed devices are subtracted out.  Checks
        that no running gang holds devices a failure removed (per slot,
        the gangs' claims fit within surviving capacity) and, when the
        ``nominal`` per-slot capacities are supplied, that the fault
        bookkeeping is consistent: ``surviving + failed == nominal``.
        """
        claimed: dict[tuple[int, str], int] = {}
        claimants: dict[tuple[int, str], list[int]] = {}
        for rt in runtimes:
            if rt.state is not JobState.RUNNING:
                continue
            for slot, count in rt.allocation.placements.items():
                claimed[slot] = claimed.get(slot, 0) + count
                claimants.setdefault(slot, []).append(rt.job_id)
        for slot, held in sorted(claimed.items()):
            surviving = (
                state.capacity(*slot) if slot in set(state.slots) else 0
            )
            if held > surviving:
                self._emit(
                    InvariantViolation(
                        "availability",
                        f"running gangs hold {held} device(s) at slot {slot} "
                        f"but only {surviving} survive the injected faults",
                        round_index=round_index,
                        now=now,
                        details={
                            "slot": slot,
                            "held_by_gangs": held,
                            "surviving": surviving,
                            "failed": failed.get(slot, 0),
                            "jobs": sorted(claimants.get(slot, [])),
                        },
                    )
                )
        if nominal is not None:
            for slot in sorted(set(nominal) | set(failed)):
                surviving = (
                    state.capacity(*slot) if slot in set(state.slots) else 0
                )
                down = failed.get(slot, 0)
                expected = nominal.get(slot, 0)
                if surviving + down != expected or down < 0:
                    self._emit(
                        InvariantViolation(
                            "availability",
                            f"fault bookkeeping inconsistent at slot {slot}: "
                            "surviving + failed != nominal capacity",
                            round_index=round_index,
                            now=now,
                            details={
                                "slot": slot,
                                "surviving": surviving,
                                "failed": down,
                                "nominal": expected,
                            },
                        )
                    )

    def check_rollback(
        self,
        rt: JobRuntime,
        remaining_before: float,
        *,
        now: Optional[float] = None,
        fault_id: Optional[int] = None,
    ) -> None:
        """Crash-restart accounting on one rolled-back job.

        Called by :class:`~repro.faults.FaultPhase` right after it resets
        ``rt`` to its checkpoint.  A rollback can only *lose* progress:
        the job's remaining work must not have decreased, its progress
        counter must not sit behind the checkpoint it was reset to, and
        neither may go negative.
        """
        slack = self.rel_tol * max(abs(remaining_before), 1.0) + self.abs_tol
        details = {
            "fault_id": fault_id,
            "remaining_before": remaining_before,
            "remaining_after": rt.remaining_iterations,
            "checkpoint_iterations": rt.checkpoint_iterations,
            "iterations_done": rt.iterations_done,
        }
        if rt.remaining_iterations < remaining_before - slack:
            self._emit(
                InvariantViolation(
                    "rollback",
                    "rollback decreased a job's remaining work; a crash "
                    "restart may only lose progress, never create it",
                    now=now,
                    job_id=rt.job_id,
                    details=details,
                )
            )
        if rt.iterations_done < rt.checkpoint_iterations - self.abs_tol:
            self._emit(
                InvariantViolation(
                    "rollback",
                    "job progress sits behind the checkpoint it was "
                    "restored to",
                    now=now,
                    job_id=rt.job_id,
                    details=details,
                )
            )
        if rt.iterations_done < -self.abs_tol or rt.checkpoint_iterations < -self.abs_tol:
            self._emit(
                InvariantViolation(
                    "rollback",
                    "negative iteration counter after rollback",
                    now=now,
                    job_id=rt.job_id,
                    details=details,
                )
            )

    def check_degraded_rate(
        self,
        rt: JobRuntime,
        cap_rate: float,
        *,
        now: Optional[float] = None,
    ) -> None:
        """A degraded (but not stalled) gang runs in ``(0, nominal]``.

        ``cap_rate`` is the gang's nominal composed rate *without* the
        degrade factor (realized rate × straggler slowdown).  Degrade
        windows may only throttle: the retuned rate must stay strictly
        positive (a throttled gang is never evicted or frozen) and must
        not exceed the nominal cap (degradation never speeds a gang up).
        """
        slack = self.rel_tol * max(abs(cap_rate), 1.0) + self.abs_tol
        details = {"rate": rt.rate, "nominal_rate": cap_rate}
        if not rt.rate > 0.0:
            self._emit(
                InvariantViolation(
                    "degraded-rate",
                    "degraded gang's rate is not strictly positive; only "
                    "partitions may stall a gang to zero",
                    now=now,
                    job_id=rt.job_id,
                    details=details,
                )
            )
        elif rt.rate > cap_rate + slack:
            self._emit(
                InvariantViolation(
                    "degraded-rate",
                    "degraded gang runs faster than its nominal rate; a "
                    "degrade window may only throttle",
                    now=now,
                    job_id=rt.job_id,
                    details=details,
                )
            )

    def check_partition_stall(
        self,
        stalled: Iterable[int],
        runtimes: Mapping[int, JobRuntime],
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Partitioned gangs never accrue progress while stalled.

        Every job the fault layer reports as stalled must be observed
        with a rate of exactly zero — the parameter-sync barrier cannot
        make progress across a network cut, so any positive rate on a
        stalled gang is progress accrual the partition forbids.
        """
        for job_id in sorted(stalled):
            rt = runtimes.get(job_id)
            if rt is None:
                continue
            # Exact zero on purpose: the stall path assigns 0.0, so any
            # other bit pattern is leaked progress, however small.
            if rt.state is JobState.RUNNING and rt.rate != 0.0:  # repro-lint: disable=REP001
                self._emit(
                    InvariantViolation(
                        "partition-stall",
                        "gang stalled by a network partition has a "
                        "non-zero rate (it would accrue progress across "
                        "the cut)",
                        round_index=round_index,
                        now=now,
                        job_id=job_id,
                        details={"rate": rt.rate},
                    )
                )

    def check_tiresias_monotonicity(
        self,
        demoted: Iterable[int],
        runtimes: Mapping[int, JobRuntime],
        threshold: float,
        *,
        round_index: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """Two-queue LAS with PromoteKnob disabled (one-way demotion).

        A job seen in the low-priority queue once must stay there for the
        rest of the run; every demoted job must have actually crossed the
        attained-service ``threshold`` (service never shrinks, so this
        holds at any later observation too); and every still-active job
        past the threshold must have been demoted.  The sanitizer keeps
        the union of all demoted sets it has observed as the reference.
        """
        demoted = set(demoted)
        slack = self.rel_tol * threshold + self.abs_tol
        promoted = self._tiresias_seen - demoted
        for job_id in sorted(promoted):
            self._emit(
                InvariantViolation(
                    "queue-monotonicity",
                    "job returned to the high-priority queue; demotion "
                    "is one-way (PromoteKnob disabled)",
                    round_index=round_index,
                    now=now,
                    job_id=job_id,
                )
            )
        self._tiresias_seen |= demoted
        for job_id in sorted(demoted):
            rt = runtimes.get(job_id)
            if rt is None:
                continue
            if rt.attained_service < threshold - slack:
                self._emit(
                    InvariantViolation(
                        "queue-monotonicity",
                        "demoted job never reached the queue threshold",
                        round_index=round_index,
                        now=now,
                        job_id=job_id,
                        details={
                            "attained_service": rt.attained_service,
                            "threshold": threshold,
                        },
                    )
                )
        for job_id in sorted(runtimes):
            rt = runtimes[job_id]
            if rt.state is JobState.COMPLETE or job_id in demoted:
                continue
            if rt.attained_service >= threshold + slack:
                self._emit(
                    InvariantViolation(
                        "queue-monotonicity",
                        "active job crossed the queue threshold but was "
                        "not demoted",
                        round_index=round_index,
                        now=now,
                        job_id=job_id,
                        details={
                            "attained_service": rt.attained_service,
                            "threshold": threshold,
                        },
                    )
                )

    # ------------------------------------------------------------ engine hook --
    def on_round(
        self,
        *,
        round_index: int,
        now: float,
        runtimes: Mapping[int, JobRuntime],
        state: ClusterState,
        scheduler: Any,
        live: Mapping[int, JobRuntime],
        failed: Optional[Mapping[tuple[int, str], int]] = None,
        stalled: Optional[Iterable[int]] = None,
    ) -> None:
        """Full sweep after one applied scheduling decision.

        ``live`` is the engine's set of QUEUED and RUNNING jobs.  The
        per-job walks cover it alone: only RUNNING jobs hold devices, and
        only arrived jobs accrue service (a demoted job was checked on
        each round it was live, and a finished job's service no longer
        changes).  The gang check's "nothing else holds
        devices" half also sees each job once it leaves the set (see
        :meth:`_gang_jobs`).

        The structural invariants (capacity, gangs) are always checked;
        under fault injection the engine also passes the live ``failed``
        mask and the availability invariants run too, plus the set of
        partition-``stalled`` jobs (whose rates must be exactly zero).
        Scheduler-specific invariants dispatch off each scheduler's
        introspection surface, found by walking the ``inner`` chain of
        wrappers (e.g. under profiling): Hadar exposes ``last_prices`` /
        ``last_chosen`` / ``audit``, Gavel ``last_allocation_matrix``,
        and Tiresias ``demoted_jobs`` / ``queue_threshold``.
        """
        self.rounds_checked += 1
        jobs = live.values()
        self.check_capacity(state, jobs, round_index=round_index, now=now)
        self.check_gangs(
            self._gang_jobs(runtimes, live), round_index=round_index, now=now
        )
        if failed is not None:
            self.check_availability(
                state, jobs, failed, round_index=round_index, now=now
            )
        if stalled:
            self.check_partition_stall(
                stalled, runtimes, round_index=round_index, now=now
            )

        hadar = unwrap(scheduler, "last_prices")
        if hadar is not None:
            prices = hadar.last_prices
            if prices is not None:
                # Bounds are evaluated on a synthetic sweep of the *current*
                # occupancy; Eq. 5 must hold at whatever γ the round ended on.
                self.check_price_bounds(
                    prices, state, round_index=round_index, now=now
                )
            chosen = getattr(hadar, "last_chosen", None)
            if chosen:
                self.check_payoffs(chosen, round_index=round_index, now=now)
            audit = getattr(hadar, "audit", None)
            if audit:
                self.check_round_audit(audit[-1], round_index=round_index)

        gavel = unwrap(scheduler, "last_allocation_matrix")
        if gavel is not None and gavel.last_allocation_matrix is not None:
            matrix = gavel.last_allocation_matrix
            workers = {
                job_id: runtimes[job_id].job.num_workers
                for job_id in matrix.job_ids
                if job_id in runtimes
            }
            self.check_gavel_feasibility(
                matrix,
                workers,
                state.capacity_by_type(),
                round_index=round_index,
                now=now,
            )

        tiresias = unwrap(scheduler, "demoted_jobs")
        if tiresias is not None:
            self.check_tiresias_monotonicity(
                tiresias.demoted_jobs,
                live,
                tiresias.queue_threshold,
                round_index=round_index,
                now=now,
            )

    def _gang_jobs(
        self, runtimes: Mapping[int, JobRuntime], live: Mapping[int, JobRuntime]
    ) -> list[JobRuntime]:
        """The jobs the gang check sees this round.

        The first round over a table (a new run, or a restore) sees every
        job.  Later rounds see the live set plus the jobs that left it
        since the last round: a job leaves only by completing, and nothing
        touches a job outside the set, so a PENDING or COMPLETE job that
        held nothing when last seen still holds nothing.
        """
        if runtimes is not self._table:
            self._table = runtimes
            jobs = list(runtimes.values())
        else:
            jobs = list(live.values())
            jobs.extend(
                runtimes[job_id] for job_id in self._live_ids if job_id not in live
            )
        self._live_ids = frozenset(live)
        return jobs
