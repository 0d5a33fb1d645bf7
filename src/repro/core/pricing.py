"""Dual resource prices — Eq. (5) with the calibration of Eqs. (6)-(8).

The price of a type-``r`` device on server ``h`` rises exponentially with
the fraction of that server's type-``r`` devices already committed in the
round:

    k_h^r(γ) = U_min^r · (U_max^r / U_min^r)^(γ / c_h^r)

starting at ``U_min^r`` (low enough to admit any job onto an idle server)
and reaching ``U_max^r`` at saturation (high enough that no job's payoff
stays positive).  ``U_max^r`` / ``U_min^r`` are the extreme per-worker
utilities achievable on type ``r`` across the queued workload (Eqs. 6-7),
with ``t_j^min`` / ``t_j^max`` the fastest/slowest gang completion times
(Eq. 8) and ``η`` the scaling factor that bounds the initial dual
objective (the competitive-ratio proof needs ``Σ_h Σ_r c_h^r / η ≤
t_j^max · W_j`` for all jobs).

A :class:`PriceBook` is immutable; the occupancy ``γ`` is read from the
:class:`~repro.cluster.state.ClusterState` the caller passes in, so the
DP's branch exploration needs no price mutation or rollback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState
from repro.core.utility import Utility
from repro.sim.progress import JobRuntime
from repro.workload.throughput import ThroughputMatrix

__all__ = ["PricingConfig", "PriceBook", "PriceCalibrator"]


@dataclass(frozen=True, slots=True)
class PricingConfig:
    """Calibration knobs (defaults follow the paper's analysis).

    Attributes
    ----------
    eta:
        The η of Eq. (7).  ``None`` auto-calibrates the smallest η
        satisfying the proof's premise (and at least 1).
    min_ratio:
        Lower clamp on ``U_max^r / U_min^r``; keeps the price curve
        strictly increasing even for degenerate single-job workloads.
    horizon_slack:
        Multiplier on the online horizon estimate ``T`` (the serial
        worst-case drain time of the current queue).
    """

    eta: float | None = None
    min_ratio: float = math.e
    horizon_slack: float = 1.0

    def __post_init__(self) -> None:
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.min_ratio <= 1.0:
            raise ValueError("min_ratio must exceed 1")
        if self.horizon_slack <= 0:
            raise ValueError("horizon_slack must be positive")


@dataclass(frozen=True)
class PriceBook:
    """Per-GPU-type price bounds; prices are evaluated against a state."""

    u_min: Mapping[str, float]
    u_max: Mapping[str, float]
    eta: float

    def __post_init__(self) -> None:
        for r, lo in self.u_min.items():
            hi = self.u_max.get(r, 0.0)
            if lo < 0 or hi < 0:
                raise ValueError(f"negative utility bound for type {r!r}")
            if lo > hi:
                raise ValueError(
                    f"U_min ({lo}) exceeds U_max ({hi}) for type {r!r}"
                )

    # -- Eq. (5) -----------------------------------------------------------
    def price_given(self, type_name: str, cap: int, free: int) -> float:
        """Unit price at an explicit occupancy ``γ = cap − free``.

        The price is a pure function of the committed fraction per slot,
        which is what lets :class:`~repro.core.round_context.RoundContext`
        memoize it per ``(slot, free count)`` across the DP recursion.
        """
        lo = self.u_min.get(type_name, 0.0)
        hi = self.u_max.get(type_name, 0.0)
        if hi <= 0.0:
            return 0.0  # no queued job can use this type; it is free
        if cap <= 0:
            return hi  # slot does not exist: prohibitively priced
        gamma = cap - free
        return lo * (hi / lo) ** (gamma / cap)

    def price(self, node_id: int, type_name: str, state: ClusterState) -> float:
        """Current unit price of a type-``type_name`` device on ``node_id``.

        ``γ`` is read off ``state`` as ``capacity − free``.
        """
        return self.price_given(
            type_name,
            state.capacity(node_id, type_name),
            state.free(node_id, type_name),
        )

    def cost_of(self, allocation: Allocation, state: ClusterState) -> float:
        """Σ price × count at the *pre-allocation* prices (Definition 1)."""
        return sum(
            self.price(node_id, type_name, state) * count
            for (node_id, type_name), count in allocation.placements.items()
        )

    def slot_prices(self, state: ClusterState) -> list[dict]:
        """Every (server, GPU-type) slot's current Eq. (5) price, sorted.

        The decision tracer's per-round price table: one entry per slot
        with its occupancy (``capacity``/``free``) and the resulting unit
        price.  Pure reads — safe to call at any point in a round.
        """
        out = []
        for node_id, type_name in sorted(state.slots):
            cap = state.capacity(node_id, type_name)
            free = state.free(node_id, type_name)
            out.append(
                {
                    "node": node_id,
                    "gpu_type": type_name,
                    "price": self.price_given(type_name, cap, free),
                    "free": free,
                    "capacity": cap,
                }
            )
        return out

    def alpha(self) -> float:
        """The competitive-ratio factor ``α = max_r(1, ln(U_max^r/U_min^r))``."""
        best = 1.0
        for r, hi in self.u_max.items():
            lo = self.u_min.get(r, 0.0)
            if lo > 0 and hi > lo:
                best = max(best, math.log(hi / lo))
        return best

    # -- Eqs. (6)-(8) -----------------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        jobs: Sequence[JobRuntime],
        matrix: ThroughputMatrix,
        utility: Utility,
        state: ClusterState,
        now: float,
        config: PricingConfig = PricingConfig(),
    ) -> "PriceBook":
        """Build price bounds from the current workload (online Algorithm 1).

        Uses each job's *remaining* iterations so partially-trained jobs
        are priced by the work they still need.  ``T`` (the horizon at
        which a job earns its smallest utility) is estimated online as
        ``now + horizon_slack × Σ_j t_j^max`` — the serial worst-case
        drain time of the current queue on the slowest devices.

        This is the full-rescan entry point: a throwaway
        :class:`PriceCalibrator` with every job dirty.  Round-based
        callers that want the Eq. (8) records reused across rounds keep a
        calibrator of their own (see :class:`PriceCalibrator`); both
        routes run the same code and produce byte-identical books.
        """
        return PriceCalibrator(config).calibrate(jobs, matrix, utility, state, now)


class PriceCalibrator:
    """Round-over-round Eqs. (6)-(8) calibration with dirty-job reuse.

    A job's Eq. (8) record — ``t_j^max`` and the per-type ``t_j^min`` —
    is a pure function of its remaining iterations and gang size, so
    across rounds only the jobs whose remaining work actually moved (the
    ones that ran since the last call, plus fresh arrivals) are
    re-derived; everything queued reuses its record, making the per-round
    record upkeep O(changed jobs).  The *aggregation* over the records
    (the horizon ``T``, the η premise, and the ``U_min^r``/``U_max^r``
    folds) shifts every round as ``now`` advances, so it re-runs in the
    reference job order with the reference operations — which is what
    keeps the resulting book byte-identical to a from-scratch
    :meth:`PriceBook.calibrate` of the same queue.

    A record is also a function of the model's rates, so the records
    and the per-model rate cache hold for one throughput matrix.  Handed
    another matrix object — on the first call after a restore, or every
    round under a wrapper that re-estimates rates
    (:class:`~repro.core.estimator.ProfilingScheduler`) — the calibrator
    re-derives every record and keeps those whose values did not move;
    only the moved ones count as dirty, so a restored run counts what
    the uninterrupted one does.  The slot universe is assumed fixed for
    the calibrator's lifetime; :meth:`reset` clears everything for a new
    run.
    """

    __slots__ = (
        "config", "_types", "_matrix", "_model_rates", "_records", "last_jobs", "last_dirty",
    )

    def __init__(self, config: PricingConfig = PricingConfig()):
        self.config = config
        self._types: list[str] | None = None
        self._matrix: ThroughputMatrix | None = None
        """The matrix ``_model_rates`` and ``_records`` were derived from."""
        # model -> (rate-by-type, min supported rate or None)
        self._model_rates: dict[str, tuple[dict[str, float], float | None]] = {}
        # job_id -> (remaining, W, t_max, {type: t_min_r})
        self._records: dict[int, tuple[float, int, float, dict[str, float]]] = {}
        self.last_jobs = 0
        """Usable jobs seen by the most recent :meth:`calibrate` call."""
        self.last_dirty = 0
        """How many of them needed their Eq. (8) record re-derived."""

    def reset(self) -> None:
        self._types = None
        self._matrix = None
        self._model_rates.clear()
        self._records.clear()
        self.last_jobs = 0
        self.last_dirty = 0

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """The cross-round Eq. (8) record cache, insertion-ordered.

        ``_model_rates`` is deliberately *not* captured: it is a pure
        deterministic cache over the throughput matrix, and a restored
        calibrator re-derives it, and re-checks every record, against the
        first matrix it is handed (``tests/core/test_chaos_snapshot.py``
        checks that a restored run reproduces every output of the
        uninterrupted one).
        """
        return {
            "types": None if self._types is None else list(self._types),
            "records": [
                [job_id, rec[0], rec[1], rec[2], dict(rec[3])]
                for job_id, rec in self._records.items()
            ],
            "last_jobs": self.last_jobs,
            "last_dirty": self.last_dirty,
        }

    def load_state_dict(self, state: dict) -> None:
        types = state["types"]
        self._types = None if types is None else [str(t) for t in types]
        self._matrix = None
        self._model_rates.clear()
        self._records = {
            int(job_id): (
                float(remaining),
                int(w),
                float(t_max),
                {str(t): float(v) for t, v in t_min.items()},
            )
            for job_id, remaining, w, t_max, t_min in state["records"]
        }
        self.last_jobs = int(state["last_jobs"])
        self.last_dirty = int(state["last_dirty"])

    def _rates_for(self, matrix: ThroughputMatrix, model: str, types: list[str]):
        entry = self._model_rates.get(model)
        if entry is None:
            by_type = {t: matrix.rate(model, t) for t in types}
            supported = [by_type[t] for t in types if matrix.supports(model, t)]
            entry = (by_type, min(supported) if supported else None)
            self._model_rates[model] = entry
        return entry

    def calibrate(
        self,
        jobs: Sequence[JobRuntime],
        matrix: ThroughputMatrix,
        utility: Utility,
        state: ClusterState,
        now: float,
    ) -> PriceBook:
        config = self.config
        types = self._types
        if types is None:
            types = self._types = sorted({t for (_, t) in state.slots})
        usable = [rt for rt in jobs if rt.remaining_iterations > 0]
        self.last_jobs = len(usable)
        self.last_dirty = 0
        if not usable:
            zero = {t: 0.0 for t in types}
            return PriceBook(u_min=zero, u_max=dict(zero), eta=1.0)

        # t_j^min / t_j^max per job (Eq. 8), restricted to present types.
        # Records carry over while (remaining, W) and the matrix are
        # unchanged; rebuilding the mapping each round drops records of
        # departed jobs.
        new_matrix = matrix is not self._matrix
        if new_matrix:
            self._matrix = matrix
            self._model_rates.clear()
        records = self._records
        fresh: dict[int, tuple[float, int, float, dict[str, float]]] = {}
        kept: list[tuple[JobRuntime, tuple[float, int, float, dict[str, float]]]] = []
        for rt in usable:
            job = rt.job
            remaining = rt.remaining_iterations
            w = job.num_workers
            rec = records.get(rt.job_id)
            if rec is None or rec[0] != remaining or rec[1] != w or new_matrix:
                model = job.model.name
                by_type, min_rate = self._rates_for(matrix, model, types)
                if min_rate is None:
                    raise ValueError(
                        f"job {rt.job_id} ({model}) runs on no GPU type in the cluster"
                    )
                t_min = {
                    r: remaining / (w * rate)
                    for r, rate in by_type.items()
                    if rate > 0.0
                }
                derived = (remaining, w, remaining / (w * min_rate), t_min)
                if derived != rec:
                    self.last_dirty += 1
                    rec = derived
            fresh[rt.job_id] = rec
            kept.append((rt, rec))
        self._records = fresh

        horizon = now + config.horizon_slack * sum(rec[2] for _, rec in kept)

        # η (auto): smallest value satisfying Σ_h Σ_r c_h^r / η ≤ t_j^max W_j ∀j.
        if config.eta is not None:
            eta = config.eta
        else:
            total_capacity = state.total_capacity()
            eta = max(
                (total_capacity / (rec[2] * rec[1]) for _, rec in kept),
                default=1.0,
            )
            eta = max(eta, 1.0)

        # Eqs. (6)-(7) in one pass over the jobs: each type's max/min fold
        # still sees the jobs in queue order, so every fold — and the book —
        # is the per-type loop's bit for bit.  ``value_for`` is pure, so each
        # job's utility at the horizon is computed once, not once per type,
        # and a type's utility at its best JCT serves both folds.
        value_for = utility.value_for
        hi_of = dict.fromkeys(types, 0.0)
        lo_of = dict.fromkeys(types, math.inf)
        for rt, (_, w, t_max_j, t_min) in kept:
            arrival = rt.job.arrival_time
            age = now - arrival
            if age < 0.0:
                age = 0.0
            late = horizon - arrival
            spread = t_max_j * w
            # Smallest utility: the job drags on until the horizon.
            at_horizon = value_for(rt, late, now) / spread
            # Fastest completion *using type r*: full gang of type r (absent
            # from the record when the type is unusable).
            for r, t_min_r in t_min.items():
                jct_best = age + t_min_r
                best = value_for(rt, jct_best, now)
                hi = best / w
                if hi > hi_of[r]:
                    hi_of[r] = hi
                lo = best / spread if jct_best > late else at_horizon
                if lo < lo_of[r]:
                    lo_of[r] = lo

        u_max: dict[str, float] = {}
        u_min: dict[str, float] = {}
        for r in types:
            hi = hi_of[r]
            lo = lo_of[r]
            if hi <= 0.0 or not math.isfinite(lo):
                u_max[r] = 0.0
                u_min[r] = 0.0
                continue
            lo = lo / (4.0 * eta)
            # Keep the price curve strictly increasing (α ≥ 1 regime).
            lo = min(lo, hi / config.min_ratio)
            lo = max(lo, 1e-300)
            u_max[r] = hi
            u_min[r] = lo
        return PriceBook(u_min=u_min, u_max=u_max, eta=eta)
