"""The decision-trace record schema (versioned, validated, dependency-free).

A trace is a JSONL file: one JSON object per line, every object carrying
``schema`` (the integer :data:`TRACE_SCHEMA_VERSION`) and ``kind``.  Three
kinds exist:

``meta``
    First record of every trace: scheduler name, cluster shape, round
    length, trace provenance.
``round``
    One scheduling invocation: simulated time, per-slot Eq. (5) dual
    prices, every queued job's FIND_ALLOC outcome (admitted with its
    payoff μ_j and the consolidated-vs-scattered breakdown, or skipped
    with a reason), the applied diff (placements, preemptions,
    migrations), and the round's cache/calibration counters.
``summary``
    Last record: run totals (completions, makespan, per-phase seconds).

Nine more kinds appear only in fault-injected runs (``--faults``):

``gpu_failed`` / ``gpu_recovered``
    A failure event removing devices from (or a recovery returning them
    to) the cluster: fault id, node, scope (``node`` or ``gpu``), the
    per-slot device counts taken/restored, and — for failures — the
    gangs preempted by it.
``job_rollback``
    One crash-restarted gang: the job re-queued and rolled back to its
    last checkpoint, with the iterations and seconds of progress lost.
``decision_rejected``
    One decision entry the :class:`~repro.faults.DecisionValidator`
    rejected-and-repaired, with its typed reason.
``network_partition`` / ``partition_healed``
    A failure-domain cut isolating a node group (and its later heal):
    the isolated nodes, the partition policy, and the spanning gangs
    stalled/preempted (resumed, on heal).
``node_degraded``
    A degraded-mode window opening on a node (``factor < 1``, or the
    seeded post-recovery *healing* window, ``healing: true``) or closing
    (``ended: true``, factor back to 1), with the gangs retuned by it.
``storage_lost``
    A checkpoint-storage loss on one tier: every surviving checkpoint on
    the tier is invalidated, the listed jobs roll back to iteration zero.
``faultspec_reloaded``
    A live fault-spec reload (``repro serve`` SIGHUP or
    ``POST /admin/faults``) spliced into the timeline: the new spec, its
    schedule epoch, and how many strictly-future events it contributed.

All nine are additive within schema version 1: readers that only know
the original kinds skip them by ``kind`` without a version bump.

Validation here is hand-rolled structural checking (required keys, type
predicates, enum membership) rather than jsonschema — the container has
no jsonschema, and the checks double as executable documentation of the
format.  ``docs/observability.md`` renders the same tables for humans.

Compatibility rule: *additive* changes (new optional fields) keep the
version; renaming/removing/retyping a field bumps
:data:`TRACE_SCHEMA_VERSION`, and readers must reject newer majors.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SKIP_REASONS",
    "REJECT_REASONS",
    "SchemaError",
    "validate_record",
    "validate_trace",
]

TRACE_SCHEMA_VERSION = 1

REJECT_REASONS = (
    "unknown_job",
    "completed_job",
    "not_arrived",
    "bad_gang",
    "nonexistent_gpu",
    "failed_gpu",
    "occupied_gpu",
    "overcommit",
)
"""Typed reasons on ``decision_rejected`` records.  This module stays
dependency-free, so the tuple is mirrored from
:data:`repro.faults.validator.REJECT_REASONS` (a test pins the two
equal)."""

SKIP_REASONS = (
    "no_usable_type",      # no GPU type in the cluster runs this model
    "insufficient_free",   # fewer free usable devices than W_j anywhere
    "negative_payoff",     # FIND_ALLOC found candidates, none with μ_j > 0
    "dp_skipped",          # a positive-payoff gang existed; the DP branch
                           # (or greedy walk, prices risen) left it out
    "not_traced",          # scheduler published no per-job outcome
)
"""Why a queued job received nothing this round (Hadar semantics; the
baselines only distinguish admitted vs ``not_traced``)."""


class SchemaError(ValueError):
    """A trace record violates the schema."""


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str(x: Any) -> bool:
    return isinstance(x, str)


def _is_int_list(x: Any) -> bool:
    return isinstance(x, list) and all(_is_int(j) for j in x)


def _is_placement_list(x: Any) -> bool:
    """``[[node, type, count], ...]`` — a gang rendered as sorted triples."""
    if not isinstance(x, list):
        return False
    for item in x:
        if not (
            isinstance(item, (list, tuple))
            and len(item) == 3
            and _is_int(item[0])
            and _is_str(item[1])
            and _is_int(item[2])
            and item[2] > 0
        ):
            return False
    return True


def _is_bool(x: Any) -> bool:
    return isinstance(x, bool)


def _is_list(x: Any) -> bool:
    return isinstance(x, list)


def _is_object(x: Any) -> bool:
    return isinstance(x, Mapping)


def _is_number_or_none(x: Any) -> bool:
    return x is None or _is_number(x)


def _is_non_negative(x: Any) -> bool:
    return _is_number(x) and x >= 0


_Table = tuple[tuple[tuple[str, Callable[[Any], bool], str, frozenset], ...], ...]
"""``(required, optional)`` fields of one record part, each a tuple of
``(name, predicate, what the value must be, exact types)``.  A value of
one of the exact types passes without a call to the predicate, which
accepts every such value."""


def _table(required: Mapping[str, tuple], optional: Mapping[str, tuple]) -> _Table:
    """Field specs ``name → (predicate, expectation, *exact types)`` as a table."""
    return tuple(
        tuple(
            (key, pred, expect, frozenset(exact))
            for key, (pred, expect, *exact) in fields.items()
        )
        for fields in (required, optional)
    )


_INT = (_is_int, "an int", int)
_NUMBER = (_is_number, "a number", int, float)
_STR = (_is_str, "a string", str)
_BOOL = (_is_bool, "a bool", bool)
_OBJECT = (_is_object, "an object", dict)
_LIST = (_is_list, "a list", list)
_SECONDS = (_is_number, "simulated seconds", int, float)
_ROUND = (_is_int, "an int round index", int)
_NODE = (_is_int, "an int node id", int)
_GANG = (_is_placement_list, "[[node, type, count], ...]")
_JOB_IDS = (_is_int_list, "a list of int job ids")
_NODE_IDS = (_is_int_list, "a list of int node ids")
_NON_NEGATIVE = (_is_non_negative, "a non-negative number")
_PAYOFF = (_is_number_or_none, "a number or null", int, float, type(None))

_KINDS: dict[str, _Table] = {
    "meta": _table(
        {"scheduler": _STR, "round_length_s": _NUMBER, "cluster": _OBJECT},
        {"num_jobs": _INT},
    ),
    "round": _table(
        {"round": _ROUND, "t": _SECONDS, "jobs": _LIST, "changes": _LIST},
        {
            "prices": _LIST,
            "alpha": _NUMBER,
            "eta": _NUMBER,
            "decision_s": _NUMBER,
            "counters": _OBJECT,
            "queued": _INT,
            "running": _INT,
        },
    ),
    "summary": _table(
        {"rounds": _INT, "completed": _INT, "end_time": _NUMBER},
        {
            "makespan": _NUMBER,
            "truncated": _BOOL,
            "phase_timings": _OBJECT,
            "hotpath_stats": _OBJECT,
        },
    ),
    "gpu_failed": _table(
        {
            "t": _SECONDS,
            "fault_id": _INT,
            "node": _NODE,
            "scope": (lambda x: x in ("node", "gpu"), "'node' or 'gpu'"),
            "permanent": _BOOL,
            "slots": _GANG,
        },
        {"preempted": _JOB_IDS},
    ),
    "gpu_recovered": _table(
        {"t": _SECONDS, "fault_id": _INT, "node": _NODE, "slots": _GANG},
        {},
    ),
    "job_rollback": _table(
        {
            "t": _SECONDS,
            "job_id": _INT,
            "fault_id": _INT,
            "lost_iterations": _NON_NEGATIVE,
            "lost_seconds": _NON_NEGATIVE,
        },
        {},
    ),
    "decision_rejected": _table(
        {
            "round": _ROUND,
            "t": _SECONDS,
            "job_id": _INT,
            "reason": (lambda x: x in REJECT_REASONS, f"one of {REJECT_REASONS}"),
            "repaired": _BOOL,
        },
        {"detail": _STR},
    ),
    "network_partition": _table(
        {
            "t": _SECONDS,
            "fault_id": _INT,
            "domain": (_is_int, "an int failure-domain index"),
            "nodes": _NODE_IDS,
            "policy": (lambda x: x in ("stall", "preempt"), "'stall' or 'preempt'"),
            "stalled": _JOB_IDS,
            "preempted": _JOB_IDS,
        },
        {},
    ),
    "partition_healed": _table(
        {
            "t": _SECONDS,
            "fault_id": _INT,
            "domain": (_is_int, "an int failure-domain index"),
            "nodes": _NODE_IDS,
            "resumed": _JOB_IDS,
        },
        {},
    ),
    "node_degraded": _table(
        {
            "t": _SECONDS,
            "fault_id": _INT,
            "node": _NODE,
            "factor": (
                lambda x: _is_number(x) and 0.0 < x <= 1.0, "a number in (0, 1]"
            ),
            "jobs": _JOB_IDS,
        },
        {"ended": _BOOL, "healing": _BOOL},
    ),
    "storage_lost": _table(
        {
            "t": _SECONDS,
            "fault_id": _INT,
            "tier": (_is_int, "an int storage tier"),
            "jobs": _JOB_IDS,
            "lost_iterations": _NON_NEGATIVE,
        },
        {},
    ),
    "faultspec_reloaded": _table(
        {
            "t": _SECONDS,
            "spec": (_is_str, "the reloaded fault-spec string"),
            "epoch": (lambda x: _is_int(x) and x >= 1, "an int >= 1"),
            "events": (lambda x: _is_int(x) and x >= 0, "a non-negative int"),
        },
        {},
    ),
}
"""Every record kind's own fields; a round's nested parts follow."""

_PRICE = _table(
    {
        "node": _NODE,
        "gpu_type": _STR,
        "price": _NUMBER,
        "free": _INT,
        "capacity": _INT,
    },
    {},
)
_JOB = _table(
    {
        "job_id": _INT,
        "outcome": (
            lambda x: x in ("admitted", "skipped", "kept"),
            "'admitted', 'kept', or 'skipped'",
        ),
    },
    {"model": _STR, "num_workers": _INT},
)
_PLACED_JOB = _table(
    {"allocation": _GANG},
    {
        "mu": (_is_number, "a number (the payoff μ_j)", int, float),
        "cost": _NUMBER,
        "utility": _NUMBER,
        "rate": _NUMBER,
        "estimated_jct": _NUMBER,
        "consolidated": _BOOL,
        "breakdown": _OBJECT,
    },
)
_BREAKDOWN = _table(
    {},
    {
        "consolidated_payoff": _PAYOFF,
        "scattered_payoff": _PAYOFF,
        "current_payoff": _PAYOFF,
    },
)
_CHANGE = _table(
    {
        "job_id": _INT,
        "change": (
            lambda x: x in ("place", "migrate", "preempt"),
            "'place', 'migrate', or 'preempt'",
        ),
        "old": _GANG,
        "new": _GANG,
    },
    {},
)


def _check(record: Mapping[str, Any], table: _Table, where: str, *args: Any) -> None:
    """Check ``record`` against ``table``; ``where`` names it in errors.

    ``where`` is a format string filled with ``args`` only when a check
    fails, so a valid record formats nothing.
    """
    required, optional = table
    for key, pred, expect, exact in required:
        if key not in record:
            raise SchemaError(
                f"{where.format(*args)}: missing required field {key!r}"
            )
        value = record[key]
        if type(value) not in exact and not pred(value):
            raise SchemaError(
                f"{where.format(*args)}: field {key!r} must be {expect}, "
                f"got {value!r}"
            )
    for key, pred, expect, exact in optional:
        if key not in record:
            continue
        value = record[key]
        if type(value) not in exact and not pred(value):
            raise SchemaError(
                f"{where.format(*args)}: field {key!r} must be {expect}, "
                f"got {value!r}"
            )


def _validate_round(record: Mapping[str, Any]) -> None:
    """A round record's prices, jobs and changes (its own fields are checked)."""
    if "prices" in record:
        for i, entry in enumerate(record["prices"]):
            if not isinstance(entry, Mapping):
                raise SchemaError(f"round record: prices[{i}] must be an object")
            _check(entry, _PRICE, "round record: prices[{}]", i)
    for i, job in enumerate(record["jobs"]):
        if not isinstance(job, Mapping):
            raise SchemaError(f"round record: jobs[{i}] must be an object")
        _check(job, _JOB, "round record: jobs[{}]", i)
        outcome = job["outcome"]
        if outcome == "skipped":
            reason = job.get("reason")
            if reason not in SKIP_REASONS:
                raise SchemaError(
                    f"round record: jobs[{i}]: skipped job needs 'reason' in "
                    f"{SKIP_REASONS}, got {reason!r}"
                )
            continue
        _check(job, _PLACED_JOB, "round record: jobs[{}]", i)
        if outcome == "admitted" and "mu" in job and job["mu"] <= 0.0:
            raise SchemaError(
                f"round record: jobs[{i}]: admitted job carries non-positive "
                f"payoff mu={job['mu']!r} (violates the μ_j > 0 admission gate)"
            )
        breakdown = job.get("breakdown")
        if breakdown is not None:
            _check(breakdown, _BREAKDOWN, "round record: jobs[{}]: breakdown", i)
    for i, entry in enumerate(record["changes"]):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"round record: changes[{i}] must be an object")
        _check(entry, _CHANGE, "round record: changes[{}]", i)


def validate_record(record: Mapping[str, Any]) -> str:
    """Validate one parsed trace record; returns its ``kind``.

    Raises :class:`SchemaError` with a field-level message on the first
    violation.  Unknown extra fields are allowed (additive evolution).
    """
    if not isinstance(record, Mapping):
        raise SchemaError("trace record must be a JSON object")
    version = record.get("schema")
    if not _is_int(version):
        raise SchemaError("record missing integer 'schema' version field")
    if version > TRACE_SCHEMA_VERSION:
        raise SchemaError(
            f"record schema version {version} is newer than supported "
            f"version {TRACE_SCHEMA_VERSION}"
        )
    kind = record.get("kind")
    table = _KINDS.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise SchemaError(
            "record 'kind' must be 'meta', 'round', 'summary', 'gpu_failed', "
            "'gpu_recovered', 'job_rollback', 'decision_rejected', "
            "'network_partition', 'partition_healed', 'node_degraded', "
            f"'storage_lost', or 'faultspec_reloaded', got {kind!r}"
        )
    _check(record, table, "{} record", kind)
    if kind == "round":
        _validate_round(record)
    return kind


def validate_trace(
    records: Iterable[Mapping[str, Any]],
) -> Iterator[tuple[int, str]]:
    """Validate a record stream; yields ``(index, kind)`` per record.

    Structural stream rules: record 0 must be ``meta``; at most one
    ``summary``, and nothing may follow it.  Additionally, a trace whose
    meta record names the ``hadar`` scheduler must carry the payoff
    ``mu`` on every admitted job (Algorithm 1 admits only on μ_j > 0;
    the per-record positivity check then applies) — baselines have no
    payoff and may omit it.
    """
    saw_summary = False
    requires_mu = False
    index = -1
    for index, record in enumerate(records):
        if saw_summary:
            raise SchemaError(f"record {index}: records after the summary")
        kind = validate_record(record)
        if index == 0 and kind != "meta":
            raise SchemaError("record 0 must be the 'meta' record")
        if kind == "meta":
            requires_mu = record.get("scheduler") == "hadar"
        elif kind == "round" and requires_mu:
            for i, job in enumerate(record.get("jobs", ())):
                if job.get("outcome") == "admitted" and "mu" not in job:
                    raise SchemaError(
                        f"record {index}: jobs[{i}]: hadar trace admitted "
                        f"job {job.get('job_id')} without its payoff 'mu'"
                    )
        if kind == "summary":
            saw_summary = True
        yield index, kind
