"""Engine snapshots: versioned :class:`EngineState` + :class:`SnapshotCodec`.

This is the **engine-level** checkpointing layer — the serializable image
of a whole in-flight simulation (event heap, job runtimes, cluster
occupancy, scheduler internals, RNG streams, telemetry, metrics) that the
service front-end writes on an interval or a SIGTERM and reads back on
restart.  It is *unrelated* to :mod:`repro.sim.checkpoint`, which models
the **job-level** checkpoint/restore *overhead* a reallocated training
job pays inside the simulated world (Sec. III-C); that module charges
simulated seconds, this one moves real state between processes.

Determinism contract: for an engine configured identically to the one
that produced a snapshot, ``restore(loads(dumps(snapshot())))`` followed
by ``run()`` yields a result byte-identical to the uninterrupted run.
Three properties make that hold:

* every component exposes ``state_dict()`` / ``load_state_dict()``
  capturing *all* of its mutable state (insertion orders included —
  dict order is semantics-bearing in the runtimes table, the dirty set,
  the calibrator's records and the cluster's free maps);
* the event heap is serialized verbatim as an array — a captured heap
  is a valid heap, so no re-heapify happens on restore and pops replay
  in the exact original order (``(time, kind, seq)`` keys intact);
* floats travel as plain JSON numbers — CPython's ``repr`` is the
  shortest round-trip representation and ``json.loads`` parses it back
  to the identical double — except the ±inf histogram sentinels, which
  go through ``float.hex()``.

The on-disk envelope is a single JSON document::

    {"format": "repro-engine-snapshot", "version": 3,
     "checksum": "<sha256 of the canonical state JSON>",
     "state": {...}}

``SnapshotCodec.loads`` rejects wrong formats, unsupported versions,
truncated documents and checksum mismatches with :class:`SnapshotError`
before any state is touched.

Most of a long run's state cannot change between snapshots: finished
jobs, job specs, settled history, the configuration.  The
engine's :class:`SnapshotCache` keeps their records and canonical JSON,
and the latest encoding of the fields that seldom change (cluster
occupancy, telemetry), and ``dumps`` splices those fragments into one
encoding pass over the rest; the document is byte-identical to encoding
the whole payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional, Union

from repro.sim.progress import JobState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationEngine
    from repro.sim.progress import JobRuntime

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "EngineState",
    "SnapshotCodec",
    "SnapshotCache",
    "capture_engine_state",
    "apply_engine_state",
]

SNAPSHOT_FORMAT = "repro-engine-snapshot"
SNAPSHOT_VERSION = 3
"""2: the scheduler phase keeps an invocation count instead of every
decision's latency, and the phase timings lost ``calibration_s``.
3: ``metrics`` holds only the families observed at events, ``lifecycle``
carries the restore-fallback count, and the scheduler phase no longer
keeps the last decision's diff (the next decision overwrites it unread)."""


class SnapshotError(ValueError):
    """A snapshot cannot be decoded, or does not fit this engine."""


def _config_fingerprint(engine: "SimulationEngine") -> dict:
    """The identity of a run's *immutable* configuration.

    A snapshot only makes sense applied to an engine built the same way;
    this captures enough to reject obvious mismatches (different
    scheduler, cluster shape, trace size, or attachment set) without
    serializing the immutable objects themselves.
    """
    return {
        "scheduler": engine.scheduler.name,
        "round_length": engine.round_length,
        "max_time": engine.max_time,
        "nodes": [
            [n.node_id, sorted([t, int(c)] for t, c in n.gpus.items())]
            for n in engine.cluster.nodes
        ],
        "num_trace_jobs": len(engine.trace),
        "stragglers": engine.stragglers is not None,
        "faults": engine.faults is not None,
        "source": engine.source is not None,
        "tracer": engine.tracer is not None,
        "sanitizer": engine.sanitizer is not None,
        "metrics": engine.metrics is not None,
    }


@dataclass
class EngineState:
    """Everything mutable about an in-flight run, as plain JSON-able data.

    Field-by-field this is the engine's loop state (``lifecycle``), the
    event kernel (``events``), the job table in insertion order
    (``jobs``), the progress ledger's dirty set (``ledger``), cluster
    occupancy (``cluster``), the scheduler's cross-round internals
    (``scheduler``), the scheduler phase's accumulators
    (``scheduler_phase``), phase timings, telemetry series, and the
    optional attachments (faults, straggler RNG, submission source,
    pending streamed job, sanitizer, metrics) — ``None`` when the
    snapshotting engine ran without them.
    """

    version: int
    config: dict
    lifecycle: dict
    events: dict
    jobs: list
    ledger: dict
    cluster: dict
    scheduler: dict
    scheduler_phase: dict
    timings: dict
    telemetry: dict
    faults: Optional[dict]
    straggler_rng: Optional[dict]
    source: Optional[dict]
    pending_submission: Optional[list]
    sanitizer: Optional[dict]
    metrics: Optional[dict]

    _cached_fields = ()
    """Set by :func:`capture_engine_state`: the fields with cached parts
    whose fragments :meth:`SnapshotCodec.dumps` splices in, in document
    order.  Unannotated, so it is no dataclass field: ``to_payload``,
    equality and ``repr`` ignore it."""

    def to_payload(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EngineState":
        try:
            return cls(**{name: payload[name] for name in _FIELDS})
        except KeyError as exc:
            raise SnapshotError(f"snapshot payload missing field {exc}") from None


_FIELDS = tuple(f.name for f in dataclasses.fields(EngineState))
"""The payload's field names, read once: ``dataclasses.fields`` rebuilds
its tuple on every call."""


_SENTINEL = "\x00cached-fragment\x00"
"""Stands in for a cached value in the payload :meth:`SnapshotCodec.dumps`
encodes; no engine state holds a NUL-delimited string like it."""
_SENTINEL_JSON = json.dumps(_SENTINEL)


class _CachedField(NamedTuple):
    """One top-level payload field with its cached parts.

    ``value`` is the field as the :class:`EngineState` holds it (checked
    by identity, so a replaced field falls back to plain encoding),
    ``encoded`` the same value with :data:`_SENTINEL` where a cached part
    sits, and ``fragments`` those parts' canonical JSON in document order.
    """

    key: str
    value: object
    encoded: object
    fragments: list


class _JobParts:
    """The parts of a job's record that cannot change: its job spec, and
    its history, which only ever grows at the end.

    ``history`` is replaced, never extended in place: earlier snapshots
    share the previous list.
    """

    __slots__ = ("rt", "job", "job_json", "history", "history_json")

    def __init__(self, rt: "JobRuntime") -> None:
        self.rt = rt
        self.job = rt.job.to_record()
        self.job_json = _canonical(self.job)
        self.history: list = []
        self.history_json = "[]"

    def capture(self) -> tuple[dict, dict]:
        """The job's record, and the same record with :data:`_SENTINEL`
        for ``history`` and ``job`` (whose fragments are
        ``[history_json, job_json]``, in document order)."""
        rt = self.rt
        settled = len(self.history)
        if len(rt.history) != settled:
            fresh = rt.history_record(settled)
            self.history = self.history + fresh
            inner = _canonical(fresh)[1:-1]
            self.history_json = (
                f"{self.history_json[:-1]},{inner}]" if settled else f"[{inner}]"
            )
        spliced = rt.mutable_state_dict()
        record = spliced.copy()
        record["job"] = self.job
        record["history"] = self.history
        spliced["history"] = spliced["job"] = _SENTINEL
        return record, spliced


class SnapshotCache:
    """Records and canonical JSON of what later snapshots cannot change.

    A COMPLETE job's ``state_dict()`` never changes again, and neither
    does the run's configuration fingerprint.  The first snapshot that
    sees either builds its record and its canonical fragment; later
    snapshots share the record and splice the fragment.  Of a job not yet
    COMPLETE, the job spec and the settled history are kept the same way.
    Job entries are keyed by job id and hit only for the same
    :class:`JobRuntime` object, so a table rebuilt by a restore never
    reads a stale entry.  The cluster occupancy and the telemetry series
    change at few snapshots: each keeps its latest value and fragment,
    reused while its owner's token is unchanged
    (:meth:`capture_unchanged`).  The engine builds a new cache whenever
    it builds a run (start, re-run, restore); the cache itself is never
    snapshotted.
    """

    __slots__ = ("complete", "live", "config", "unchanged")

    def __init__(self) -> None:
        self.complete: dict[int, tuple["JobRuntime", dict, str]] = {}
        self.live: dict[int, _JobParts] = {}
        self.config: Optional[tuple[dict, str]] = None
        # Payload field → (owner, stamp, value, canonical JSON) of the
        # latest snapshot that built it.
        self.unchanged: dict[str, tuple[object, object, object, str]] = {}

    def capture_jobs(self, runtimes: Mapping[int, "JobRuntime"]) -> _CachedField:
        """Every job's record in table order, COMPLETE ones from the cache.

        Consecutive COMPLETE jobs share one sentinel, their fragments
        joined with the list separator.
        """
        complete_cache, live = self.complete, self.live
        complete = JobState.COMPLETE
        records: list[dict] = []
        encoded: list = []
        fragments: list[str] = []
        run: list[str] = []  # COMPLETE fragments since the last other record
        for job_id, rt in runtimes.items():
            if rt.state is complete:
                entry = complete_cache.get(job_id)
                if entry is None or entry[0] is not rt:
                    parts = live.pop(job_id, None)
                    if parts is None or parts.rt is not rt:
                        parts = _JobParts(rt)
                    record, spliced = parts.capture()
                    fragment = _splice(
                        _canonical(spliced), [parts.history_json, parts.job_json]
                    )
                    entry = complete_cache[job_id] = (rt, record, fragment)
                records.append(entry[1])
                run.append(entry[2])
                continue
            if run:
                encoded.append(_SENTINEL)
                fragments.append(",".join(run))
                run = []
            parts = live.get(job_id)
            if parts is None or parts.rt is not rt:
                parts = live[job_id] = _JobParts(rt)
            record, spliced = parts.capture()
            records.append(record)
            encoded.append(spliced)
            fragments.append(parts.history_json)  # "history" < "job"
            fragments.append(parts.job_json)
        if run:
            encoded.append(_SENTINEL)
            fragments.append(",".join(run))
        return _CachedField("jobs", records, encoded, fragments)

    def capture_unchanged(
        self, key: str, token: tuple[object, object], build: Callable[[], object]
    ) -> _CachedField:
        """A payload field spliced from its last fragment while unchanged.

        ``token`` is ``(owner, stamp)``, from the object that owns the
        field: unchanged means the same owner object with an equal stamp,
        and the owner documents why that implies an equal value
        (:meth:`ClusterState.snapshot_token`,
        :attr:`UtilizationRecorder.revision`).  ``build()`` builds the
        value when it changed; while unchanged, the field is the value
        built last.
        """
        owner, stamp = token
        kept = self.unchanged.get(key)
        if kept is None or kept[0] is not owner or kept[1] != stamp:
            value = build()
            kept = self.unchanged[key] = (owner, stamp, value, _canonical(value))
        return _CachedField(key, kept[2], _SENTINEL, [kept[3]])

    def capture_config(self, engine: "SimulationEngine") -> _CachedField:
        """The run's config fingerprint, built and encoded once."""
        if self.config is None:
            config = _config_fingerprint(engine)
            self.config = (config, _canonical(config))
        config, fragment = self.config
        return _CachedField("config", config, _SENTINEL, [fragment])


def capture_engine_state(engine: "SimulationEngine") -> EngineState:
    """Freeze a *running* engine's mutable state between steps.

    The returned records are shared with the engine's
    :class:`SnapshotCache` and with later snapshots: treat them as
    read-only.
    """
    cache = engine._snapshot_cache
    config = cache.capture_config(engine)
    jobs = cache.capture_jobs(engine._runtimes)
    cluster = cache.capture_unchanged(
        "cluster", engine._state.snapshot_token(), engine._state.state_dict
    )
    recorder = engine._telemetry.recorder
    telemetry = cache.capture_unchanged(
        "telemetry", (recorder, recorder.revision), recorder.state_dict
    )
    state = EngineState(
        version=SNAPSHOT_VERSION,
        config=config.value,
        lifecycle={
            "completed": engine._completed,
            "now": engine._now,
            "rounds_with_change": engine._rounds_with_change,
            "truncated": engine._truncated,
            "loop_s": engine._loop_s,
            "ticks": engine._ticks,
            "halted": engine._halted,
            "paused": engine._paused,
            "round_scheduled": engine._round_scheduled,
            "restore_fallbacks": engine._restore_fallbacks,
        },
        events=engine._kernel.state_dict(),
        jobs=jobs.value,
        ledger=engine._ledger.state_dict(),
        cluster=cluster.value,
        scheduler={
            "name": engine.scheduler.name,
            "state": engine.scheduler.state_dict(),
        },
        scheduler_phase=engine._scheduler_phase.state_dict(),
        timings=engine._timings.state_dict(),
        telemetry=telemetry.value,
        faults=(
            engine._fault_phase.state_dict()
            if engine._fault_phase is not None
            else None
        ),
        straggler_rng=(
            engine._straggler_rng.bit_generator.state
            if engine._straggler_rng is not None
            else None
        ),
        source=engine.source.state_dict() if engine.source is not None else None,
        pending_submission=(
            engine._pending_submission.to_record()
            if engine._pending_submission is not None
            else None
        ),
        sanitizer=(
            engine.sanitizer.state_dict() if engine.sanitizer is not None else None
        ),
        metrics=engine.metrics.state_dict() if engine.metrics is not None else None,
    )
    # In document order: "cluster" < "config" < "jobs" < "telemetry".
    state._cached_fields = (cluster, config, jobs, telemetry)
    return state


def apply_engine_state(engine: "SimulationEngine", state: EngineState) -> None:
    """Load a snapshot into a freshly ``_setup()``-run engine.

    Called by :meth:`SimulationEngine.restore` — the engine has already
    rebuilt its layers (phases, fault schedule, wiring) exactly as
    :meth:`~SimulationEngine.start` would; this overwrites every piece
    of mutable state with the captured values.
    """
    from repro.sim.progress import JobRuntime
    from repro.workload.job import Job

    if state.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {state.version} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    expected = _config_fingerprint(engine)
    if state.config != expected:
        diffs = sorted(
            k
            for k in set(state.config) | set(expected)
            if state.config.get(k) != expected.get(k)
        )
        raise SnapshotError(
            f"snapshot was taken by a differently configured engine "
            f"(mismatched: {', '.join(diffs)})"
        )

    # The runtimes table is rebuilt *in place*: the ledger and the
    # snapshot's dirty set both refer to this exact dict object, and its
    # insertion order is the schedulers' iteration order.
    runtimes = engine._runtimes
    runtimes.clear()
    for record in state.jobs:
        rt = JobRuntime.from_state_dict(record)
        runtimes[rt.job_id] = rt

    engine._kernel.load_state_dict(state.events)
    engine._ledger.load_state_dict(state.ledger)
    engine._state.load_state_dict(state.cluster)
    engine.scheduler.load_state_dict(state.scheduler["state"])
    engine._scheduler_phase.load_state_dict(state.scheduler_phase)
    engine._timings.load_state_dict(state.timings)
    engine._telemetry.recorder.load_state_dict(state.telemetry)
    if engine._fault_phase is not None:
        assert state.faults is not None  # fingerprint guarantees it
        engine._fault_phase.load_state_dict(state.faults)
    if engine._straggler_rng is not None:
        assert state.straggler_rng is not None
        engine._straggler_rng.bit_generator.state = state.straggler_rng
    if engine.source is not None:
        assert state.source is not None
        engine.source.load_state_dict(state.source)
    engine._pending_submission = (
        Job.from_record(state.pending_submission)
        if state.pending_submission is not None
        else None
    )
    if engine.sanitizer is not None:
        assert state.sanitizer is not None
        engine.sanitizer.load_state_dict(state.sanitizer)
    if engine.metrics is not None:
        assert state.metrics is not None
        engine.metrics.load_state_dict(state.metrics)

    lifecycle = state.lifecycle
    engine._completed = int(lifecycle["completed"])
    engine._now = float(lifecycle["now"])
    engine._rounds_with_change = int(lifecycle["rounds_with_change"])
    engine._truncated = bool(lifecycle["truncated"])
    engine._loop_s = float(lifecycle["loop_s"])
    engine._ticks = int(lifecycle["ticks"])
    engine._halted = bool(lifecycle["halted"])
    engine._paused = bool(lifecycle["paused"])
    engine._round_scheduled = bool(lifecycle["round_scheduled"])
    engine._restore_fallbacks = int(lifecycle["restore_fallbacks"])


_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode
"""``json.dumps(value, sort_keys=True, separators=(",", ":"))``, without
building an encoder per call or tracking visited containers (engine
state holds no cycles; the output is the same)."""


def _spliced_canonical(state: EngineState) -> str:
    """``_canonical(state.to_payload())``, reusing cached fragments.

    The payload is encoded once with :data:`_SENTINEL` in place of every
    cached part, then the fragments are spliced into the sentinels' slots.
    A list encodes as ``"[" + ",".join(items) + "]"`` and a cached
    fragment is exactly its value's canonical encoding, so the result is
    byte-identical to encoding the whole payload.
    """
    payload = state.to_payload()
    cached = state._cached_fields
    if not cached or any(payload[f.key] is not f.value for f in cached):
        return _canonical(payload)
    fragments: list[str] = []
    for field in cached:
        payload[field.key] = field.encoded
        fragments.extend(field.fragments)
    return _splice(_canonical(payload), fragments)


def _splice(text: str, fragments: list[str]) -> str:
    """``text`` with its :data:`_SENTINEL` slots filled, in order."""
    pieces = text.split(_SENTINEL_JSON)
    if len(pieces) != len(fragments) + 1:
        raise AssertionError("a snapshot value holds the splice sentinel")
    out = pieces + fragments
    out[::2] = pieces
    out[1::2] = fragments
    return "".join(out)


class SnapshotCodec:
    """Serialize :class:`EngineState` to a checksummed JSON envelope.

    The checksum is the sha256 of the canonical (sorted-keys, no-space)
    rendering of the state payload.  Re-encoding the parsed state is
    byte-stable because the original dump already used CPython's
    shortest-round-trip float ``repr`` — so verification recomputes the
    exact bytes that were hashed.
    """

    FORMAT = SNAPSHOT_FORMAT
    VERSION = SNAPSHOT_VERSION

    def dumps(self, state: EngineState) -> str:
        """The canonical envelope, serializing the state payload once.

        The envelope's keys sort as ``checksum < format < state <
        version``, so the canonical rendering of the whole envelope is
        the hashed body spliced between its neighbours.
        """
        body = _spliced_canonical(state)
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return (
            f'{{"checksum":"{checksum}","format":{json.dumps(self.FORMAT)},'
            f'"state":{body},"version":{json.dumps(self.VERSION)}}}'
        )

    def loads(self, text: str) -> EngineState:
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"snapshot is not valid JSON (truncated or corrupt): {exc}"
            ) from None
        if not isinstance(envelope, dict) or envelope.get("format") != self.FORMAT:
            raise SnapshotError("not a repro engine snapshot")
        version = envelope.get("version")
        if version != self.VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} unsupported "
                f"(this build reads version {self.VERSION})"
            )
        payload = envelope.get("state")
        if not isinstance(payload, dict):
            raise SnapshotError("snapshot envelope has no state object")
        body = _canonical(payload)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != envelope.get("checksum"):
            raise SnapshotError("snapshot checksum mismatch (corrupt file)")
        return EngineState.from_payload(payload)

    # -- files ----------------------------------------------------------------
    def save(self, state: EngineState, path: Union[str, Path]) -> Path:
        """Write durably and atomically.

        The document goes to a tmp file first, which is ``fsync``-ed
        before the ``os.replace`` rename so a power loss never leaves a
        renamed-but-empty snapshot, and the directory entry is fsync-ed
        after the rename so the new name itself survives a crash.  A kill
        mid-write therefore leaves either the previous chain intact or
        the previous chain plus one complete new link — never a
        half-snapshot where the restore path will find it.  (Directory
        fsync is best-effort: some filesystems refuse ``open(O_RDONLY)``
        on directories; the rename is still atomic there.)
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.dumps(state))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return path
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return path

    def load(self, path: Union[str, Path]) -> EngineState:
        return self.loads(Path(path).read_text(encoding="utf-8"))

    @staticmethod
    def chain(directory: Union[str, Path]) -> list[Path]:
        """Every ``*.snapshot.json`` in a directory, newest first.

        This is the restore chain: callers try index 0 and walk forward
        past entries :meth:`load` rejects with :class:`SnapshotError`.
        Ties and clock skew are resolved by name (snapshots are written
        with zero-padded tick counts, so lexicographic order is capture
        order).
        """
        directory = Path(directory)
        if not directory.is_dir():
            return []
        return sorted(directory.glob("*.snapshot.json"), reverse=True)

    @staticmethod
    def prune(directory: Union[str, Path], keep: int) -> list[Path]:
        """Delete all but the newest ``keep`` snapshots; returns removals.

        ``keep <= 0`` means unbounded (nothing is deleted).  Races with a
        concurrent unlink are tolerated.
        """
        if keep <= 0:
            return []
        removed: list[Path] = []
        for stale in SnapshotCodec.chain(directory)[keep:]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            removed.append(stale)
        return removed

    @staticmethod
    def latest(directory: Union[str, Path]) -> Optional[Path]:
        """The newest ``*.snapshot.json`` in a directory, or None."""
        chain = SnapshotCodec.chain(directory)
        return chain[0] if chain else None
