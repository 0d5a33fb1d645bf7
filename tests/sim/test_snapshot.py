"""Engine snapshot/restore: round-trip properties, codec rejection,
lifecycle API, and streaming submission sources.

The headline property — interrupted-and-restored runs are byte-identical
to uninterrupted ones across schedulers/seeds with every observer
attached — lives in ``tests/core/test_chaos_snapshot.py`` next to the
golden fingerprints.  This file covers the mechanisms underneath:
component state dicts round-tripping exactly (heap order, RNG
continuations, calibrator records, cluster key), the codec rejecting
bad envelopes before any state is touched, and the lifecycle guards.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.analysis.sanitizer import InvariantSanitizer
from repro.cluster.allocation import Allocation
from repro.cluster.cluster import simulated_cluster
from repro.core import HadarScheduler
from repro.core.estimator import ProfilingScheduler
from repro.faults import FaultModel
from repro.obs import MetricsRegistry, parse_exposition, render
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.progress import JobRuntime
from repro.sim.replay import RecordingScheduler, ReplayScheduler
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCache,
    SnapshotCodec,
    SnapshotError,
    _canonical,
    _splice,
    capture_engine_state,
)
from repro.sim.stragglers import StragglerModel
from repro.sim.telemetry import UtilizationRecorder
from repro.workload.arrivals import SubmissionSource
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from repro.workload.trace import Trace

from tests.core._hotpath_fingerprint import WALL_CLOCK_FAMILIES, make_scheduler, outputs


def make_trace(seed: int = 1, num_jobs: int = 10) -> Trace:
    return generate_philly_trace(
        PhillyTraceConfig(
            num_jobs=num_jobs,
            seed=seed,
            arrival_pattern="continuous",
            jobs_per_hour=50.0,
        )
    )


def make_engine(seed: int = 1, **kwargs) -> SimulationEngine:
    defaults = dict(
        cluster=simulated_cluster(),
        trace=make_trace(seed),
        scheduler=HadarScheduler(),
        round_length=300.0,
        max_time=60 * 24 * 3600.0,
    )
    defaults.update(kwargs)
    return SimulationEngine(**defaults)


def loaded_engine(seed: int = 1, steps: int = 150, **kwargs):
    """An engine advanced ``steps`` events into a run."""
    engine = make_engine(seed, **kwargs)
    engine.start()
    for _ in range(steps):
        if not engine.step():
            break
    return engine


class TestLifecycle:
    def test_run_is_start_step_stop(self):
        batch = make_engine().run()
        engine = make_engine()
        engine.start()
        while engine.step():
            pass
        stepped = engine.stop()
        assert [rt.finish_time for rt in batch.runtimes.values()] == [
            rt.finish_time for rt in stepped.runtimes.values()
        ]
        assert batch.end_time == stepped.end_time

    def test_start_twice_raises(self):
        engine = make_engine()
        engine.start()
        with pytest.raises(RuntimeError, match="running"):
            engine.start()

    def test_step_before_start_raises(self):
        with pytest.raises(RuntimeError, match="not running"):
            make_engine().step()

    def test_pause_makes_step_a_noop(self):
        engine = make_engine()
        engine.start()
        engine.step()
        before = engine.tick_count
        engine.pause()
        assert engine.is_paused
        assert engine.step() is True  # work remains, nothing processed
        assert engine.tick_count == before
        engine.resume()
        assert engine.step() is True
        assert engine.tick_count == before + 1

    def test_stop_is_idempotent(self):
        engine = make_engine()
        engine.start()
        while engine.step():
            pass
        first = engine.stop()
        assert engine.stop() is first

    def test_snapshot_requires_running(self):
        engine = make_engine()
        with pytest.raises(RuntimeError, match="snapshot"):
            engine.snapshot()

    def test_restore_requires_fresh_engine(self):
        engine = loaded_engine()
        state = engine.snapshot()
        started = make_engine()
        started.start()
        with pytest.raises(RuntimeError, match="freshly constructed"):
            started.restore(state)


class TestRoundTrip:
    """restore(loads(dumps(snapshot()))) reproduces every component."""

    def test_full_state_reproduced_bitwise(self):
        engine = loaded_engine()
        blob = SnapshotCodec().dumps(engine.snapshot())
        restored = make_engine()
        restored.restore(SnapshotCodec().loads(blob))
        again = capture_engine_state(restored)
        assert SnapshotCodec().dumps(again) == blob

    def test_full_state_reproduced_with_all_attachments(self):
        kwargs = dict(
            faults=FaultModel(node_mtbf_h=0.5, mttr_s=1800.0, seed=3),
            sanitizer=InvariantSanitizer(mode="collect"),
            metrics=MetricsRegistry(),
        )
        engine = loaded_engine(steps=300, **kwargs)
        blob = SnapshotCodec().dumps(engine.snapshot())
        restored = make_engine(
            faults=FaultModel(node_mtbf_h=0.5, mttr_s=1800.0, seed=3),
            sanitizer=InvariantSanitizer(mode="collect"),
            metrics=MetricsRegistry(),
        )
        restored.restore(SnapshotCodec().loads(blob))
        assert SnapshotCodec().dumps(capture_engine_state(restored)) == blob

    def test_kernel_heap_pops_replay_in_order(self):
        engine = loaded_engine()
        state = SnapshotCodec().loads(SnapshotCodec().dumps(engine.snapshot()))
        restored = make_engine()
        restored.restore(state)
        # Pop both kernels dry and compare the exact sequences.
        mine, theirs = [], []
        while engine._kernel:
            e = engine._kernel.pop()
            mine.append((e.time, int(e.kind), e.seq, e.payload, e.generation))
        while restored._kernel:
            e = restored._kernel.pop()
            theirs.append((e.time, int(e.kind), e.seq, e.payload, e.generation))
        assert mine == theirs
        assert len(mine) > 0

    def test_cluster_state_key_identical(self):
        engine = loaded_engine()
        restored = make_engine()
        restored.restore(engine.snapshot())
        assert restored._state.key() == engine._state.key()

    def test_scheduler_calibrator_records_identical(self):
        engine = loaded_engine(steps=400)
        restored = make_engine()
        restored.restore(engine.snapshot())
        assert restored.scheduler.state_dict() == engine.scheduler.state_dict()

    def test_rng_continuations_identical(self):
        kwargs = dict(stragglers=StragglerModel(incidence_per_hour=0.2, seed=9))
        engine = loaded_engine(steps=200, **kwargs)
        restored = make_engine(
            stragglers=StragglerModel(incidence_per_hour=0.2, seed=9)
        )
        restored.restore(engine.snapshot())
        assert (
            restored._straggler_rng.bit_generator.state
            == engine._straggler_rng.bit_generator.state
        )
        # And the streams actually continue identically.
        assert [restored._straggler_rng.random() for _ in range(8)] == [
            engine._straggler_rng.random() for _ in range(8)
        ]

    def test_restored_run_matches_uninterrupted(self):
        reference = make_engine().run()
        engine = loaded_engine()
        restored = make_engine()
        restored.restore(engine.snapshot())
        result = restored.run()
        assert [
            (rt.job_id, rt.finish_time, rt.iterations_done, rt.preemptions)
            for rt in reference.runtimes.values()
        ] == [
            (rt.job_id, rt.finish_time, rt.iterations_done, rt.preemptions)
            for rt in result.runtimes.values()
        ]
        assert reference.end_time == result.end_time

    def test_restored_run_counts_every_round_times_only_its_own(self):
        """The invocation count travels in the snapshot; the per-decision
        latencies are this process's measurements and do not."""
        reference = make_engine().run()
        engine = loaded_engine()
        before = engine.scheduling_invocations
        restored = make_engine()
        restored.restore(engine.snapshot())
        result = restored.run()
        assert result.scheduling_invocations == reference.scheduling_invocations
        assert len(result.decision_seconds) == result.scheduling_invocations - before
        assert 0 < before < result.scheduling_invocations


class TestWrappedSchedulerRestore:
    """A wrapping scheduler snapshots the scheduler it wraps plus its own
    state, and a replay snapshots where it stands in its decisions: a run
    restored at round 100 of the 14-job seed-1 scenario gives every
    output of the uninterrupted run."""

    @staticmethod
    def engine(scheduler) -> SimulationEngine:
        return SimulationEngine(
            cluster=simulated_cluster(),
            trace=generate_philly_trace(PhillyTraceConfig(num_jobs=14, seed=1)),
            scheduler=scheduler,
        )

    @pytest.mark.parametrize(
        "wrap", [ProfilingScheduler, RecordingScheduler], ids=["profiling", "recording"]
    )
    def test_restore_at_round_100_continues_the_run(self, wrap):
        uninterrupted = wrap(HadarScheduler())
        reference = self.engine(uninterrupted).run()
        engine = self.engine(wrap(HadarScheduler()))
        engine.start()
        while engine.scheduling_invocations < 100:
            assert engine.step()
        blob = SnapshotCodec().dumps(engine.snapshot())
        scheduler = wrap(HadarScheduler())
        restored = self.engine(scheduler)
        restored.restore(SnapshotCodec().loads(blob))
        assert outputs(restored.run()) == outputs(reference)
        if wrap is RecordingScheduler:
            assert scheduler.decisions == uninterrupted.decisions

    def test_replay_restore_at_round_100_continues_the_replay(self):
        """A strict replay of the recorded Hadar run, restored at round
        100, re-issues decision 100 next: no :class:`ReplayDiverged`, and
        the uninterrupted replay's outputs."""
        recording = RecordingScheduler(HadarScheduler())
        self.engine(recording).run()
        decisions = recording.decisions
        uninterrupted = ReplayScheduler(decisions)
        reference = self.engine(uninterrupted).run()
        engine = self.engine(ReplayScheduler(decisions))
        engine.start()
        while engine.scheduling_invocations < 100:
            assert engine.step()
        blob = SnapshotCodec().dumps(engine.snapshot())
        replay = ReplayScheduler(decisions)
        restored = self.engine(replay)
        restored.restore(SnapshotCodec().loads(blob))
        assert outputs(restored.run()) == outputs(reference)
        assert replay.state_dict() == uninterrupted.state_dict()


class TestSnapshotSize:
    def test_payload_flat_over_the_run(self):
        """On the 14-job seed-1 Hadar scenario with a registry attached,
        the snapshot at round 700 is within 10% of the one at round 100:
        nothing in it grows one entry per round."""
        engine = SimulationEngine(
            cluster=simulated_cluster(),
            trace=generate_philly_trace(PhillyTraceConfig(num_jobs=14, seed=1)),
            scheduler=HadarScheduler(),
            metrics=MetricsRegistry(),
        )
        engine.start()
        sizes = {}
        while engine.step() and len(sizes) < 2:
            rounds = engine.scheduling_invocations
            if rounds in (100, 700) and rounds not in sizes:
                sizes[rounds] = len(SnapshotCodec().dumps(engine.snapshot()))
        assert sizes[700] <= 1.1 * sizes[100]


class TestSnapshotMetrics:
    EVENT_OBSERVED = {
        "repro_decision_seconds",
        "repro_queue_wait_seconds",
        "repro_allocation_churn_total",
    }

    @staticmethod
    def attached():
        return dict(
            faults=FaultModel(node_mtbf_h=0.5, mttr_s=1800.0, seed=3),
            metrics=MetricsRegistry(),
        )

    @staticmethod
    def exposition(engine) -> dict:
        families = parse_exposition(render(engine.metrics))
        for name in WALL_CLOCK_FAMILIES:
            families.pop(name)
        return families

    def test_snapshot_holds_only_event_observed_families(self):
        engine = loaded_engine(steps=300, **self.attached())
        assert set(engine.snapshot().metrics) == self.EVENT_OBSERVED
        # The rest is derived when the registry is read.
        assert "repro_engine_rounds_total" in engine.metrics
        assert "repro_gpu_fragmentation_ratio" in engine.metrics

    def test_restored_engine_renders_the_uninterrupted_exposition(self):
        engine = loaded_engine(steps=150, **self.attached())
        restored = make_engine(**self.attached())
        restored.restore(SnapshotCodec().loads(SnapshotCodec().dumps(engine.snapshot())))
        assert self.exposition(restored) == self.exposition(engine)
        for _ in range(100):
            assert engine.step() == restored.step()
        assert self.exposition(restored) == self.exposition(engine)

    def test_restore_fallbacks_accumulate_across_restores(self):
        """Two corrupt snapshots skipped by one restore and one more by
        the next: the counter reads 3 at the end of the run."""
        engine = loaded_engine(steps=100, metrics=MetricsRegistry())
        engine.note_restore_fallbacks(2)
        rounds = engine.scheduling_invocations
        while engine.scheduling_invocations == rounds:
            engine.step()
        restored = make_engine(metrics=MetricsRegistry())
        restored.restore(SnapshotCodec().loads(SnapshotCodec().dumps(engine.snapshot())))
        restored.note_restore_fallbacks(1)
        series = restored.run().metrics["repro_snapshot_restore_fallbacks_total"]["series"]
        assert [record["value"] for record in series] == [3.0]


CANONICAL = dict(sort_keys=True, separators=(",", ":"))


def reference_dumps(state) -> str:
    """The snapshot document the plain way: the whole payload encoded for
    the checksum, and again inside the envelope (no cache, no splice)."""
    payload = state.to_payload()
    body = json.dumps(payload, **CANONICAL)
    envelope = {
        "format": SnapshotCodec.FORMAT,
        "version": SnapshotCodec.VERSION,
        "checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "state": payload,
    }
    return json.dumps(envelope, **CANONICAL)


class TestCodecEnvelope:
    def test_dumps_matches_two_pass_canonical_envelope(self):
        """The one-pass envelope is byte-identical to serializing the
        payload for the checksum and again inside the envelope."""
        engine = loaded_engine(steps=300, metrics=MetricsRegistry())
        state = engine.snapshot()
        assert SnapshotCodec().dumps(state) == reference_dumps(state)


SMALL_JOBS = dict(category_weights={"S": 1.0}, max_workers=4)


def chaos_mixed_engine(name: str) -> SimulationEngine:
    """Short jobs from a trace and a streamed source, interleaving, under
    every fault family, stragglers, the sanitizer and a registry."""
    return SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(
            PhillyTraceConfig(
                num_jobs=10, arrival_pattern="continuous", jobs_per_hour=6.0,
                seed=1, **SMALL_JOBS,
            )
        ),
        scheduler=make_scheduler(name),
        source=SubmissionSource(
            6.0, seed=2, max_jobs=8, first_job_id=100,
            template=PhillyTraceConfig(**SMALL_JOBS),
        ),
        faults=FaultModel(
            node_mtbf_h=2.0,
            gpu_mtbf_h=30.0,
            mttr_s=900.0,
            partition_mtbf_h=4.0,
            failure_domains=2,
            degraded_mtbf_h=3.0,
            storage_mtbf_h=6.0,
            storage_tiers=2,
            seed=5,
        ),
        stragglers=StragglerModel(incidence_per_hour=0.5, seed=5),
        sanitizer=InvariantSanitizer(mode="collect"),
        metrics=MetricsRegistry(),
        max_time=4 * 24 * 3600.0,  # bounds the fault schedule the heap holds
    )


class TestSplicedSnapshots:
    """``dumps`` splices cached fragments of what cannot change (COMPLETE
    jobs, job specs, settled history, the config); the
    bytes must equal the plain encoding of the same state."""

    EVERY = 7  # steps between snapshots

    @staticmethod
    def uncached_snapshot(engine):
        """The engine's state captured through an empty cache: every
        record and fragment built afresh from the engine."""
        cache = engine._snapshot_cache
        engine._snapshot_cache = SnapshotCache()
        try:
            return engine.snapshot()
        finally:
            engine._snapshot_cache = cache

    def snapshot_along(self, engine, states: list, steps=None) -> None:
        """Snapshot every ``EVERY`` steps; each snapshot's records and
        spliced text must equal a capture that reads no cached entry, so a
        stale entry fails even when its record and fragment agree."""
        taken = 0
        while (steps is None or taken < steps) and engine.step():
            taken += 1
            if taken % self.EVERY == 0:
                state = engine.snapshot()
                text = SnapshotCodec().dumps(state)
                fresh = self.uncached_snapshot(engine)
                assert state.jobs == [
                    rt.state_dict() for rt in engine._runtimes.values()
                ]
                assert text == reference_dumps(state) == reference_dumps(fresh)
                states.append((state, text))

    @pytest.mark.parametrize("name", ["hadar", "gavel", "tiresias"])
    def test_every_snapshot_equals_the_plain_encoding(self, name):
        """At every snapshot, before and after a mid-run restore; and no
        later step changes a snapshot already taken (the cached records
        it shares are never edited)."""
        states: list = []
        engine = chaos_mixed_engine(name)
        engine.start()
        self.snapshot_along(engine, states, steps=80)
        restored = chaos_mixed_engine(name)
        restored.restore(SnapshotCodec().loads(states[-1][1]))
        self.snapshot_along(restored, states)
        result = restored.stop()
        assert result.all_completed
        assert any(rt.rollbacks for rt in result.runtimes.values())
        assert any(rt.straggler_events for rt in result.runtimes.values())
        assert any(job_id >= 100 for job_id in result.runtimes)  # streamed
        assert len(states) > 20
        for state, text in states:
            assert reference_dumps(state) == text

    @pytest.mark.parametrize(
        "registry, size, sha256",
        [
            (False, 12_710,
             "5dff375f837ab7f1a6e480963543c700c3e10b3131dd360a34bda9d63e8dd2b2"),
            (True, 13_589,
             "fc3795b7ca8e72560360be99beb0675b709d4a9c4fb1ed323fb4ed24db3a3bec"),
        ],
        ids=["bare", "registry"],
    )
    def test_round_100_snapshot_bytes_are_pinned(self, monkeypatch, registry, size, sha256):
        """The 14-job seed-1 Hadar run's snapshot at round 100, with the
        wall clock pinned, is the document snapshot format 3 has always
        written for it.  Only its ``hotpath_stats`` counters have moved
        (``slot_reads`` and ``price_hits``, when carried certificates
        stopped syncing the slot book)."""
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        engine = SimulationEngine(
            cluster=simulated_cluster(),
            trace=generate_philly_trace(PhillyTraceConfig(num_jobs=14, seed=1)),
            scheduler=HadarScheduler(),
            metrics=MetricsRegistry() if registry else None,
        )
        engine.start()
        while engine.scheduling_invocations < 100:
            assert engine.step()
        blob = SnapshotCodec().dumps(engine.snapshot()).encode("utf-8")
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, sha256)


class TestSnapshotCache:
    def test_entries_hit_only_the_same_runtime_object(self):
        """A table rebuilt from records (what a restore does) never reads
        an entry cached for the runtime it replaced."""
        engine = loaded_engine(steps=400)
        cache = SnapshotCache()
        first = cache.capture_jobs(engine._runtimes)
        done = [r for r in first.value if r["state"] == "complete"]
        assert done
        rebuilt = {}
        for record in first.value:
            rt = JobRuntime.from_state_dict(record)
            if record["state"] == "complete":
                rt.finish_time += 1.0
            rebuilt[rt.job_id] = rt
        second = cache.capture_jobs(rebuilt)
        assert second.value == [rt.state_dict() for rt in rebuilt.values()]

    def test_a_replaced_field_is_encoded_plainly(self):
        """Cached fragments are spliced only into the fields the capture
        built; a field swapped out afterwards is encoded as it is."""
        state = loaded_engine(steps=400).snapshot()
        state.jobs = [dict(record, rate=-1.0) for record in state.jobs]
        assert SnapshotCodec().dumps(state) == reference_dumps(state)

    def test_an_unchanged_field_is_rebuilt_whenever_its_token_moves(self):
        """The cluster and telemetry fields are reused while their owner's
        token holds, and rebuilt from the owner when it moves: a fault
        rebinds the cluster's capacity map, an allocation moves its free
        vector, and every write to the telemetry series, but not a level
        it already holds, moves the recorder's revision."""
        cache = SnapshotCache()
        state = simulated_cluster().fresh_state()
        recorder = UtilizationRecorder()

        def capture():
            fields = (
                cache.capture_unchanged(
                    "cluster", state.snapshot_token(), state.state_dict
                ),
                cache.capture_unchanged(
                    "telemetry", (recorder, recorder.revision), recorder.state_dict
                ),
            )
            for field, value in zip(fields, (state.state_dict(), recorder.state_dict())):
                assert field.value == value
                assert _splice(_canonical(field.encoded), field.fragments) == (
                    _canonical(value)
                )
            return fields

        slot = state.slots[0]
        one = Allocation({slot: 1})
        steps = [
            lambda: None,
            lambda: state.allocate(one),
            lambda: state.release(one),
            lambda: state.fail(*slot, 1),
            lambda: state.restore(*slot, 1),
            lambda: recorder.record(0.0, {"V100": 1}),
            lambda: recorder.record(5.0, {"V100": 1}),  # the level it holds
            lambda: recorder.record(5.0, {"V100": 2}),
            lambda: recorder.record_queue(5.0, 3),
            lambda: recorder.record_queue(5.0, 3),  # same instant: a write
            lambda: recorder.load_state_dict(recorder.state_dict()),
        ]
        rebuilt = [(False, False), (True, False), (True, False), (True, False),
                   (True, False), (False, True), (False, False), (False, True),
                   (False, True), (False, True), (False, True)]
        last = capture()
        for step, (cluster_moved, telemetry_moved) in zip(steps, rebuilt):
            step()
            now = capture()
            assert (now[0].value is not last[0].value) == cluster_moved
            assert (now[1].value is not last[1].value) == telemetry_moved
            last = now

    def test_run_and_restore_start_with_an_empty_cache(self):
        engine = make_engine()
        engine.start()
        while engine.step():
            engine.snapshot()
        engine.stop()
        assert engine._snapshot_cache.complete
        engine.run()  # a re-run rebuilds the table
        cache = engine._snapshot_cache
        assert not cache.complete and not cache.live and cache.config is None
        assert not cache.unchanged
        restored = make_engine()
        restored.restore(loaded_engine(steps=300).snapshot())
        assert not restored._snapshot_cache.complete


class TestCodecRejection:
    def blob(self):
        return SnapshotCodec().dumps(loaded_engine().snapshot())

    def test_version_mismatch_rejected(self):
        envelope = json.loads(self.blob())
        envelope["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            SnapshotCodec().loads(json.dumps(envelope))

    def test_truncated_snapshot_rejected(self):
        blob = self.blob()
        with pytest.raises(SnapshotError, match="truncated|corrupt"):
            SnapshotCodec().loads(blob[: len(blob) // 2])

    def test_corrupted_state_rejected_by_checksum(self):
        envelope = json.loads(self.blob())
        envelope["state"]["lifecycle"]["completed"] += 1
        with pytest.raises(SnapshotError, match="checksum"):
            SnapshotCodec().loads(json.dumps(envelope))

    def test_wrong_format_rejected(self):
        with pytest.raises(SnapshotError, match="not a repro engine snapshot"):
            SnapshotCodec().loads(json.dumps({"format": "something-else"}))

    def test_missing_field_rejected(self):
        envelope = json.loads(self.blob())
        del envelope["state"]["events"]
        body = json.dumps(
            envelope["state"], sort_keys=True, separators=(",", ":")
        )
        import hashlib

        envelope["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(SnapshotError, match="missing field"):
            SnapshotCodec().loads(json.dumps(envelope))

    def test_config_mismatch_rejected(self):
        from repro.baselines import GavelScheduler

        state = loaded_engine().snapshot()
        other = make_engine(scheduler=GavelScheduler())
        with pytest.raises(SnapshotError, match="differently configured"):
            other.restore(state)

    def test_save_load_file_round_trip(self, tmp_path):
        codec = SnapshotCodec()
        state = loaded_engine().snapshot()
        path = codec.save(state, tmp_path / "a.snapshot.json")
        assert codec.dumps(codec.load(path)) == codec.dumps(state)
        assert SnapshotCodec.latest(tmp_path) == path


class TestSnapshotChain:
    """The durable snapshot chain: atomic writes, retention, and the
    restore walk past corrupt members."""

    def chain_of(self, tmp_path, count: int = 3) -> list:
        codec = SnapshotCodec()
        engine = make_engine()
        engine.start()
        paths = []
        for i in range(count):
            for _ in range(40):
                if not engine.step():
                    break
            paths.append(
                codec.save(engine.snapshot(), tmp_path / f"{i:06d}.snapshot.json")
            )
        engine.stop()
        return paths

    def test_save_leaves_no_temp_files(self, tmp_path):
        self.chain_of(tmp_path, count=2)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_chain_is_newest_first(self, tmp_path):
        paths = self.chain_of(tmp_path, count=3)
        assert SnapshotCodec.chain(tmp_path) == list(reversed(paths))
        assert SnapshotCodec.chain(tmp_path / "missing") == []

    def test_prune_keeps_last_k(self, tmp_path):
        paths = self.chain_of(tmp_path, count=4)
        removed = SnapshotCodec.prune(tmp_path, keep=2)
        assert removed == list(reversed(paths))[2:]
        assert SnapshotCodec.chain(tmp_path) == list(reversed(paths))[:2]

    def test_prune_zero_keeps_everything(self, tmp_path):
        paths = self.chain_of(tmp_path, count=3)
        assert SnapshotCodec.prune(tmp_path, keep=0) == []
        assert len(SnapshotCodec.chain(tmp_path)) == len(paths)

    def test_restore_walks_past_corrupt_newest(self, tmp_path):
        """A half-written newest member (the kill-mid-write case) must
        not strand the chain: the next-newest restores cleanly."""
        paths = self.chain_of(tmp_path, count=3)
        newest = paths[-1]
        newest.write_text(newest.read_text()[: 100], encoding="utf-8")
        codec = SnapshotCodec()
        restored = None
        skipped = 0
        for candidate in SnapshotCodec.chain(tmp_path):
            try:
                restored = codec.load(candidate)
                break
            except SnapshotError:
                skipped += 1
        assert skipped == 1 and restored is not None
        engine = make_engine()
        engine.restore(restored)
        assert engine.run().completed  # resumes and finishes the workload


class TestSubmissionSource:
    def drain(self, source):
        jobs = []
        while True:
            job = source.next_job()
            if job is None:
                break
            jobs.append(job)
        return jobs

    def spec(self, job):
        return (
            job.job_id,
            job.arrival_time,
            job.model.name,
            job.num_workers,
            job.epochs,
        )

    def test_same_seed_same_stream(self):
        a = self.drain(SubmissionSource(40.0, seed=7, max_jobs=20))
        b = self.drain(SubmissionSource(40.0, seed=7, max_jobs=20))
        assert [self.spec(j) for j in a] == [self.spec(j) for j in b]

    def test_different_seed_different_stream(self):
        a = self.drain(SubmissionSource(40.0, seed=7, max_jobs=20))
        b = self.drain(SubmissionSource(40.0, seed=8, max_jobs=20))
        assert [self.spec(j) for j in a] != [self.spec(j) for j in b]

    def test_arrivals_strictly_increase(self):
        jobs = self.drain(SubmissionSource(40.0, seed=1, max_jobs=50))
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_resume_continues_exact_stream(self):
        full = SubmissionSource(40.0, seed=3, max_jobs=30)
        first = [full.next_job() for _ in range(15)]
        state = full.state_dict()
        rest = [full.next_job() for _ in range(15)]

        resumed = SubmissionSource(40.0, seed=3, max_jobs=30)
        resumed.load_state_dict(state)
        continued = [resumed.next_job() for _ in range(15)]
        assert [self.spec(j) for j in continued] == [self.spec(j) for j in rest]
        assert resumed.exhausted
        assert first[-1].job_id + 1 == continued[0].job_id

    def test_engine_completes_streamed_jobs(self):
        source = SubmissionSource(60.0, seed=2, max_jobs=6, first_job_id=100)
        result = simulate(
            simulated_cluster(),
            make_trace(1, num_jobs=4),
            HadarScheduler(),
            round_length=300.0,
            max_time=60 * 24 * 3600.0,
            source=source,
        )
        assert len(result.runtimes) == 10
        assert {100, 101, 102, 103, 104, 105} <= set(result.runtimes)
        assert not result.truncated
        assert all(rt.finish_time is not None for rt in result.runtimes.values())

    def test_streamed_only_run_without_trace(self):
        source = SubmissionSource(60.0, seed=5, max_jobs=5)
        result = simulate(
            simulated_cluster(),
            Trace(jobs=()),
            HadarScheduler(),
            round_length=300.0,
            max_time=60 * 24 * 3600.0,
            source=source,
        )
        assert len(result.completed) == 5

    def test_id_collision_with_trace_rejected(self):
        source = SubmissionSource(60.0, seed=2, max_jobs=1, first_job_id=0)
        engine = make_engine(source=source)
        with pytest.raises(ValueError, match="collides"):
            engine.start()

    @staticmethod
    def observed():
        """Faults and a registry (with it the health phase) attached."""
        return dict(
            faults=FaultModel(
                node_mtbf_h=12.0,
                mttr_s=900.0,
                degraded_mtbf_h=8.0,
                degraded_factor=0.6,
                degraded_duration_s=1800.0,
                seed=2,
            ),
            metrics=MetricsRegistry(),
        )

    def test_snapshot_mid_stream_restores_pending_submission(self):
        """Bare, and with faults and a registry attached, the restored
        streamed run equals the uninterrupted one in every output —
        runtimes, telemetry, metric families (the health gauges
        included), fault totals, counters — wall-clock measurements
        aside."""
        for attach in (dict, self.observed):

            def build():
                return make_engine(
                    source=SubmissionSource(
                        60.0, seed=2, max_jobs=8, first_job_id=100
                    ),
                    **attach(),
                )

            engine = build()
            engine.start()
            for _ in range(40):
                engine.step()
            assert engine._pending_submission is not None or engine.source.exhausted
            blob = SnapshotCodec().dumps(engine.snapshot())
            restored = build()
            restored.restore(SnapshotCodec().loads(blob))
            assert SnapshotCodec().dumps(capture_engine_state(restored)) == blob
            assert outputs(restored.run()) == outputs(build().run())
