"""Unit tests for decision recording and replay."""

import pytest

from repro.baselines.yarn import YarnCapacityScheduler
from repro.cluster.allocation import Allocation
from repro.core import HadarScheduler
from repro.faults import FaultModel
from repro.sim.checkpoint import NoOverheadCheckpoint
from repro.sim.engine import simulate
from repro.sim.replay import (
    RecordingScheduler,
    ReplayDiverged,
    ReplayScheduler,
    load_decisions,
    save_decisions,
)


class TestRecordReplay:
    def test_replay_is_decision_identical(self, no_comm_cluster, matrix, philly_trace_small):
        rec = RecordingScheduler(HadarScheduler())
        original = simulate(no_comm_cluster, philly_trace_small, rec, matrix=matrix)
        replay = simulate(
            no_comm_cluster, philly_trace_small,
            ReplayScheduler(rec.decisions), matrix=matrix,
        )
        assert replay.jcts() == original.jcts()
        assert replay.makespan() == original.makespan()

    def test_recording_preserves_contract(self):
        rec = RecordingScheduler(YarnCapacityScheduler())
        assert rec.round_based is False
        assert rec.reacts_to_events is True
        assert rec.name == "yarn-cs+recording"

    def test_event_driven_replay(self, no_comm_cluster, matrix, tiny_trace):
        rec = RecordingScheduler(YarnCapacityScheduler())
        original = simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix,
                            checkpoint=NoOverheadCheckpoint())
        replay = simulate(
            no_comm_cluster, tiny_trace,
            ReplayScheduler(rec.decisions, round_based=False, reacts_to_events=True),
            matrix=matrix, checkpoint=NoOverheadCheckpoint(),
        )
        assert replay.jcts() == original.jcts()

    def test_exhausted_replay_keeps_world(self, no_comm_cluster, matrix, tiny_trace):
        """Running out of recorded decisions freezes placements instead of
        crashing; the run is truncated but consistent."""
        rec = RecordingScheduler(HadarScheduler())
        simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        # Replay only the first decision; everything after keeps state.
        replay_sched = ReplayScheduler(rec.decisions[:1])
        result = simulate(no_comm_cluster, tiny_trace, replay_sched, matrix=matrix)
        assert replay_sched.exhausted
        assert len(result.completed) >= 1  # the initially placed jobs finish

    def test_reset_rewinds_cursor(self, no_comm_cluster, matrix, tiny_trace):
        rec = RecordingScheduler(HadarScheduler())
        simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        replayer = ReplayScheduler(rec.decisions)
        a = simulate(no_comm_cluster, tiny_trace, replayer, matrix=matrix)
        b = simulate(no_comm_cluster, tiny_trace, replayer, matrix=matrix)
        assert a.jcts() == b.jcts()

    def test_recording_reset_clears(self):
        rec = RecordingScheduler(HadarScheduler())
        rec.decisions.append({})
        rec.reset()
        assert rec.decisions == []


class TestDivergence:
    """Replaying into a world the recording no longer matches."""

    def test_unknown_job_raises_typed_error(self, no_comm_cluster, matrix,
                                            tiny_trace):
        rec = RecordingScheduler(HadarScheduler())
        simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        doctored = [dict(d) for d in rec.decisions]
        doctored[0][99] = Allocation.single(0, "V100", 1)
        with pytest.raises(ReplayDiverged, match="job 99") as exc_info:
            simulate(no_comm_cluster, tiny_trace, ReplayScheduler(doctored),
                     matrix=matrix)
        assert exc_info.value.reason == "unknown_job"
        assert exc_info.value.job_id == 99
        assert exc_info.value.invocation == 0

    def test_unknown_slot_raises(self, no_comm_cluster, matrix, tiny_trace):
        rec = RecordingScheduler(HadarScheduler())
        simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        doctored = [dict(d) for d in rec.decisions]
        victim = next(iter(doctored[0]))
        doctored[0][victim] = Allocation.single(42, "V100", 1)
        with pytest.raises(ReplayDiverged) as exc_info:
            simulate(no_comm_cluster, tiny_trace, ReplayScheduler(doctored),
                     matrix=matrix)
        assert exc_info.value.reason == "unknown_slot"

    def test_non_strict_skips_and_reports(self, no_comm_cluster, matrix,
                                          tiny_trace):
        rec = RecordingScheduler(HadarScheduler())
        original = simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        doctored = [dict(d) for d in rec.decisions]
        doctored[0][99] = Allocation.single(0, "V100", 1)
        replayer = ReplayScheduler(doctored, strict=False)
        result = simulate(no_comm_cluster, tiny_trace, replayer, matrix=matrix)
        assert [d["reason"] for d in replayer.divergences] == ["unknown_job"]
        assert replayer.divergences[0]["job_id"] == 99
        # The surviving entries still replay: the run matches the original.
        assert result.jcts() == original.jcts()

    def test_capacity_divergence_under_faults(self, no_comm_cluster, matrix,
                                              philly_trace_small):
        """A fault-free recording replayed into a fault-injected world skips
        the gangs that no longer fit instead of corrupting state.

        Evicted jobs are never re-placed once the recording runs out, so
        the run is capped at twice the recorded span: every recorded
        entry is replayed (and could diverge) well before the cap.
        """
        rec = RecordingScheduler(HadarScheduler())
        original = simulate(no_comm_cluster, philly_trace_small, rec, matrix=matrix)
        replayer = ReplayScheduler(rec.decisions, strict=False)
        result = simulate(
            no_comm_cluster, philly_trace_small, replayer, matrix=matrix,
            faults=FaultModel(node_mtbf_h=0.2, mttr_s=1800.0, seed=3),
            max_time=2 * original.end_time,
        )
        assert replayer.exhausted
        assert replayer.divergences, "heavy faults must break some replayed gang"
        assert all(
            d["reason"] in ("unknown_job", "unknown_slot", "capacity")
            for d in replayer.divergences
        )
        assert result.end_time > 0

    def test_reset_clears_divergences(self):
        replayer = ReplayScheduler([], strict=False)
        replayer.divergences.append({"invocation": 0})
        replayer.reset()
        assert replayer.divergences == []


class TestPersistence:
    def test_save_load_roundtrip(self, no_comm_cluster, matrix, tiny_trace, tmp_path):
        rec = RecordingScheduler(HadarScheduler())
        original = simulate(no_comm_cluster, tiny_trace, rec, matrix=matrix)
        path = tmp_path / "decisions.jsonl"
        save_decisions(rec.decisions, path)
        loaded = load_decisions(path)
        assert loaded == rec.decisions
        replay = simulate(no_comm_cluster, tiny_trace, ReplayScheduler(loaded),
                          matrix=matrix)
        assert replay.jcts() == original.jcts()
