"""The DecisionTracer: streaming emission, validation at the source,
and the placement renderer."""

import json

import pytest

from repro.cluster.allocation import Allocation
from repro.obs import (
    DecisionTracer,
    SchemaError,
    load_trace,
    load_trace_set,
    read_trace,
    read_trace_set,
    trace_part_paths,
)
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.obs.tracer import placements_list

from tests.obs.test_schema import meta, round_record


class TestEmission:
    def test_stamps_schema_version(self):
        sink = []
        tracer = DecisionTracer(sink=sink)
        record = meta()
        del record["schema"]
        tracer.emit(record)
        assert sink[0]["schema"] == TRACE_SCHEMA_VERSION
        assert tracer.records_emitted == 1

    def test_validates_on_emit(self):
        tracer = DecisionTracer(sink=[])
        with pytest.raises(SchemaError):
            tracer.emit({"kind": "bogus"})

    def test_path_and_sink_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            DecisionTracer(tmp_path / "t.jsonl", sink=[])

    def test_no_destination_raises_on_emit(self):
        with pytest.raises(ValueError, match="neither"):
            DecisionTracer().emit(meta())


class TestFileRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        with DecisionTracer(path) as tracer:
            tracer.emit(meta())
            tracer.emit(round_record())
        records = load_trace(path)
        assert [r["kind"] for r in records] == ["meta", "round"]
        # One compact JSON object per line.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_read_trace_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="trace.jsonl:2"):
            list(read_trace(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta"}\n\n{"kind": "summary"}\n')
        assert len(load_trace(path)) == 2


class TestRotation:
    def emit_n(self, tracer, n):
        for _ in range(n):
            tracer.emit(round_record())

    def test_parts_written_and_read_back_as_one_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # A round record is a few hundred bytes; 1 KiB forces rotation
        # after every couple of emits.
        with DecisionTracer(path, rotate_mb=1 / 1024) as tracer:
            self.emit_n(tracer, 20)
            assert tracer.parts_rotated > 0
            assert tracer.records_emitted == 20
        parts = trace_part_paths(path)
        assert len(parts) == tracer.parts_rotated
        assert [p.name for p in parts] == sorted(p.name for p in parts)
        assert path.exists()  # the live tail file stays at the base path
        records = load_trace_set(path)
        assert len(records) == 20
        assert all(r["kind"] == "round" for r in records)

    def test_read_trace_set_without_parts_reads_plain_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with DecisionTracer(path) as tracer:
            tracer.emit(meta())
        assert [r["kind"] for r in load_trace_set(path)] == ["meta"]

    def test_read_trace_set_missing_everything_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_trace_set(tmp_path / "absent.jsonl"))

    def test_fresh_run_clears_stale_parts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        stale = tmp_path / "trace.jsonl.part-000000"
        stale.write_text('{"kind": "round"}\n')
        with DecisionTracer(path) as tracer:
            tracer.emit(meta())
        assert not stale.exists()
        assert [r["kind"] for r in load_trace_set(path)] == ["meta"]

    def test_rotate_requires_path_destination(self):
        with pytest.raises(ValueError, match="path"):
            DecisionTracer(sink=[], rotate_mb=1.0)

    def test_rotate_mb_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            DecisionTracer(tmp_path / "t.jsonl", rotate_mb=0)


class TestPlacementsList:
    def test_allocation_rendered_sorted(self):
        alloc = Allocation({(1, "K80"): 1, (0, "V100"): 2})
        assert placements_list(alloc) == [[0, "V100", 2], [1, "K80", 1]]

    def test_plain_mapping_and_empty(self):
        assert placements_list({(0, "V100"): 4}) == [[0, "V100", 4]]
        assert placements_list(None) == []
        assert placements_list(Allocation({})) == []
