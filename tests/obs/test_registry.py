"""Unit tests for the dependency-free metrics registry."""

import json

import pytest

from repro.obs import (
    ALLOWED_LABEL_NAMES,
    Counter,
    Gauge,
    Histogram,
    MetricLabelError,
    MetricNameError,
    MetricsRegistry,
    render,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("repro_things_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)

    def test_labeled_series_are_independent(self):
        c = Counter("repro_things_total")
        c.inc(1, labels={"scheduler": "hadar"})
        c.inc(4, labels={"scheduler": "gavel"})
        assert c.value(labels={"scheduler": "hadar"}) == 1
        assert c.value(labels={"scheduler": "gavel"}) == 4
        assert c.value() == 0  # the unlabeled series is its own series

    def test_label_order_is_canonical(self):
        c = Counter("repro_things_total")
        c.inc(1, labels={"a": "1", "b": "2"})
        c.inc(1, labels={"b": "2", "a": "1"})
        assert c.value(labels={"a": "1", "b": "2"}) == 2
        assert len(c.series()) == 1

    def test_negative_increment_rejected(self):
        c = Counter("repro_things_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)


class TestGauge:
    def test_set_overwrites_and_inc_moves_both_ways(self):
        g = Gauge("repro_queue_depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2
        g.inc(-3)
        assert g.value() == -1


class TestHistogram:
    def test_bucket_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("repro_x_seconds", buckets=(0.1, 0.1, 1.0))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("repro_x_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("repro_x_seconds", buckets=())

    def test_valid_increasing_bounds_accepted(self):
        # Regression guard: the bounds check must not fire on a perfectly
        # increasing sequence.
        Histogram("repro_x_seconds", buckets=(0.001, 0.01, 0.1, 1.0))

    def test_cumulative_rendering_with_inf_bucket(self):
        h = Histogram("repro_x_seconds", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        (series,) = h.series()
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(106.2)
        assert series["min"] == pytest.approx(0.5)
        assert series["max"] == pytest.approx(100.0)
        assert series["buckets"] == [
            {"le": 1.0, "count": 2},
            {"le": 10.0, "count": 3},
            {"le": "+Inf", "count": 4},
        ]

    def test_count_and_empty_series(self):
        h = Histogram("repro_x_seconds", buckets=(1.0,))
        assert h.count() == 0
        h.observe(0.2, labels={"phase": "decision"})
        assert h.count(labels={"phase": "decision"}) == 1
        assert h.count() == 0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_rounds_total", help="rounds")
        b = reg.counter("repro_rounds_total")
        assert a is b
        assert a.help == "rounds"

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x_total")

    def test_count_all_bridges_counter_dicts(self):
        reg = MetricsRegistry()
        reg.count_all(
            "repro_hotpath",
            {"find_alloc_calls": 7, "cache_hits": 3},
            labels={"scheduler": "hadar"},
        )
        metric = reg.get("repro_hotpath_total")
        assert metric.value(
            labels={"counter": "find_alloc_calls", "scheduler": "hadar"}
        ) == 7
        assert metric.value(
            labels={"counter": "cache_hits", "scheduler": "hadar"}
        ) == 3

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc()
        reg.gauge("repro_b").set(1.5, labels={"phase": "decision"})
        reg.histogram("repro_c_seconds", buckets=(1.0,)).observe(0.3)
        snap = json.loads(reg.to_json())
        assert set(snap) == {"repro_a_total", "repro_b", "repro_c_seconds"}
        assert snap["repro_a_total"]["type"] == "counter"
        assert snap["repro_b"]["type"] == "gauge"
        assert snap["repro_c_seconds"]["type"] == "histogram"

    def test_container_protocol(self):
        reg = MetricsRegistry()
        assert len(reg) == 0 and "repro_a_total" not in reg
        reg.counter("repro_a_total")
        assert len(reg) == 1 and "repro_a_total" in reg
        assert reg.names() == ["repro_a_total"]


class TestAdvanceTo:
    def test_tops_up_to_target_idempotently(self):
        c = Counter("repro_faults_total")
        c.advance_to(5, labels={"kind": "node"})
        c.advance_to(5, labels={"kind": "node"})
        assert c.value(labels={"kind": "node"}) == 5

    def test_never_moves_backwards(self):
        c = Counter("repro_faults_total")
        c.advance_to(5)
        c.advance_to(3)
        assert c.value() == 5

    def test_count_all_republishing_does_not_double_count(self):
        # The hotpath stats are cumulative: publishing the same dict
        # again must converge, not accumulate.
        reg = MetricsRegistry()
        stats = {"find_alloc_calls": 7, "cache_hits": 3}
        for _ in range(3):
            reg.count_all("repro_hotpath", stats, labels={"scheduler": "hadar"})
        metric = reg.get("repro_hotpath_total")
        assert metric.value(
            labels={"counter": "find_alloc_calls", "scheduler": "hadar"}
        ) == 7


class TestCollectors:
    def test_reads_include_collected_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc()
        reg.add_collector(lambda fresh: fresh.gauge("repro_b").set(3.0))
        assert len(reg) == 2 and "repro_b" in reg
        assert reg.names() == ["repro_a_total", "repro_b"]
        assert [m.name for m in reg.families()] == reg.names()
        assert reg.get("repro_b").value() == 3.0
        assert reg.snapshot()["repro_b"]["series"] == [{"labels": {}, "value": 3.0}]
        assert "repro_b 3\n" in render(reg)

    def test_collected_families_are_derived_on_each_read(self):
        reg = MetricsRegistry()
        depth = [1]
        reg.add_collector(lambda fresh: fresh.gauge("repro_b").set(depth[0]))
        first = reg.get("repro_b")
        depth[0] = 5
        assert reg.get("repro_b").value() == 5.0
        assert first.value() == 1.0  # each read builds its own families

    def test_state_dict_covers_stored_families_only(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc(2)
        reg.add_collector(lambda fresh: fresh.gauge("repro_b").set(1.0))
        assert set(reg.state_dict()) == {"repro_a_total"}
        other = MetricsRegistry()
        other.load_state_dict(reg.state_dict())
        assert other.names() == ["repro_a_total"]

    def test_name_clash_with_a_stored_family_raises(self):
        reg = MetricsRegistry()
        reg.gauge("repro_b").set(1.0)
        reg.add_collector(lambda fresh: fresh.gauge("repro_b").set(2.0))
        with pytest.raises(ValueError, match="repro_b"):
            reg.names()

    def test_adding_the_same_collector_again_is_a_no_op(self):
        class Owner:
            calls = 0

            def collect(self, fresh):
                self.calls += 1
                fresh.counter("repro_a_total").inc()

        reg, owner = MetricsRegistry(), Owner()
        reg.add_collector(owner.collect)
        reg.add_collector(owner.collect)
        assert reg.get("repro_a_total").value() == 1.0
        assert owner.calls == 1


class TestNameAndLabelValidation:
    def test_bad_metric_name_rejected_at_registration(self):
        with pytest.raises(MetricNameError):
            MetricsRegistry().gauge("Bad-Name")

    def test_missing_repro_prefix_rejected(self):
        with pytest.raises(MetricNameError):
            MetricsRegistry().counter("rounds_total")

    def test_counter_requires_total_suffix(self):
        with pytest.raises(MetricNameError):
            MetricsRegistry().counter("repro_rounds")

    def test_gauge_must_not_end_in_total(self):
        with pytest.raises(MetricNameError):
            MetricsRegistry().gauge("repro_depth_total")

    def test_histogram_requires_unit_suffix(self):
        with pytest.raises(MetricNameError):
            MetricsRegistry().histogram("repro_latency", buckets=(1.0,))

    def test_unknown_label_name_rejected_at_write(self):
        c = MetricsRegistry().counter("repro_rounds_total")
        with pytest.raises(MetricLabelError, match="surprise"):
            c.inc(labels={"surprise": "x"})

    def test_allowlist_contents_are_the_documented_dimensions(self):
        assert {"scheduler", "gpu_type", "kind", "phase"} <= ALLOWED_LABEL_NAMES
