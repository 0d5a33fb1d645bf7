"""The live observability endpoint: scrapes, health, status, byte-parity.

Starts real :class:`ObservabilityServer` instances on ephemeral ports
(``port=0``) and exercises them over HTTP, including a scrape hammering
``/metrics`` from a thread while the engine steps — the registry lock
must keep every scrape parseable and lint-clean — and a golden-parity
run proving the attached server changes no scheduling decision.
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cluster.cluster import simulated_cluster
from repro.obs import (
    MetricsRegistry,
    ObservabilityServer,
    lint_exposition,
    parse_exposition,
    parse_listen,
)
from repro.obs.watch import metric_value, render_sample, take_sample
from repro.sim.engine import SimulationEngine
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

from tests.core._hotpath_fingerprint import (
    SEEDS,
    digest,
    fingerprint,
    make_scheduler,
    run_scenario,
)

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "core" / "golden_hotpath.json").read_text()
)


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture
def server():
    srv = ObservabilityServer(MetricsRegistry())
    srv.start()
    yield srv
    srv.stop()


class TestParseListen:
    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:9418") == ("0.0.0.0", 9418)

    def test_bare_port_binds_localhost(self):
        assert parse_listen(":9000") == ("127.0.0.1", 9000)

    def test_bare_host_gets_default_port(self):
        from repro.obs.server import DEFAULT_PORT

        assert parse_listen("example.com") == ("example.com", DEFAULT_PORT)

    @pytest.mark.parametrize("spec", ["", "host:notaport", "host:70000"])
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_listen(spec)


class TestEndpoints:
    def test_healthz_always_ok(self, server):
        code, body = get(f"{server.url}/healthz")
        assert code == 200 and body == "ok\n"

    def test_readyz_transitions(self, server):
        assert get(f"{server.url}/readyz")[0] == 503
        server.set_ready(True)
        assert get(f"{server.url}/readyz")[0] == 200
        server.set_ready(False)
        assert get(f"{server.url}/readyz")[0] == 503

    def test_metrics_content_type_and_lint(self, server):
        server.registry.counter("repro_rounds_total", "Rounds").inc(3)
        with urllib.request.urlopen(f"{server.url}/metrics") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode("utf-8")
        assert lint_exposition(text) == []
        families = parse_exposition(text)
        assert families["repro_rounds_total"]["samples"][0][2] == 3.0

    def test_status_merges_status_fn_and_server_facts(self):
        srv = ObservabilityServer(
            MetricsRegistry(), status_fn=lambda: {"round": 7}
        )
        srv.start()
        try:
            payload = json.loads(get(f"{srv.url}/status")[1])
            assert payload["round"] == 7
            assert payload["ready"] is False
            assert payload["newest_snapshot"] is None
            srv.note_snapshot("/tmp/tick-1.snapshot.json")
            payload = json.loads(get(f"{srv.url}/status")[1])
            assert payload["newest_snapshot"] == "/tmp/tick-1.snapshot.json"
            assert payload["newest_snapshot_age_s"] >= 0.0
        finally:
            srv.stop()

    def test_unknown_path_404s(self, server):
        assert get(f"{server.url}/nope")[0] == 404

    def test_stop_is_idempotent(self):
        srv = ObservabilityServer(MetricsRegistry())
        srv.start()
        srv.stop()
        srv.stop()
        assert not srv.running


def build_engine(seed=1, num_jobs=10, **kwargs):
    return SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(
            PhillyTraceConfig(num_jobs=num_jobs, seed=seed)
        ),
        scheduler=make_scheduler("hadar"),
        **kwargs,
    )


class TestLiveEngine:
    def test_concurrent_scrapes_during_stepping(self):
        """Hammer /metrics from a thread while the engine steps; every
        scrape must parse and lint clean (the lock forbids torn rounds)."""
        metrics = MetricsRegistry()
        engine = build_engine(metrics=metrics)
        srv = ObservabilityServer(metrics, status_fn=engine.status)
        srv.start()
        stop = threading.Event()
        problems: list[str] = []
        scrapes = {"n": 0}

        def scrape_loop():
            while not stop.is_set():
                code, text = get(f"{srv.url}/metrics")
                assert code == 200
                problems.extend(lint_exposition(text))
                scrapes["n"] += 1

        thread = threading.Thread(target=scrape_loop)
        thread.start()
        try:
            engine.start()
            while engine.step():
                pass
            result = engine.stop()
        finally:
            stop.set()
            thread.join(timeout=10.0)
            srv.stop()
        assert problems == []
        assert scrapes["n"] > 0
        assert result.metrics  # registry snapshot still lands in the result

    def test_status_endpoint_tracks_engine(self):
        metrics = MetricsRegistry()
        engine = build_engine(metrics=metrics)
        srv = ObservabilityServer(metrics, status_fn=engine.status)
        srv.start()
        try:
            before = json.loads(get(f"{srv.url}/status")[1])
            assert before["lifecycle"] == "created" and before["round"] == 0
            engine.start()
            while engine.step():
                pass
            engine.stop()
            after = json.loads(get(f"{srv.url}/status")[1])
            assert after["lifecycle"] == "stopped"
            assert after["round"] == engine.scheduling_invocations > 0
            assert after["jobs_completed"] == 10
        finally:
            srv.stop()

    def test_watch_sample_against_live_endpoint(self):
        metrics = MetricsRegistry()
        engine = build_engine(metrics=metrics)
        srv = ObservabilityServer(metrics, status_fn=engine.status)
        srv.start()
        try:
            engine.start()
            while engine.step():
                pass
            engine.stop()
            sample = take_sample(srv.url)
            assert sample["status"]["jobs_completed"] == 10
            assert sample["utilization"]  # per-type gauges made it across
            rendered = render_sample(sample)
            assert "lifecycle : stopped" in rendered
            assert "jobs      : 10/10 done" in rendered
        finally:
            srv.stop()

    def test_metric_value_helper(self):
        families = {
            "repro_a": {
                "type": "gauge",
                "help": "",
                "samples": [("repro_a", {"kind": "x"}, 4.0)],
            }
        }
        assert metric_value(families, "repro_a", {"kind": "x"}) == 4.0
        assert metric_value(families, "repro_a", {"kind": "y"}) is None
        assert metric_value(families, "repro_missing") is None


class TestGoldenParityWithServer:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attached_server_preserves_schedules(self, seed):
        """Live metrics + a concurrently scraping server must not
        change one scheduling decision vs the recorded goldens."""
        metrics = MetricsRegistry()
        srv = ObservabilityServer(metrics)
        srv.start()
        stop = threading.Event()

        def scrape_loop():
            while not stop.is_set():
                get(f"{srv.url}/metrics")

        thread = threading.Thread(target=scrape_loop)
        thread.start()
        try:
            result = run_scenario(
                "hadar", seed, engine_kwargs={"metrics": metrics}
            )
        finally:
            stop.set()
            thread.join(timeout=10.0)
            srv.stop()
        golden = GOLDEN[f"hadar/{seed}"]
        assert digest(fingerprint(result)) == golden["sha256"], (
            f"hadar/seed={seed}: the exposition server perturbed the schedule"
        )
        assert repr(result.makespan()) == golden["makespan"]
