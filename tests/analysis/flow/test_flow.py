"""The flow analyzer: each pass fails its committed fixture, the
shipped tree is flow-clean with no baseline, SARIF validates, the
facts cache hits warm, and the CLI exit codes hold."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.flow import (
    DEFAULT_CONFIG,
    FactsCache,
    analyze_paths,
    to_sarif,
)
from repro.analysis.flow.runner import main as flow_main
from repro.analysis import __main__ as analysis_main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REPO_ROOT = HERE.parents[2]

TAINT_FIXTURE = FIXTURES / "taint_scheduler.py"
MEMO_FIXTURE = FIXTURES / "find_alloc.py"
PURITY_FIXTURE = FIXTURES / "phases.py"
SNAPSHOT_FIXTURE = FIXTURES / "arrivals.py"


def rules_of(report):
    return sorted({f.rule for f in report.findings})


class TestTaintPass:
    """REP009: nondeterminism sources tracked to decision sinks."""

    def test_fixture_fails(self):
        report = analyze_paths([TAINT_FIXTURE], rules=("REP009",))
        assert rules_of(report) == ["REP009"]
        (finding,) = report.findings
        assert "wallclock" in finding.message
        assert "time.time()" in finding.message
        assert "schedule" in finding.message

    def test_source_suppression_kills_taint(self, tmp_path):
        source = TAINT_FIXTURE.read_text(encoding="utf-8").replace(
            "disable=REP002", "disable=REP002,REP009"
        )
        copy = tmp_path / "taint_scheduler.py"
        copy.write_text(source, encoding="utf-8")
        report = analyze_paths([copy], rules=("REP009",))
        assert report.findings == []


class TestMemoPass:
    """REP010: memoized reads must stay within the key's capture."""

    def test_fixture_fails(self):
        report = analyze_paths([MEMO_FIXTURE], rules=("REP010",))
        assert rules_of(report) == ["REP010"]
        messages = "\n".join(f.message for f in report.findings)
        assert "state.running_jobs" in messages
        assert "_generate_candidates" in messages
        # The in-bounds memoized methods must not fire.
        assert "RoundContext" not in messages
        assert all(f.path != "<config>" for f in report.findings)

    def test_spec_drift_fires(self, tmp_path):
        # A find_alloc module that lacks the memoized generation: the
        # unmatched spec is a drift finding.
        copy = tmp_path / "find_alloc.py"
        copy.write_text(
            "def cached_find_alloc(ctx, rt, state, state_key=None):\n"
            "    return state.key()\n",
            encoding="utf-8",
        )
        report = analyze_paths([copy], rules=("REP010",))
        drift = [f for f in report.findings if f.path == "<config>"]
        assert len(drift) == 1
        assert "_generate_candidates" in drift[0].message


class TestPurityPass:
    """REP011: observers must not write protected simulation state."""

    def test_fixture_fails(self):
        report = analyze_paths([PURITY_FIXTURE], rules=("REP011",))
        assert rules_of(report) == ["REP011"]
        messages = "\n".join(f.message for f in report.findings)
        assert "TelemetryPhase.run" in messages
        assert "'state'" in messages
        assert "GoodTelemetryPhase" not in messages


class TestSnapshotPass:
    """REP012: engine-state attributes must be captured or waived."""

    def test_fixture_fails(self):
        report = analyze_paths([SNAPSHOT_FIXTURE], rules=("REP012",))
        assert rules_of(report) == ["REP012"]
        assert len(report.findings) == 1
        assert "_carryover" in report.findings[0].message
        # Classes without a spec are out of scope.
        assert "GoodSource" not in report.findings[0].message

    def test_suppression_kills_finding(self, tmp_path):
        source = SNAPSHOT_FIXTURE.read_text(encoding="utf-8").replace(
            "self._carryover = []",
            "self._carryover = []  # repro-lint: disable=REP012",
        )
        copy = tmp_path / "arrivals.py"
        copy.write_text(source, encoding="utf-8")
        report = analyze_paths([copy], rules=("REP012",))
        assert report.findings == []

    def test_spec_drift_fires_on_full_tree(self, tmp_path):
        # The full-tree marker (a SimulationEngine class) arms drift
        # checking; every unmatched spec then fires.
        copy = tmp_path / "engine.py"
        copy.write_text("class SimulationEngine:\n    pass\n", encoding="utf-8")
        report = analyze_paths([copy], rules=("REP012",))
        drift = [f for f in report.findings if f.path == "<config>"]
        assert drift, "unmatched specs must fire once the engine is analyzed"
        assert any("SubmissionSource" in f.message for f in drift)

    def test_fixture_dir_has_no_drift_noise(self):
        # Fixture modules reuse main-tree module names on purpose; a
        # fixtures-only run must not report main-tree specs as drift.
        report = analyze_paths([FIXTURES], rules=("REP012",))
        assert all(f.path != "<config>" for f in report.findings)

    def test_missing_loader_fires(self, tmp_path):
        source = SNAPSHOT_FIXTURE.read_text(encoding="utf-8").replace(
            "def load_state_dict", "def _renamed_loader"
        )
        copy = tmp_path / "arrivals.py"
        copy.write_text(source, encoding="utf-8")
        report = analyze_paths([copy], rules=("REP012",))
        messages = "\n".join(f.message for f in report.findings)
        assert "neither load_state_dict() nor" in messages


class TestSelfAnalysisGate:
    """The shipped tree ships flow-clean with an empty baseline."""

    def test_src_tree_is_flow_clean(self):
        report = analyze_paths([REPO_ROOT / "src" / "repro"])
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        assert report.baseline_suppressed == 0
        assert report.files_analyzed > 50


# Structural subset of the SARIF 2.1.0 schema: the properties consumers
# (GitHub code scanning, sarif-tools) actually dereference.  The full
# upstream schema needs network access, which tests don't have.
_SARIF_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    }
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "ruleId",
                                "level",
                                "message",
                                "locations",
                            ],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def test_findings_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        report = analyze_paths([FIXTURES])
        assert report.findings, "fixtures must produce findings"
        doc = to_sarif(report.findings)
        jsonschema.validate(doc, _SARIF_SCHEMA)

    def test_rule_indices_and_locations(self):
        report = analyze_paths([FIXTURES])
        doc = to_sarif(report.findings)
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_empty_report_still_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif([]), _SARIF_SCHEMA)


class TestFactsCache:
    def _cache(self, tmp_path):
        return FactsCache(
            tmp_path / "cache.json", config_digest=DEFAULT_CONFIG.digest()
        )

    def test_warm_run_hits(self, tmp_path):
        cold = analyze_paths([TAINT_FIXTURE], cache=self._cache(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        warm = analyze_paths([TAINT_FIXTURE], cache=self._cache(tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        # Cached facts must reproduce the findings exactly.
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_content_change_invalidates(self, tmp_path):
        copy = tmp_path / "mod.py"
        copy.write_text("def f():\n    return 1\n", encoding="utf-8")
        analyze_paths([copy], cache=self._cache(tmp_path))
        copy.write_text("def f():\n    return 2\n", encoding="utf-8")
        rerun = analyze_paths([copy], cache=self._cache(tmp_path))
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)

    def test_config_digest_invalidates(self, tmp_path):
        analyze_paths([TAINT_FIXTURE], cache=self._cache(tmp_path))
        other = FactsCache(tmp_path / "cache.json", config_digest="different")
        rerun = analyze_paths([TAINT_FIXTURE], cache=other)
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)


class TestCli:
    def test_findings_exit_1(self, capsys):
        code = flow_main(["--no-cache", str(TAINT_FIXTURE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP009" in out

    def test_clean_exit_0(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n", encoding="utf-8")
        assert flow_main(["--no-cache", str(clean)]) == 0

    def test_sarif_written(self, tmp_path):
        sarif = tmp_path / "flow.sarif"
        code = flow_main(
            ["--no-cache", "--sarif", str(sarif), str(TAINT_FIXTURE)]
        )
        assert code == 1
        doc = json.loads(sarif.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_baseline_round_trip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert (
            flow_main(
                [
                    "--no-cache",
                    "--write-baseline",
                    str(baseline),
                    str(TAINT_FIXTURE),
                ]
            )
            == 0
        )
        assert json.loads(baseline.read_text(encoding="utf-8"))
        assert (
            flow_main(
                ["--no-cache", "--baseline", str(baseline), str(TAINT_FIXTURE)]
            )
            == 0
        )

    def test_budget_exceeded_exit_2(self):
        code = flow_main(["--no-cache", "--budget-s", "0", str(TAINT_FIXTURE)])
        assert code == 2

    def test_consolidated_dispatch(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n", encoding="utf-8")
        assert analysis_main.main(["flow", "--no-cache", str(clean)]) == 0
        assert analysis_main.main(["lint", str(clean)]) == 0
        assert analysis_main.main(["bogus"]) == 2
        assert analysis_main.main([]) == 0  # usage text
        capsys.readouterr()
