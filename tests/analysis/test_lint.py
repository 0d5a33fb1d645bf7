"""The REPxxx linter: each rule fires on a seeded fixture, stays quiet on
clean code, honours suppressions, and passes over the shipped ``src/``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    ALL_RULES,
    FloatEqualityRule,
    MutableDefaultRule,
    NondeterminismRule,
    PrintInLibraryRule,
    SilentExceptionRule,
    UnorderedFloatSumRule,
    UnorderedIterationRule,
    UnseededRNGRule,
    apply_fixes,
    lint_paths,
    lint_source,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"

CORE = "src/repro/core/fake.py"
"""Synthetic path inside the determinism-critical scope."""


def rules_of(findings):
    return [f.rule for f in findings]


class TestFloatEquality:
    def test_float_literal_comparison_flagged(self):
        findings = lint_source("if x == 0.0:\n    pass\n", CORE)
        assert rules_of(findings) == ["REP001"]

    def test_negative_literal_and_noteq_flagged(self):
        assert rules_of(lint_source("ok = y != -1.5\n", CORE)) == ["REP001"]

    def test_price_like_names_flagged_without_literal(self):
        findings = lint_source("if a.payoff == b.payoff:\n    pass\n", CORE)
        assert rules_of(findings) == ["REP001"]

    def test_int_comparison_not_flagged(self):
        assert lint_source("if n == 0:\n    pass\n", CORE) == []

    def test_ordering_comparison_not_flagged(self):
        assert lint_source("if payoff <= 0.0:\n    pass\n", CORE) == []


class TestNondeterminism:
    def test_time_time_flagged_in_core(self):
        src = "import time\nstart = time.time()\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_time_time_through_alias(self):
        src = "import time as _time\nstart = _time.time()\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_monotonic_and_perf_counter_allowed(self):
        src = "import time\na = time.monotonic()\nb = time.perf_counter()\n"
        assert lint_source(src, CORE) == []

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_seeded_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src, CORE) == []

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_seeded_stdlib_random_instance_allowed(self):
        src = (
            "import random\nfrom random import Random\n"
            "a = random.Random(7)\nb = Random(seed)\nc = random.Random(x=seed)\n"
        )
        assert lint_source(src, CORE) == []
        assert lint_source(src, "tests/fake.py") == []

    def test_unseeded_or_system_stdlib_random_flagged(self):
        src = (
            "import random\n"
            "a = random.Random()\nb = random.Random(None)\n"
            "c = random.SystemRandom(7)\nd = random.shuffle(xs)\n"
            "e = random.Random(7).random()\n"
        )
        findings = lint_source(src, CORE)
        assert rules_of(findings) == ["REP002"] * 4
        assert [f.line for f in findings] == [2, 3, 4, 5]

    def test_legacy_numpy_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]

    def test_out_of_scope_file_not_flagged(self):
        src = "import time\nstart = time.time()\n"
        assert lint_source(src, "src/repro/experiments/fake.py") == []

    def test_environment_reads_flagged_in_core(self):
        src = (
            "import os\nfrom os import environ as env\n"
            "a = os.environ.get('X')\nb = os.getenv('Y')\nc = env['Z']\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP002"] * 3

    def test_environment_reads_allowed_outside_library_paths(self):
        src = "import os\nscale = os.environ.get('REPRO_SCALE')\n"
        assert lint_source(src, "src/repro/experiments/fake.py") == []
        assert lint_source(src, "tests/fake.py") == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert rules_of(lint_source("def f(x=[]):\n    pass\n", CORE)) == ["REP003"]

    def test_dict_call_default_flagged(self):
        assert rules_of(lint_source("def f(x=dict()):\n    pass\n", CORE)) == ["REP003"]

    def test_kwonly_default_flagged(self):
        assert rules_of(lint_source("def f(*, x={}):\n    pass\n", CORE)) == ["REP003"]

    def test_none_default_allowed(self):
        assert lint_source("def f(x=None, y=()):\n    pass\n", CORE) == []


class TestUnorderedIteration:
    def test_for_over_set_call_flagged(self):
        src = "def f(items):\n    for x in set(items):\n        use(x)\n"
        assert rules_of(lint_source(src, CORE)) == ["REP004"]

    def test_for_over_set_variable_flagged(self):
        src = (
            "def f(items):\n"
            "    pending = {i.key for i in items}\n"
            "    for x in pending:\n"
            "        place(x)\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP004"]

    def test_annotated_set_variable_flagged(self):
        src = (
            "def f():\n"
            "    seen: set[str] = set()\n"
            "    return [x for x in seen]\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP004"]

    def test_min_with_key_over_set_flagged(self):
        src = "def f(types):\n    return min(frozenset(types), key=rate)\n"
        assert rules_of(lint_source(src, CORE)) == ["REP004"]

    def test_sorted_wrapping_allowed(self):
        src = (
            "def f(items):\n"
            "    pending = {i.key for i in items}\n"
            "    for x in sorted(pending):\n"
            "        place(x)\n"
        )
        assert lint_source(src, CORE) == []

    def test_order_free_reducers_exempt(self):
        src = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    return min(r(x) for x in s), any(x > 0 for x in s), len(s)\n"
        )
        assert lint_source(src, CORE) == []

    def test_membership_test_not_flagged(self):
        src = "def f(x):\n    return x in {'a', 'b'}\n"
        assert lint_source(src, CORE) == []


class TestFixMode:
    """``--fix``: mechanical REP004 repairs that preserve formatting."""

    def _fix(self, src: str, path: str = CORE) -> str:
        fixed, _ = apply_fixes(src, lint_source(src, path))
        return fixed

    def test_for_loop_iterable_wrapped(self):
        src = "def f(items):\n    for x in set(items):\n        use(x)\n"
        fixed = self._fix(src)
        assert fixed == "def f(items):\n    for x in sorted(set(items)):\n        use(x)\n"
        assert lint_source(fixed, CORE) == []

    def test_set_variable_wrapped(self):
        src = (
            "def f(items):\n"
            "    pending = {i.key for i in items}\n"
            "    for x in pending:  # placement order matters\n"
            "        place(x)\n"
        )
        fixed = self._fix(src)
        assert "for x in sorted(pending):  # placement order matters\n" in fixed
        assert lint_source(fixed, CORE) == []

    def test_comprehension_generator_wrapped(self):
        src = "def f(s):\n    s = set(s)\n    return [go(x) for x in s]\n"
        fixed = self._fix(src)
        assert "return [go(x) for x in sorted(s)]\n" in fixed
        assert lint_source(fixed, CORE) == []

    def test_min_with_key_argument_wrapped(self):
        src = "def f(types):\n    return min(frozenset(types), key=rate)\n"
        fixed = self._fix(src)
        assert "min(sorted(frozenset(types)), key=rate)" in fixed
        assert lint_source(fixed, CORE) == []

    def test_multiline_iterable_wrapped(self):
        src = (
            "def f(a, b):\n"
            "    for x in set(\n"
            "        a + b\n"
            "    ):\n"
            "        use(x)\n"
        )
        fixed = self._fix(src)
        assert "for x in sorted(set(\n" in fixed
        assert "    )):\n" in fixed
        assert lint_source(fixed, CORE) == []

    def test_multiple_findings_fixed_in_one_pass(self):
        src = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    for x in s:\n"
            "        use(x)\n"
            "    return {y: 1 for y in s}\n"
        )
        fixed, applied = apply_fixes(src, lint_source(src, CORE))
        assert applied == 2
        assert lint_source(fixed, CORE) == []

    def test_non_mechanical_rules_untouched(self):
        src = "def f(x=[]):\n    return x == 0.5\n"
        fixed, applied = apply_fixes(src, lint_source(src, CORE))
        assert applied == 0
        assert fixed == src

    def test_suppressed_findings_not_fixed(self):
        src = (
            "def f(s):\n"
            "    s = set(s)\n"
            "    for x in s:  # repro-lint: disable=REP004\n"
            "        use(x)\n"
        )
        fixed, applied = apply_fixes(src, lint_source(src, CORE))
        assert applied == 0
        assert fixed == src

    def test_fixable_flag_in_json_payload(self):
        findings = lint_source(
            "def f(s):\n    for x in set(s):\n        use(x)\n", CORE
        )
        assert [f.to_dict()["fixable"] for f in findings] == [True]
        unfixable = lint_source("x = y == 0.5\n", CORE)
        assert [f.to_dict()["fixable"] for f in unfixable] == [False]

    def test_main_fix_rewrites_and_exits_by_residual(self, tmp_path, capsys):
        target = tmp_path / "decider.py"
        target.write_text("def f(s):\n    for x in set(s):\n        use(x)\n")
        assert main(["--fix", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fixed 1 finding(s) in 1 file(s)." in out
        assert "sorted(set(s))" in target.read_text()

    def test_main_fix_exits_nonzero_when_findings_remain(self, tmp_path, capsys):
        target = tmp_path / "mixed.py"
        target.write_text(
            "def f(s):\n    for x in set(s):\n        use(x)\n    return s == 0.5\n"
        )
        assert main(["--fix", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "fixed 1 finding(s)" in out
        assert "REP001" in out  # the judgement-call finding survives


class TestSilentException:
    def test_bare_except_flagged_in_engine_path(self):
        src = "try:\n    go()\nexcept:\n    pass\n"
        assert rules_of(lint_source(src, "src/repro/sim/fake.py")) == ["REP005"]

    def test_swallowed_broad_exception_flagged(self):
        src = "try:\n    go()\nexcept Exception:\n    pass\n"
        assert rules_of(lint_source(src, "src/repro/baselines/fake.py")) == ["REP005"]

    def test_handled_broad_exception_allowed(self):
        src = "try:\n    go()\nexcept Exception as exc:\n    raise RuntimeError(str(exc))\n"
        assert lint_source(src, "src/repro/sim/fake.py") == []

    def test_narrow_swallow_allowed(self):
        src = "try:\n    go()\nexcept KeyError:\n    pass\n"
        assert lint_source(src, "src/repro/sim/fake.py") == []

    def test_out_of_scope_not_flagged(self):
        src = "try:\n    go()\nexcept:\n    pass\n"
        assert lint_source(src, "src/repro/metrics/fake.py") == []


class TestUnorderedFloatSum:
    def test_sum_over_set_call_flagged(self):
        src = "def f(prices):\n    return sum(set(prices))\n"
        assert rules_of(lint_source(src, CORE)) == ["REP006"]

    def test_sum_over_set_display_flagged(self):
        src = "def f(a, b):\n    return sum({a, b})\n"
        assert rules_of(lint_source(src, CORE)) == ["REP006"]

    def test_sum_over_set_variable_flagged(self):
        src = (
            "def f(gangs):\n"
            "    costs = {g.cost for g in gangs}\n"
            "    return sum(costs)\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP006"]

    def test_sum_over_annotated_set_variable_flagged(self):
        src = (
            "def f():\n"
            "    seen: frozenset[float] = frozenset()\n"
            "    return sum(seen)\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP006"]

    def test_sum_with_start_argument_flagged(self):
        src = "def f(xs):\n    return sum(frozenset(xs), 0.0)\n"
        assert rules_of(lint_source(src, CORE)) == ["REP006"]

    def test_sorted_operands_allowed(self):
        src = "def f(prices):\n    return sum(sorted(set(prices)))\n"
        assert lint_source(src, CORE) == []

    def test_math_fsum_exempt(self):
        src = (
            "import math\n"
            "def f(prices):\n"
            "    return math.fsum(set(prices))\n"
        )
        assert lint_source(src, CORE) == []

    def test_sum_over_list_not_flagged(self):
        src = "def f(xs):\n    return sum(xs) + sum([x * 2 for x in xs])\n"
        assert lint_source(src, CORE) == []

    def test_comprehension_over_set_left_to_rep004(self):
        """``sum(g(x) for x in s)`` is iteration — REP004's finding, not a
        second REP006 report on the same expression."""
        src = (
            "def f(gangs):\n"
            "    s = set(gangs)\n"
            "    return sum(x.cost for x in s)\n"
        )
        assert rules_of(lint_source(src, CORE)) == ["REP004"]

    def test_no_fix_attached(self):
        """The satellite contract: --fix must not rewrite REP006 findings
        (forcing an accumulation order is a judgement call)."""
        src = "def f(prices):\n    return sum(set(prices))\n"
        findings = lint_source(src, CORE)
        assert [f.fix for f in findings] == [None]
        fixed, applied = apply_fixes(src, findings)
        assert applied == 0
        assert fixed == src

    def test_suppressible_per_line(self):
        src = (
            "def f(xs):\n"
            "    return sum(set(xs))  # repro-lint: disable=REP006\n"
        )
        assert lint_source(src, CORE) == []


class TestPrintInLibrary:
    def test_print_in_library_module_flagged(self):
        src = "def f(x):\n    print(x)\n    return x\n"
        assert rules_of(lint_source(src, "src/repro/metrics/jct.py")) == ["REP007"]

    def test_print_outside_repro_tree_ignored(self):
        src = "print('hello')\n"
        assert lint_source(src, "benchmarks/overheads.py") == []

    def test_cli_module_exempt(self):
        src = "print('scheduler : hadar')\n"
        assert lint_source(src, "src/repro/cli.py") == []

    def test_dunder_main_exempt(self):
        src = "print('OK: 10 records')\n"
        assert lint_source(src, "src/repro/obs/__main__.py") == []

    def test_method_named_print_not_flagged(self):
        # Only the builtin is stdout; a .print() method is the caller's API.
        src = "def f(table):\n    table.print()\n"
        assert lint_source(src, "src/repro/metrics/table.py") == []

    def test_suppressible_per_line(self):
        src = "def f(x):\n    print(x)  # repro-lint: disable=REP007\n"
        assert lint_source(src, "src/repro/metrics/jct.py") == []


class TestSuppression:
    def test_disable_specific_rule(self):
        src = "if x == 0.0:  # repro-lint: disable=REP001\n    pass\n"
        assert lint_source(src, CORE) == []

    def test_disable_all(self):
        src = "if x == 0.0:  # repro-lint: disable=all\n    pass\n"
        assert lint_source(src, CORE) == []

    def test_disable_other_rule_does_not_waive(self):
        src = "if x == 0.0:  # repro-lint: disable=REP005\n    pass\n"
        assert rules_of(lint_source(src, CORE)) == ["REP001"]


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", CORE)
        assert rules_of(findings) == ["REP000"]

    def test_finding_format_is_clickable(self):
        finding = lint_source("x = 1.0 == y\n", CORE)[0]
        assert finding.format().startswith(f"{CORE}:1:")
        assert "REP001" in finding.format()

    def test_main_exits_nonzero_on_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nprice = time.time()\nok = price == 1.0\n")
        code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP001" in out and "REP002" in out
        assert f"{bad}:2:" in out and f"{bad}:3:" in out

    def test_main_exits_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("def f(n):\n    return n + 1\n")
        assert main([str(tmp_path)]) == 0

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = y == 0.5\n")
        code = main(["--json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload[0]["rule"] == "REP001"
        assert payload[0]["line"] == 1

    def test_rule_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = y == 0.5\ndef f(a=[]):\n    pass\n")
        assert main(["--rules", "REP003", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out and "REP001" not in out

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--rules", "REP999", str(tmp_path)])

    def test_nonexistent_path_rejected(self, tmp_path):
        # A typo'd path must not silently pass the CI gate.
        with pytest.raises(SystemExit):
            main([str(tmp_path / "no_such_dir")])


class TestUnseededRNG:
    """REP008: unseeded generator construction outside REP002's scope."""

    WORKLOAD = "src/repro/workload/fake.py"

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, self.WORKLOAD)) == ["REP008"]

    def test_explicit_none_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rules_of(lint_source(src, self.WORKLOAD)) == ["REP008"]

    def test_stdlib_random_flagged(self):
        src = "import random\nrng = random.Random()\n"
        assert rules_of(lint_source(src, self.WORKLOAD)) == ["REP008"]

    def test_seeded_construction_allowed(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "a = np.random.default_rng(7)\n"
            "b = np.random.default_rng([seed, node_id])\n"
            "c = np.random.default_rng(seed=cfg.seed)\n"
            "d = random.Random(3)\n"
        )
        assert lint_source(src, self.WORKLOAD) == []

    def test_deterministic_paths_left_to_rep002(self):
        # Inside REP002's scope the same call is its finding, not REP008's.
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, CORE)) == ["REP002"]
        assert rules_of(lint_source(src, "src/repro/faults/fake.py")) == ["REP002"]

    def test_tests_tree_left_to_rep002(self):
        # The suite is REP002 scope too (flaky-by-construction tests);
        # REP008 stays out so the site is flagged exactly once.
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, "tests/fake.py")) == ["REP002"]

    def test_out_of_library_not_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_source(src, "scripts/fake.py") == []


class TestShippedTreeIsClean:
    """The permanent gate: the linter must pass over the shipped sources —
    the library, the benchmark drivers, and the runnable examples (the CI
    lint step covers the same three trees)."""

    @pytest.mark.parametrize(
        "tree", ["src/repro", "benchmarks", "examples"]
    )
    def test_shipped_tree_has_no_findings(self, tree):
        findings = lint_paths([REPO_ROOT / tree])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_test_suite_is_deterministic(self):
        # The determinism rules gate tests/ too: an unseeded stream or a
        # wall-clock read makes a test flaky by construction.  Fixtures
        # that need nondeterminism on purpose carry inline waivers.
        findings = lint_paths(
            [REPO_ROOT / "tests"],
            rules=[NondeterminismRule, UnseededRNGRule],
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_has_id_and_doc(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        for cls in (
            FloatEqualityRule,
            NondeterminismRule,
            MutableDefaultRule,
            UnorderedIterationRule,
            SilentExceptionRule,
            UnorderedFloatSumRule,
            PrintInLibraryRule,
            UnseededRNGRule,
        ):
            assert cls.__doc__
