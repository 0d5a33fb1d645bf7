"""``python -m repro.obs`` — inspect, validate, diff, export, and watch.

Subcommands::

    python -m repro.obs validate  trace.jsonl
    python -m repro.obs summarize trace.jsonl [--top 5] [--json]
    python -m repro.obs diff      a.jsonl b.jsonl [--json]
    python -m repro.obs export    trace.jsonl --perfetto -o timeline.json
    python -m repro.obs watch     http://127.0.0.1:9418 [--interval 2]
    python -m repro.obs lint-exposition metrics.txt

``validate`` checks every record against the versioned schema (exit 1 on
the first violation) — the CI obs-smoke gate.  ``summarize`` prints the
top-k slowest rounds, admission/skip rates, and per-type price
trajectories.  ``diff`` compares two traces decision-by-decision (e.g.
a change vs its recorded baseline) and exits 1 when schedules fork.  ``export
--perfetto`` writes a Chrome ``trace_event`` file that opens directly in
``ui.perfetto.dev``.  ``validate``/``summarize``/``diff`` transparently
accept a size-rotated trace set (``trace.jsonl.part-000000`` … plus the
live file) as one logical stream.  ``watch`` polls a live
``repro serve --listen`` endpoint and renders a compact terminal
summary; ``lint-exposition`` checks scraped ``/metrics`` text against
the exposition-format contract (the CI serve-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.perfetto import export_perfetto
from repro.obs.schema import SchemaError, validate_trace
from repro.obs.summarize import diff_traces, summarize_trace
from repro.obs.tracer import load_trace_set, read_trace_set

__all__ = ["main"]


def cmd_validate(args: argparse.Namespace) -> int:
    kinds: dict[str, int] = {}
    try:
        for _, kind in validate_trace(read_trace_set(args.trace)):
            kinds[kind] = kinds.get(kind, 0) + 1
    except (SchemaError, ValueError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    total = sum(kinds.values())
    if total == 0:
        print(f"INVALID: {args.trace} contains no records", file=sys.stderr)
        return 1
    detail = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"OK: {total} records ({detail}) conform to the trace schema")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize_trace(read_trace_set(args.trace), top_k=args.top)
    if args.json:
        payload = {
            "scheduler": summary.scheduler,
            "rounds": summary.rounds,
            "jobs_seen": summary.jobs_seen,
            "admitted": summary.admitted,
            "kept": summary.kept,
            "skipped": summary.skipped,
            "admission_rate": summary.admission_rate,
            "skip_rate": summary.skip_rate,
            "skip_reasons": summary.skip_reasons,
            "changes": summary.changes,
            "placements": summary.placements,
            "migrations": summary.migrations,
            "preemptions": summary.preemptions,
            "total_decision_s": summary.total_decision_s,
            "slowest_rounds": summary.slowest_rounds,
            "price_trajectories": summary.price_trajectories,
            "fault_events": summary.fault_events,
            "stalled_gangs": summary.stalled_gangs,
            "rolled_back_jobs": summary.rolled_back_jobs,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"scheduler        : {summary.scheduler}")
    print(f"rounds           : {summary.rounds}")
    print(
        f"job outcomes     : {summary.admitted} admitted, {summary.kept} kept, "
        f"{summary.skipped} skipped "
        f"(admission {summary.admission_rate:.1%}, skip {summary.skip_rate:.1%})"
    )
    if summary.skip_reasons:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(summary.skip_reasons.items())
        )
        print(f"skip reasons     : {reasons}")
    print(
        f"allocation churn : {summary.changes} changes "
        f"({summary.placements} placements, {summary.migrations} migrations, "
        f"{summary.preemptions} preemptions)"
    )
    print(f"decision time    : {summary.total_decision_s:.3f} s total")
    if summary.slowest_rounds:
        print(f"slowest rounds   : (top {len(summary.slowest_rounds)})")
        for info in summary.slowest_rounds:
            queued = info.get("queued")
            queued_s = f"{queued} queued, " if queued is not None else ""
            print(
                f"  round {info['round']:>4}  t={info['t']:>10.1f}s  "
                f"{info['decision_s'] * 1e3:8.2f} ms  "
                f"({queued_s}{info['admitted']} admitted)"
            )
    if summary.price_trajectories:
        print("price trajectory : (mean Eq. 5 price per type)")
        for gpu, traj in sorted(summary.price_trajectories.items()):
            print(
                f"  {gpu:>8}: first {traj['first']:.3e}  min {traj['min']:.3e}  "
                f"max {traj['max']:.3e}  last {traj['last']:.3e}"
            )
    if summary.fault_events:
        events = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.fault_events.items())
        )
        print(f"fault events     : {events}")
        print(
            f"fault impact     : {summary.stalled_gangs} gang-stall(s), "
            f"{summary.rolled_back_jobs} rollback(s)"
        )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_traces(
        load_trace_set(args.trace_a),
        load_trace_set(args.trace_b),
        max_divergences=args.max_divergences,
    )
    if args.json:
        payload = {
            "rounds_a": diff.rounds_a,
            "rounds_b": diff.rounds_b,
            "compared_rounds": diff.compared_rounds,
            "identical_rounds": diff.identical_rounds,
            "decisions_match": diff.decisions_match,
            "first_divergence": diff.first_divergence,
            "divergent_rounds": diff.divergent_rounds,
            "decision_s_a": diff.decision_s_a,
            "decision_s_b": diff.decision_s_b,
            "speedup_a_over_b": diff.speedup,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"rounds           : A={diff.rounds_a}  B={diff.rounds_b}")
        print(
            f"decisions        : {diff.identical_rounds}/{diff.compared_rounds} "
            f"rounds identical"
        )
        print(
            f"decision time    : A={diff.decision_s_a:.3f}s  "
            f"B={diff.decision_s_b:.3f}s"
            + (f"  (A/B = {diff.speedup:.2f}x)" if diff.speedup else "")
        )
        if diff.decisions_match:
            print("verdict          : traces make IDENTICAL scheduling decisions")
        else:
            print("verdict          : traces DIVERGE")
            if diff.first_divergence:
                d = diff.first_divergence
                print(
                    f"first divergence : round {d['round']} (t={d['t']}): "
                    f"only-A jobs {d['only_a']}, only-B jobs {d['only_b']}"
                )
    return 0 if diff.decisions_match else 1


def cmd_export(args: argparse.Namespace) -> int:
    if not args.perfetto:
        print("only --perfetto export is supported", file=sys.stderr)
        return 2
    out = args.out or Path(args.trace).with_suffix(".perfetto.json")
    doc = export_perfetto(args.trace, out)
    print(
        f"wrote {out} ({len(doc['traceEvents'])} events) — "
        "open at https://ui.perfetto.dev"
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Poll a live endpoint and print a compact summary per interval."""
    import urllib.error

    from repro.obs.watch import render_sample, take_sample

    polls = 0
    while True:
        try:
            sample = take_sample(args.url, timeout=args.timeout)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"unreachable: {args.url} ({exc})", file=sys.stderr)
            return 1
        if polls:
            print()
        print(render_sample(sample))
        polls += 1
        if args.count is not None and polls >= args.count:
            return 0
        if sample["status"].get("lifecycle") == "stopped":
            return 0
        time.sleep(args.interval)


def cmd_lint_exposition(args: argparse.Namespace) -> int:
    from repro.obs.exposition import lint_exposition

    if args.metrics == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.metrics).read_text(encoding="utf-8")
    problems = lint_exposition(text)
    for problem in problems:
        print(f"LINT: {problem}", file=sys.stderr)
    if problems:
        return 1
    families = sum(1 for line in text.splitlines() if line.startswith("# TYPE"))
    print(f"OK: {families} families conform to the exposition format")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, validate, diff, and export decision traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-validate every record")
    p.add_argument("trace", help="JSONL decision trace")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "summarize", help="slowest rounds, admission rates, price trajectories"
    )
    p.add_argument("trace", help="JSONL decision trace")
    p.add_argument("--top", type=int, default=5, help="slowest rounds to show")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("diff", help="compare two traces decision-by-decision")
    p.add_argument("trace_a", help="left JSONL trace")
    p.add_argument("trace_b", help="right JSONL trace")
    p.add_argument("--max-divergences", type=int, default=10)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("export", help="convert a trace to another format")
    p.add_argument("trace", help="JSONL decision trace")
    p.add_argument(
        "--perfetto", action="store_true",
        help="emit Chrome trace_event JSON for ui.perfetto.dev",
    )
    p.add_argument("-o", "--out", default=None, help="output path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "watch", help="poll a live serve --listen endpoint and summarize"
    )
    p.add_argument("url", help="endpoint base URL, e.g. http://127.0.0.1:9418")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--count", type=int, default=None,
                   help="stop after N polls (default: until stopped)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-request timeout in seconds")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "lint-exposition",
        help="check scraped /metrics text against the exposition contract",
    )
    p.add_argument("metrics", help="exposition text file, or - for stdin")
    p.set_defaults(func=cmd_lint_exposition)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
