"""``python -m repro.analysis`` — static analysis + interleaving explorer.

Three entry points share the module:

``python -m repro.analysis [PATH ...]``
    simlint (the original interface, unchanged): determinism lint.
``python -m repro.analysis protocheck [PATH ...]``
    protocheck: cross-module fencing/effect analysis of the write-path
    protocol (FENCE001/FENCE002/PROTO001).
``python -m repro.analysis explore``
    bounded interleaving exploration of the 2-dataserver failover
    scenario; writes a replayable counterexample trace on violation.

Exit status 0 when clean, 1 when any finding/violation is reported,
2 on usage errors.  The CI ``static-analysis`` job runs both lint
gates; the explorer smoke runs in the test matrix.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.config import ALL_RULES, SimlintConfig
from repro.analysis.simlint import lint_paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if args and args[0] == "protocheck":
        return _protocheck_main(args[1:])
    if args and args[0] == "explore":
        return _explore_main(args[1:])
    if args and args[0] == "simlint":
        args = args[1:]
    return _simlint_main(args)


# ----------------------------------------------------------------------
# simlint (legacy flat interface, kept verbatim)
# ----------------------------------------------------------------------


def _simlint_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: determinism/invariant static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all enabled)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule inventory and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(ALL_RULES.items()):
            print(f"{rule}  {description}")
        return 0

    config = SimlintConfig()
    if args.select:
        selected = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = selected - set(ALL_RULES)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        config = SimlintConfig(enabled_rules=frozenset(selected))

    targets = _existing_paths(args.paths)
    if targets is None:
        return 2

    findings = lint_paths(targets, config)
    if args.format == "json":
        print(json.dumps([_finding_json(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"simlint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _existing_paths(raw_paths: Sequence[str]) -> Optional[List[Path]]:
    targets: List[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.exists():
            print(f"no such path: {raw}", file=sys.stderr)
            return None
        targets.append(path)
    return targets


def _finding_json(finding) -> dict:  # type: ignore[no-untyped-def]
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }


# ----------------------------------------------------------------------
# protocheck
# ----------------------------------------------------------------------


def _protocheck_main(argv: Sequence[str]) -> int:
    from repro.analysis import protocheck

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis protocheck",
        description="protocheck: write-path fencing/effect static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--dump-graph",
        default=None,
        metavar="OUT",
        help="also write the resolved protocol graph as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule inventory and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(protocheck.PROTOCHECK_RULES.items()):
            print(f"{rule}  {description}")
        return 0

    select = None
    if args.select:
        select = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = select - set(protocheck.PROTOCHECK_RULES)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    targets = _existing_paths(args.paths)
    if targets is None:
        return 2

    sources = protocheck.load_sources(targets)
    if args.dump_graph is not None:
        graph_json = json.dumps(
            protocheck.build_graph(sources).to_json_dict(), indent=2, sort_keys=True
        )
        if args.dump_graph == "-":
            print(graph_json)
        else:
            Path(args.dump_graph).write_text(graph_json + "\n")

    findings = protocheck.analyze_sources(sources, select=select)
    if args.format == "json":
        print(json.dumps([_finding_json(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"protocheck: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------


def _explore_main(argv: Sequence[str]) -> int:
    from repro.analysis import explore as ex

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis explore",
        description=(
            "bounded interleaving exploration of the 2-dataserver "
            "failover scenario"
        ),
    )
    parser.add_argument(
        "--bug",
        choices=("drop-epoch-check",),
        default=None,
        help="seed a known fencing bug before exploring (regression mode)",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="cluster RNG seed (default: 11)"
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=200,
        help="schedule budget (default: 200)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=120,
        help="max scheduling decisions branched per run (default: 120)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="keep exploring after the first violating schedule",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="OUT",
        help="write a replayable counterexample trace JSON on violation",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="TRACE",
        help="re-run the exact schedule recorded in a trace file and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(ex, Path(args.replay), args.format)

    report, scenario = ex.run_failover_exploration(
        bug=args.bug,
        seed=args.seed,
        max_schedules=args.max_schedules,
        max_depth=args.max_depth,
        stop_on_violation=not args.keep_going,
    )
    trace = None
    if report.violation is not None:
        trace = ex.counterexample_trace(
            scenario.name, report.violation, scenario.config_dict()
        )
        if args.trace_out is not None:
            ex.write_trace(Path(args.trace_out), trace)

    if args.format == "json":
        payload = {
            "scenario": scenario.name,
            "config": scenario.config_dict(),
            "schedules_run": report.schedules_run,
            "distinct_schedules": report.distinct_schedules,
            "decisions_seen": report.decisions_seen,
            "max_arity": report.max_arity,
            "frontier_exhausted": report.frontier_exhausted,
            "ok": report.ok,
            "violation": trace,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"explore[{scenario.name}]: {report.schedules_run} schedules "
            f"({report.distinct_schedules} distinct, "
            f"max arity {report.max_arity})"
        )
        if report.ok:
            print("explore: all invariants held on every explored schedule")
        else:
            assert report.violation is not None
            print(
                "explore: invariant violation after "
                f"{report.schedules_run} schedule(s):",
                file=sys.stderr,
            )
            for violation in report.violation.violations:
                print(f"  - {violation}", file=sys.stderr)
            if args.trace_out is not None:
                print(f"explore: trace written to {args.trace_out}", file=sys.stderr)
    return 0 if report.ok else 1


def _replay(ex, trace_path: Path, fmt: str) -> int:  # type: ignore[no-untyped-def]
    if not trace_path.exists():
        print(f"no such trace: {trace_path}", file=sys.stderr)
        return 2
    trace = ex.load_trace(trace_path)
    config = dict(trace.get("config", {}))
    scenario = ex.FailoverScenario(
        bug=config.get("bug"), seed=int(config.get("seed", 11))
    )
    result = ex.replay_trace(scenario.run, trace)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "scenario": scenario.name,
                    "violations": list(result.violations),
                    "outcome": result.outcome,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if result.violations:
            print("replay: violation reproduced:", file=sys.stderr)
            for violation in result.violations:
                print(f"  - {violation}", file=sys.stderr)
        else:
            print("replay: schedule ran clean")
    return 1 if result.violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
