"""Which functions under ``src/repro`` does no non-test run ever call?

Runs every non-test consumer of the package -- the examples, every
``python -m repro.experiments`` target, the ``benchmarks/`` shape tests,
the ledger and the tool invocations CI makes -- with a ``sitecustomize``
hook that records the ``(file, first line)`` of every code object entered
under ``src/repro``, in every Python process they start.  The report lists
the function definitions (from the AST; a decorated function's first line
is its first decorator's) that no process entered, grouped by package.

The hook is a ``sys.settrace`` global trace function that returns ``None``,
so it sees each call once and never traces lines.  A ``sys.setprofile`` hook
would record the same set, but the ledger's child replaces it with its own
``cProfile`` session.

Usage::

    python tools/reachability.py                        # report to stdout
    python tools/reachability.py --out tools/REACHABILITY.txt --base REV

``--base REV`` also measures the committed tree at ``REV`` (exported with
``git archive``) and puts its count in the header.  Each tree takes about
three minutes on a 2-CPU host.  This is a report, not a gate.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PREFIX = os.environ["REPRO_REACH_SRC"]
_OUT = os.environ["REPRO_REACH_OUT"]
_seen = {}


def _hook(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code      # keeps the code alive, so ids stay unique
    return None


def _dump():
    sys.settrace(None)
    hits = sorted({(c.co_filename, c.co_firstlineno) for c in _seen.values()
                   if c.co_filename.startswith(_PREFIX)})
    path = os.path.join(_OUT, "hits-%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(hits, fh)


atexit.register(_dump)
threading.settrace(_hook)
sys.settrace(_hook)
'''


def consumers(tree: Path, work: Path) -> List[Tuple[str, List[str]]]:
    """Every non-test invocation of the package, as ``(label, argv)``."""
    py = sys.executable
    fig4 = work / "fig4-trace"
    writes = work / "writes-trace"
    runs: List[Tuple[str, List[str]]] = []
    for script in sorted((tree / "examples").glob("*.py")):
        runs.append((f"examples/{script.name}", [py, str(script)]))
    runs += [
        ("experiments (all targets)", [py, "-m", "repro.experiments"]),
        ("experiments fig4 --trace",
         [py, "-m", "repro.experiments", "fig4", "--jobs", "40",
          "--files", "30", "--trace", str(fig4)]),
        ("experiments writes --trace",
         [py, "-m", "repro.experiments", "writes", "--trace", str(writes)]),
        ("telemetry summarize",
         [py, "-m", "repro.telemetry", "summarize", str(fig4 / "trace.jsonl")]),
        ("validate_chrome_trace",
         [py, "-c", "import json, sys\n"
                    "from repro.telemetry import validate_chrome_trace\n"
                    "problems = validate_chrome_trace(json.load(open(sys.argv[1])))\n"
                    "assert not problems, problems",
          str(fig4 / "trace.json")]),
        ("telemetry analyze",
         [py, "-m", "repro.telemetry", "analyze", str(writes / "trace.jsonl"),
          "--op", "client.append", "-n", "3"]),
        ("benchmarks/test_*.py",
         [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          str(tree / "benchmarks"), "--ignore", str(tree / "benchmarks/ledger"),
          "--benchmark-disable"]),
        ("ledger run.py --reps 1 --scale 0.05",
         [py, str(tree / "benchmarks/ledger/run.py"), "--reps", "1",
          "--scale", "0.05", "--out", str(work / "ledger" / "record.json")]),
        ("simlint", [py, "-m", "repro.analysis", str(tree / "src"),
                     str(tree / "examples"), str(tree / "benchmarks"),
                     str(tree / "tools")]),
        ("protocheck", [py, "-m", "repro.analysis", "protocheck",
                        str(tree / "src/repro")]),
        ("protocheck --format json",
         [py, "-m", "repro.analysis", "protocheck", str(tree / "src/repro"),
          "--format", "json"]),
        ("explorer smoke",
         [py, "-m", "repro.analysis", "explore", "--max-schedules", "60",
          "--max-depth", "60", "--trace-out", str(work / "explorer.json")]),
    ]
    return runs


#: Unreached functions kept on purpose, and why: ``(path, qualname)`` or a
#: whole file ``(path, None)``.
KEPT = {
    # failure paths: they run only when a checker finds something
    ("src/repro/analysis/cli.py", "_finding_json"):
        "renders findings for --format json, so only when a checker finds "
        "one (tests/analysis/test_cli.py::test_json_format)",
    ("src/repro/analysis/cli.py", "_replay"):
        "explore --replay re-runs a counterexample trace, which only a "
        "failed exploration writes (the CI explorer step uploads it)",
    ("src/repro/analysis/explore.py", "counterexample_trace"):
        "counterexample write/replay: runs only when the explorer finds a "
        "violation; tests/analysis/test_explore.py drives it with a seeded bug",
    ("src/repro/analysis/explore.py", "write_trace"):
        "counterexample write/replay: runs only when the explorer finds a "
        "violation; tests/analysis/test_explore.py drives it with a seeded bug",
    ("src/repro/analysis/explore.py", "load_trace"):
        "counterexample write/replay: runs only when the explorer finds a "
        "violation; tests/analysis/test_explore.py drives it with a seeded bug",
    ("src/repro/analysis/explore.py", "replay_trace"):
        "counterexample write/replay: runs only when the explorer finds a "
        "violation; tests/analysis/test_explore.py drives it with a seeded bug",
    ("src/repro/analysis/explore.py", "FailoverScenario.config_dict"):
        "recorded in a counterexample trace, so it is written with one "
        "(tests/analysis/test_explore.py)",
    ("src/repro/analysis/explore.py", "FailoverScenario._apply_bug"):
        "seeds the bugs tests/analysis/test_explore.py checks the explorer "
        "catches",
    ("src/repro/analysis/explore.py",
     "FailoverScenario._apply_bug.<locals>.unfenced_lease"):
        "seeds the bugs tests/analysis/test_explore.py checks the explorer "
        "catches",
    ("src/repro/analysis/explore.py",
     "FailoverScenario._apply_bug.<locals>.unfenced_validate"):
        "seeds the bugs tests/analysis/test_explore.py checks the explorer "
        "catches",
    ("src/repro/analysis/protocheck.py", "_Checker._report"):
        "protocheck's failure path: runs only when a rule fires "
        "(tests/analysis/test_protocheck.py)",
    ("src/repro/analysis/simlint.py", "Finding.render"):
        "a checker's failure path: formats a finding only when there is one "
        "(tests/analysis/test_protocheck.py::test_repo_fs_tree_analyzes_clean "
        "prints it on failure)",
    ("src/repro/analysis/simlint.py", "_SetOrderChecker._describe"):
        "simlint's failure path: runs only when DET003 fires "
        "(tests/analysis/test_simlint_rules.py)",
    ("src/repro/analysis/simlint.py", "_SetOrderChecker._flag"):
        "simlint's failure path: runs only when DET003 fires "
        "(tests/analysis/test_simlint_rules.py)",
    ("src/repro/analysis/simsan.py", None):
        "reached by pytest --simsan, a CI step over the test suite",
    ("src/repro/fs/dataserver.py", "Dataserver.serve_catch_up"):
        "fault repair; ROADMAP item 15 gives it a seeded storm",
    ("src/repro/fs/dataserver.py", "Dataserver._catch_up"):
        "fault repair; ROADMAP item 15 gives it a seeded storm",
    ("src/repro/fs/dataserver.py", "Dataserver._truncate"):
        "fault repair; ROADMAP item 15 gives it a seeded storm",
    ("src/repro/rpc/errors.py", "RpcTimeout.__init__"):
        "raised only when a call's deadline passes unanswered; "
        "tests/rpc/test_fabric.py times calls out",
    ("src/repro/rpc/fabric.py", "_Call.expire"):
        "runs only when a deadline passes unanswered (a reply cancels it); "
        "no consumer run times out, tests/rpc does",
    # run by pytest --simsan, a CI step over the test suite
    ("src/repro/core/flowserver.py", "Flowserver.loop"):
        "SimSanitizer.register and check_flowserver read it under pytest "
        "--simsan, a CI step",
    ("src/repro/sim/randomness.py", "RandomStreams.stream_snapshot"):
        "SimSanitizer.check_streams reads it under pytest --simsan, a CI step",
    # typing: layer interfaces and annotation stubs
    ("src/repro/baselines/selectors.py", "ReplicaSelector.select_replica"):
        "interface stub: schemes.py and cluster/planners.py call it through "
        "the ReplicaSelector type; every selector overrides it",
    ("src/repro/fs/client.py", "ReadPlanner.plan"):
        "layer-order interface stub: repro.fs types against it, the cluster "
        "layer implements it (tests/test_import_hygiene.py)",
    ("src/repro/fs/client.py", "WriteFanoutPlanner.plan"):
        "layer-order interface stub: repro.fs types against it, the cluster "
        "layer implements it (tests/test_import_hygiene.py)",
    ("src/repro/fs/dataserver.py", "DataPlane.transfer"):
        "layer-order interface stub: repro.fs types against it, the cluster "
        "layer implements it (tests/test_import_hygiene.py)",
    ("src/repro/fs/placement.py", "PlacementPolicy.place"):
        "interface stub: the nameserver types against it; every placement "
        "policy overrides it",
    ("src/repro/fs/annotations.py", None):
        "protocheck's annotation vocabulary: the @overload stubs type it for "
        "the mypy --strict CI step, and no src function carries "
        "@entrypoint yet (test_entrypoint_annotation_promotes_function does)",
    # oracles and seams of tests
    ("src/repro/net/topology.py", "Topology.to_networkx"):
        "the routing oracle: tests/net/test_routing_oracle.py checks every "
        "route against networkx",
    ("src/repro/net/topology.py", "Topology.hosts_in_pod"):
        "tests/fs/placement_oracle.py, the placement oracle, lists a pod's "
        "hosts with it",
    ("src/repro/net/topology.py", "Topology.pods"):
        "tests/fs/placement_oracle.py, the placement oracle, counts pods with "
        "it",
    ("src/repro/workload/zipf.py", "ZipfSampler.probability"):
        "oracle of tests/workload/test_zipf.py's sampling-frequency check",
    ("src/repro/core/flow_state.py", "FlowStateTable.flows_on_path"):
        "tests/core/eq2_oracle.py, the Eq. 2 oracle, gathers a path's "
        "competing flows with it",
    ("src/repro/net/fairshare.py", "single_link_fair_allocation"):
        "the reference every LinkMemo fill is tested against, and its "
        "fallback for a non-positive or negative demand",
    ("src/repro/net/rate_engine.py", "IncrementalRateEngine.rates"):
        "tests/net/test_rate_engine_properties.py compares it with the "
        "max-min oracle after every event",
    ("src/repro/telemetry/analyze.py", "Span.walk"):
        "tests/telemetry/test_causal.py finds the spans of an operation tree "
        "with it",
    ("src/repro/core/fanout.py", "FanoutPlan.edges"):
        "ground truth of tests/telemetry/test_causal.py",
    ("src/repro/core/fanout.py", "FanoutPlan.edges.<locals>.visit"):
        "ground truth of tests/telemetry/test_causal.py",
    ("src/repro/fs/nameserver.py", "Nameserver.exists"):
        "one of the handlers tests/fs/test_nameserver.py::"
        "test_namespace_replay_is_pinned drives and pins",
    ("src/repro/fs/dataserver.py", "Dataserver.file_size"):
        "tests/fs/test_ledger_model.py and test_promotion_property.py check "
        "each replica's stored length against their model through it",
    ("src/repro/analysis/protocheck.py", "ProtocolGraph.to_json_dict"):
        "protocheck --dump-graph; tests/analysis/test_protocheck.py::"
        "test_graph_dump_covers_the_write_path reads the effect graph with it",
    ("src/repro/analysis/protocheck.py", "_func_json"):
        "protocheck --dump-graph; tests/analysis/test_protocheck.py::"
        "test_graph_dump_covers_the_write_path reads the effect graph with it",
    ("src/repro/workload/trace.py", None):
        "the encoding of tests/workload/test_generator.py's workload pin; "
        "ROADMAP item 3 removes it",
    ("src/repro/net/simulator.py", "FlowNetwork.cancel_flow"):
        "four property tests drive flow churn with it",
    ("src/repro/core/cost.py", "LinkShareCache._entry"):
        "the memo lookup of the members/newcomer_allocation seams below",
    ("src/repro/core/cost.py", "LinkShareCache.members"):
        "seam of the share-cache differential test (kills three mutants)",
    ("src/repro/core/cost.py", "LinkShareCache.probe_share"):
        "seam of the share-cache differential test (kills three mutants)",
    ("src/repro/core/cost.py", "LinkShareCache.newcomer_allocation"):
        "seam of the share-cache differential test (kills three mutants)",
    ("src/repro/core/flowserver.py", "Flowserver.__enter__"):
        "tests/telemetry/test_integration.py runs under the context manager",
    ("src/repro/core/flowserver.py", "Flowserver.__exit__"):
        "tests/telemetry/test_integration.py runs under the context manager",
    ("src/repro/net/switch.py", "Switch.switch_id"):
        "tests/net/test_switch.py's poll recorder names the switch a poll "
        "reached with it",
    ("src/repro/net/switch.py", "Switch.attached_hosts"):
        "tests/net/test_switch.py checks rack membership through it",
    ("src/repro/rpc/fabric.py", "RpcFabric.is_down"):
        "tests/faults/test_injector.py::test_dataserver_crash_takes_endpoint_"
        "down reads a crashed dataserver's endpoint going down and up with it",
    ("src/repro/core/flowserver.py", "Flowserver.degraded"):
        "tests/core/test_degraded_mode.py reads degraded-mode entry and "
        "recovery through it",
    ("src/repro/rpc/fabric.py", "RpcFabric.unregister"):
        "seam: tests/fs/test_retry.py unregisters the nameserver to fail its "
        "calls; tests/rpc/test_fabric.py checks it drops the handler memo",
    ("src/repro/sim/process.py", "Signal.name"):
        "a label is joined only when read: by the fired-twice error and tests",
}


class Definition(NamedTuple):
    path: str           # relative to the tree, e.g. src/repro/net/links.py
    first: int          # first decorator line, else the ``def`` line
    last: int
    qualname: str
    enclosing: Tuple[int, ...]   # first lines of the enclosing functions


def definitions(tree: Path) -> List[Definition]:
    found: List[Definition] = []
    for path in sorted((tree / "src/repro").rglob("*.py")):
        rel = str(path.relative_to(tree))

        def walk(node: ast.AST, prefix: str, outer: Tuple[int, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] +
                                [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found.append(Definition(rel, first, child.end_lineno or first,
                                            name, outer))
                    walk(child, name + ".<locals>.", outer + (first,))
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", outer)
                else:
                    walk(child, prefix, outer)

        walk(ast.parse(path.read_text(), rel), "", ())
    return found


def measure(tree: Path, verbose: bool) -> Set[Tuple[str, int]]:
    """Run every consumer against ``tree``; return the ``(file, line)`` hits."""
    work = Path(tempfile.mkdtemp(prefix="reachability-"))
    try:
        hook_dir = work / "hook"
        hits_dir = work / "hits"
        hook_dir.mkdir()
        hits_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        src = tree / "src"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(hook_dir), str(src)]),
                   PYTHONHASHSEED="0",
                   REPRO_REACH_SRC=str(src / "repro") + os.sep,
                   REPRO_REACH_OUT=str(hits_dir))
        for label, argv in consumers(tree, work):
            if verbose:
                print(f"  running {label}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=work, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{label} exited {done.returncode}:\n"
                                 f"{done.stderr[-2000:]}")
        hits: Set[Tuple[str, int]] = set()
        for dump in hits_dir.glob("hits-*.json"):
            for filename, line in json.loads(dump.read_text()):
                rel = str(Path(filename).relative_to(tree))
                hits.add((rel, line))
        return hits
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Result(NamedTuple):
    total: int
    unreached: List[Definition]
    lines: int


def analyse(tree: Path, verbose: bool) -> Result:
    defs = definitions(tree)
    hits = measure(tree, verbose)
    missed = [d for d in defs if (d.path, d.first) not in hits]
    missed_firsts = {(d.path, d.first) for d in missed}
    # a nested function's lines are already inside its unreached parent's
    lines = sum(d.last - d.first + 1 for d in missed
                if not any((d.path, f) in missed_firsts for f in d.enclosing))
    return Result(len(defs), missed, lines)


def export(rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def package_of(path: str) -> str:
    parts = Path(path).with_suffix("").parts[1:]   # drop "src"
    return ".".join(parts[:2]) if len(parts) > 2 else "repro"


def render(result: Result, base: Optional[Tuple[str, Result]] = None) -> str:
    lines = [
        "Functions under src/repro that no non-test run calls.",
        "Regenerate: python tools/reachability.py --out tools/REACHABILITY.txt"
        + (f" --base {base[0]}" if base else ""),
        "Consumers: examples/*.py, python -m repro.experiments (all targets,",
        "fig4 --trace, writes --trace), telemetry summarize/analyze,",
        "validate_chrome_trace, benchmarks/test_*.py --benchmark-disable,",
        "benchmarks/ledger/run.py --reps 1 --scale 0.05, simlint, protocheck",
        "(text and json) and the explorer smoke.",
        "",
    ]
    if base:
        rev, before = base
        lines.append(f"at {rev}: {len(before.unreached)} of {before.total} "
                     f"functions unreached ({before.lines} lines)")
    lines.append(f"this tree: {len(result.unreached)} of {result.total} "
                 f"functions unreached ({result.lines} lines)")
    groups: Dict[str, List[Definition]] = defaultdict(list)
    for d in result.unreached:
        groups[package_of(d.path)].append(d)
    for package in sorted(groups):
        lines += ["", f"{package} ({len(groups[package])})"]
        for d in sorted(groups[package], key=lambda d: (d.path, d.first)):
            why = KEPT.get((d.path, d.qualname)) or KEPT.get((d.path, None))
            lines.append(f"  {d.path}:{d.first}  {d.qualname}  "
                         f"({d.last - d.first + 1} lines)"
                         + (f"  kept: {why}" if why else ""))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the report here, not to stdout")
    parser.add_argument("--base", metavar="REV",
                        help="also count the unreached functions at git REV")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="name each consumer as it starts")
    args = parser.parse_args(argv)
    base = None
    if args.base:
        scratch = Path(tempfile.mkdtemp(prefix="reachability-base-"))
        try:
            base = (args.base, analyse(export(args.base, scratch / "tree"),
                                       args.verbose))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    report = render(analyse(ROOT, args.verbose), base)
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
