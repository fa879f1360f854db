"""The perf ledger: one command for every workload, metric and check.

Ledger mode (writes one JSON record, exits non-zero if a check fails)::

    python benchmarks/ledger/run.py [--workload NAME] [--seed 42] [--reps 3]
                                    [--scale 1.0] [--out FILE]
    python benchmarks/ledger/run.py compare BASE.json HEAD.json
    python benchmarks/ledger/run.py table RECORD.json

Driver mode (the ``BENCHMARK.json`` contract: one workload per call, the
result as one JSON object on the last line of standard output)::

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Every (workload, rep) runs in a fresh child interpreter, one after the
other, so imports, peak memory and caches are per rep.  Rep *k* replays
sub-trace *k* of the seed; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledgerlib import layers, record, workloads

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
#: Only ``dfs_mixed_64`` pays for the extra rep under ``repro.telemetry``.
TELEMETRY_WORKLOAD = "dfs_mixed_64"
#: The paper-shape guard replays ``flow_reads_64``'s parameters.
GUARD_WORKLOAD = "flow_reads_64"
#: Driver mode keeps adding reps until their timed sections sum to
#: ``--seconds``; this caps a run whose reps became very short.
MAX_TIMED_REPS = 6
CHILD_TIMEOUT_S = 170

#: What driver mode prints (``BENCHMARK.json`` lists the same names).
#: ``failed_frac`` travels as the result's ``failed``/``attempted`` and
#: the append latencies only exist on one workload, so they ride with
#: the per-layer set, where a metric may be 0.
DRIVER_END_TO_END = (
    "wall_s", "ops_per_s", "setup_s", "peak_rss_mb", "sim_mean_s", "sim_p95_s",
)
DRIVER_APPEND = ("sim_append_mean_s", "sim_append_p95_s")


class LedgerError(RuntimeError):
    """A child interpreter failed; the message carries its stderr tail."""


def sub_trace_seed(seed: int, rep: int) -> int:
    """Seed of sub-trace ``rep`` of ``seed`` (what the child keys its streams by)."""
    digest = hashlib.sha256(f"{seed}/rep/{rep}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_child(out_dir: Path, workload: str, params: Dict[str, Any],
              trace_seed: int, mode: str) -> Dict[str, Any]:
    """Run ``child.py`` once and return the JSON object it printed."""
    scratch = out_dir / "tmp" / f"{os.getpid()}-{workload}-{mode}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spec = {"workload": workload, "params": params, "trace_seed": trace_seed,
            "mode": mode, "scratch": str(scratch)}
    try:
        done = subprocess.run(
            [sys.executable, str(LEDGER_DIR / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
    except subprocess.TimeoutExpired as err:
        raise LedgerError(f"{workload} ({mode}) exceeded {CHILD_TIMEOUT_S} s") from err
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        raise LedgerError(
            f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def timed_reps(out_dir: Path, name: str, seed: int, scale: float,
               reps: Optional[int], seconds: Optional[float]) -> List[Dict[str, Any]]:
    """The untraced reps: a fixed count, or until ``seconds`` are measured."""
    params = workloads.params_for(name, scale)
    done: List[Dict[str, Any]] = []
    while True:
        done.append(
            run_child(out_dir, name, params, sub_trace_seed(seed, len(done)), "plain"))
        if reps is not None:
            if len(done) >= reps:
                return done
        elif (sum(r["wall_s"] for r in done) >= seconds
              or len(done) >= MAX_TIMED_REPS):
            return done


def traced_pass(out_dir: Path, name: str, seed: int, scale: float,
                plain: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer block: sub-trace 0 again under the profiler (and, on one
    workload, under ``repro.telemetry``), next to the untraced reps."""
    params = workloads.params_for(name, scale)
    first = plain[0]
    traced = run_child(out_dir, name, params, sub_trace_seed(seed, 0), "profile")
    values: Dict[str, Optional[float]] = dict(traced["profile"])
    values.update(first["counters"])

    def build_and_run(rep: Dict[str, Any]) -> float:
        return rep["setup_s"] - rep["import_s"] + rep["wall_s"]

    values["trace.overhead_frac"] = build_and_run(traced) / build_and_run(first) - 1.0
    values["sim.us_per_event"] = statistics.median(
        rep["wall_s"] * 1e6 / rep["counters"]["sim.events"] for rep in plain)
    checks = {
        "profiler_leaves_digest": traced["digest"] == first["digest"],
        "profiler_leaves_counters": traced["counters"] == first["counters"],
    }
    if name == TELEMETRY_WORKLOAD:
        observed = run_child(
            out_dir, name, params, sub_trace_seed(seed, 0), "telemetry")
        values["telemetry.overhead_frac"] = observed["wall_s"] / first["wall_s"] - 1.0
        values["telemetry.events"] = observed["telemetry_events"]
        checks["telemetry_leaves_digest"] = observed["digest"] == first["digest"]
    return {
        "per_layer": {n: values.get(n) for n in layers.per_layer_names()},
        "missing": sorted(set(traced["missing"]) | set(first["missing"])),
        "checks": checks,
    }


def rep_checks(reps: List[Dict[str, Any]]) -> Dict[str, Optional[bool]]:
    """Each named check, true only if it held in every rep."""
    merged: Dict[str, Optional[bool]] = {}
    for rep in reps:
        for check, ok in rep["checks"].items():
            if ok is not None:
                merged[check] = merged.get(check, True) and ok
            else:
                merged.setdefault(check, None)
    merged["no_op_failed"] = all(rep["failed"] == 0 for rep in reps)
    return merged


def failed_checks(checks: Dict[str, Optional[bool]]) -> List[str]:
    return sorted(name for name, ok in checks.items() if ok is False)


# ----------------------------------------------------------------------
# Driver mode
# ----------------------------------------------------------------------

def driver(args: argparse.Namespace) -> int:
    out_dir = LEDGER_DIR / "out"
    name = args.workload
    try:
        if args.trace:
            plain = timed_reps(out_dir, name, args.seed, args.scale, 1, None)
            layer = traced_pass(out_dir, name, args.seed, args.scale, plain)
        else:
            plain = timed_reps(
                out_dir, name, args.seed, args.scale, None, args.seconds)
    finally:
        shutil.rmtree(out_dir / "tmp", ignore_errors=True)
    block = record.end_to_end(plain)
    checks = rep_checks(plain)
    if args.trace:
        checks.update(layer["checks"])
        values = dict(layer["per_layer"])
        values.update({m: block[m]["value"] for m in DRIVER_APPEND})
    else:
        values = {m: block[m]["value"] for m in DRIVER_END_TO_END}
    for failed in failed_checks(checks):
        print(f"check failed: {failed}", file=sys.stderr)
    # A layer metric that does not apply to this workload reads 0 here;
    # the ledger record keeps the distinction (null plus ``missing``).
    metrics = {
        metric: {"value": value if value is not None else 0.0,
                 "unit": record.unit_of(metric)}
        for metric, value in values.items()
    }
    print(json.dumps({
        "correct": not failed_checks(checks),
        "attempted": sum(rep["attempted"] for rep in plain),
        "failed": sum(rep["failed"] for rep in plain),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Ledger mode
# ----------------------------------------------------------------------

def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_workload(name: str, block: Dict[str, Any]) -> None:
    print(f"== {name}: {workloads.WORKLOADS[name].why}")
    for metric, entry in block["end_to_end"].items():
        value = entry["value"]
        detail = ""
        if "reps" in entry:
            detail = "  reps " + " ".join(f"{v:.4g}" for v in entry["reps"])
        elif entry.get("n"):
            detail = f"  n={entry['n']}"
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<20}{shown:>14} {entry['unit']:<6}{detail}")
    print(f"  {'digest':<20}{block['digest']}")
    for metric, value in block["per_layer"].items():
        if value is not None:
            print(f"  {metric:<46}{value:>16.6g} {record.unit_of(metric)}")
    absent = [m for m, v in block["per_layer"].items() if v is None]
    print(f"  not applicable here: {' '.join(absent) or '-'}")
    print(f"  missing (removed from the tree): {' '.join(block['missing']) or '-'}")
    for check, ok in block["checks"].items():
        state = "n/a" if ok is None else "ok" if ok else "FAILED"
        print(f"  check {check:<32}{state}")
    for note in block["notes"]:
        print(f"    note: {note}")


def ledger(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    out_path = Path(args.out) if args.out else (
        LEDGER_DIR / "out" / f"record-seed{args.seed}.json")
    out_dir = out_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    result: Dict[str, Any] = {
        "schema": record.SCHEMA,
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "reps": args.reps,
        "scale": args.scale,
        # Exactly the frozen constants, or not comparable at all.
        "comparable": args.scale == 1.0,  # simlint: ignore[DET004]
        "workloads": {},
        "checks": {},
    }
    try:
        for name in names:
            plain = timed_reps(out_dir, name, args.seed, args.scale, args.reps, None)
            layer = traced_pass(out_dir, name, args.seed, args.scale, plain)
            block = {
                "constants": workloads.params_for(name, args.scale),
                "end_to_end": record.end_to_end(plain),
                "digest": record.pooled_digest(plain),
                "per_layer": layer["per_layer"],
                "missing": layer["missing"],
                "dropped_knobs": plain[0]["dropped_knobs"],
                "checks": dict(rep_checks(plain), **layer["checks"]),
                "notes": sorted({n for rep in plain for n in rep["notes"]}),
            }
            result["workloads"][name] = block
            print_workload(name, block)
        if GUARD_WORKLOAD in names:
            guard = run_child(
                out_dir, GUARD_WORKLOAD,
                workloads.params_for(GUARD_WORKLOAD, args.scale),
                sub_trace_seed(args.seed, 0), "guard")
            result["checks"]["paper_shape_guard"] = guard
            print(
                f"== paper-shape guard ({guard['jobs']} jobs): nearest-ecmp / "
                f"mayflower mean job time = {guard['ratio']:.2f}x, floor "
                f"{guard['floor']}x, paper's Fig. 4 reports {guard['paper']}x "
                "(a check against the paper's figure, not a hardware measurement): "
                + ("ok" if guard["ok"] else "FAILED"))
    finally:
        shutil.rmtree(out_dir / "tmp", ignore_errors=True)
    problems = record.validate(result)
    failures = [
        f"{name}: {check}" for name, block in result["workloads"].items()
        for check in failed_checks(block["checks"])]
    if not result["checks"].get("paper_shape_guard", {"ok": True})["ok"]:
        failures.append("paper_shape_guard")
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"record written to {out_path}")
    for line in problems + failures:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if problems or failures else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"] and len(argv) == 3:
        base, head = (json.loads(Path(p).read_text()) for p in argv[1:])
        try:
            print(record.render_compare(record.compare(base, head)))
        except ValueError as err:
            print(f"compare refused: {err}", file=sys.stderr)
            return 2
        return 0
    if argv[:1] == ["table"] and len(argv) == 2:
        print(record.render_table(json.loads(Path(argv[1]).read_text())))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply op counts (smoke runs; record not comparable)")
    parser.add_argument("--out", help="record file (default: out/ in the ledger)")
    parser.add_argument("--seconds", type=float,
                        help="driver mode: host seconds of timed sections to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds is None and args.trace is None:
        return ledger(args)
    if args.workload is None or args.seconds is None or args.trace is None:
        parser.error("driver mode needs --workload, --seconds and --trace")
    return driver(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except LedgerError as err:
        print(f"ledger: {err}", file=sys.stderr)
        sys.exit(1)
