"""One rep of one workload, in an interpreter of its own.

Started by ``run.py`` with a JSON spec as the only argument; prints one
JSON object as the last line of standard output.  ``setup_s`` runs from
the first statement below, before ``repro`` (and with it networkx and
scipy) is imported, to the start of the timed section.
"""

import time

_T0 = time.perf_counter()  # simlint: ignore[DET001] host-time benchmark clock

import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _clock() -> float:
    return time.perf_counter()  # simlint: ignore[DET001] host-time benchmark clock


def _rep(spec: dict) -> dict:
    from ledgerlib import layers, workloads

    rep_class = workloads.load(spec["workload"])
    imported = _clock()

    telemetry = None
    if spec["mode"] == "telemetry":
        import repro.telemetry

        telemetry = repro.telemetry.install()
    profiler = cProfile.Profile(builtins=False) if spec["mode"] == "profile" else None
    if profiler is not None:
        profiler.enable()
    rep = rep_class(spec["params"], spec["trace_seed"], spec["scratch"])
    gc.collect()
    started = _clock()
    rep.run()
    finished = _clock()
    if profiler is not None:
        profiler.disable()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outcome = rep.outcome()
    counters, missing = layers.read_counters(outcome.roots)
    profile = None
    if profiler is not None:
        profile, gone = layers.collapse(profiler.getstats())
        missing += gone
    rep.close()
    return {
        "import_s": imported - _T0,
        "setup_s": started - _T0,
        "wall_s": finished - started,
        "peak_rss_mb": peak_kib / 1024.0,
        "latencies": outcome.latencies,
        "append_latencies": outcome.append_latencies,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "counters": counters,
        "missing": sorted(missing),
        "dropped_knobs": outcome.dropped_knobs,
        "profile": profile,
        "telemetry_events": len(telemetry.tracer) if telemetry else None,
    }


def _guard(spec: dict) -> dict:
    from ledgerlib.flow_reads import paper_shape_guard

    return paper_shape_guard(spec["params"], spec["trace_seed"])


def main() -> int:
    spec = json.loads(sys.argv[1])
    ledger_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(ledger_dir.parent.parent / "src"))
    result = _guard(spec) if spec["mode"] == "guard" else _rep(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
