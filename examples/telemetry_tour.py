#!/usr/bin/env python3
"""A tour of the deterministic telemetry layer.

Installs a telemetry session, runs a small Fig. 4-style workload under
the Mayflower scheme, and shows the three views the session records:

* the span/event stream (selection decisions — each with its kind, the
  replicas chosen and how many candidate paths Eq. 2 evaluated — plus
  transfer spans and polls),
* the metrics registry (counters + the candidate-count histogram),
* the periodic time series (link utilization on the sim clock),

then exports all of it — trace.jsonl, Perfetto-loadable trace.json and a
Prometheus text dump — into ./telemetry_tour_out/.  Because every
timestamp comes from the simulated clock, re-running this script yields
byte-identical artifacts.

Run:  python examples/telemetry_tour.py
"""

from pathlib import Path

import repro.telemetry as telemetry
from repro.experiments.runner import run_scheme_on_workload
from repro.net import three_tier
from repro.telemetry import build_spans
from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload

OUT_DIR = Path(__file__).resolve().parent / "telemetry_tour_out"


def main():
    topo = three_tier()
    workload = generate_workload(
        topo,
        WorkloadConfig(
            num_files=30,
            num_jobs=50,
            arrival_rate_per_server=0.07,
            locality=LocalityDistribution(0.5, 0.3, 0.2),
        ),
        seed=7,
    )

    with telemetry.session() as tel:
        records = run_scheme_on_workload("mayflower", workload, seed=7)
    print(f"ran {len(records)} jobs; recorded {len(tel.tracer)} trace events\n")

    # -- the span stream ------------------------------------------------
    decisions = [e for e in tel.tracer.events if e.name == "flowserver.select"]
    # The first three decisions, then the first §4.3 split read.
    shown = decisions[:3] + [
        e for e in decisions[3:] if e.args["kind"] == "split"
    ][:1]
    print(f"selection decisions traced: {len(decisions)}; first three "
          "and first split:")
    for event in shown:
        args = event.args
        print(f"  t={event.ts:8.3f}s  {args['request']:<10} "
              f"{args['kind'].upper():<7} -> {' + '.join(args['chosen'])} "
              f"({args['candidates']} paths evaluated)")

    transfers = [
        span for span in build_spans(
            [e for e in tel.tracer.events if e.cat == "transfer"])
        if span.end is not None
    ]
    slowest = max(transfers, key=lambda span: span.duration)
    print(f"\ntransfer spans closed: {len(transfers)}; slowest "
          f"{slowest.span_id} took {slowest.duration:.3f}s")

    # -- the metrics registry -------------------------------------------
    m = tel.metrics

    def val(name):  # every counter reads its component's own attribute
        return m.value(name)

    print(f"\nrequests={val('flowserver_requests_total'):.0f}  "
          f"split={val('flowserver_split_reads_total'):.0f}  "
          f"local={val('flowserver_local_reads_total'):.0f}  "
          f"polls={val('collector_polls_total'):.0f}")
    hist = m.get("flowserver_candidates_evaluated")
    print("candidate-paths histogram (cumulative):")
    for bound, count in zip(hist.bounds, hist.cumulative_counts()):
        print(f"  <= {bound:4.0f}: {count}")

    # -- the periodic time series ---------------------------------------
    series = tel.sampler.series["link_utilization_max"]
    peak_t, peak = max(series, key=lambda tv: tv[1])
    print(f"\nlink utilization sampled {len(series)}x; "
          f"peak max-link load {peak:.0%} at t={peak_t:.0f}s")

    # -- export ---------------------------------------------------------
    OUT_DIR.mkdir(exist_ok=True)
    telemetry.write_jsonl(tel.tracer, OUT_DIR / "trace.jsonl")
    telemetry.write_chrome_trace(tel.tracer, OUT_DIR / "trace.json",
                                 registry=tel.metrics)
    telemetry.write_prometheus(tel.metrics, OUT_DIR / "metrics.prom")
    print(f"\nexported to {OUT_DIR.name}/ — load trace.json in "
          "https://ui.perfetto.dev, or try:\n"
          f"  python -m repro.telemetry summarize {OUT_DIR.name}/trace.jsonl")
    print("done.")


if __name__ == "__main__":
    main()
