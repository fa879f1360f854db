"""Command-line figure regeneration.

Usage::

    python -m repro.experiments                 # all figures, default scale
    python -m repro.experiments fig4 fig8       # a subset
    python -m repro.experiments --jobs 500 fig4 # bigger samples
    python -m repro.experiments --out results.txt

Available targets: fig2 (worked example), fig4, fig5, fig6, fig7, fig8,
multireplica, writes (traced pipelined-append workload), claims.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import figures, report
from repro.experiments.claims import check_headline_claims, render_claims
from repro.experiments.wallclock import Stopwatch

TARGETS = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "multireplica",
           "writes", "claims")


def _fig2_report() -> str:
    """The worked example, evaluated live against the cost model."""
    from repro.core.cost import flow_cost
    from repro.core.flow_state import FlowStateTable, TrackedFlow
    from repro.net import LinkDirection, RoutingTable, Tier, Topology
    from repro.net.topology import Host, SwitchNode

    MBPS = 1e6
    topo = Topology()
    for sid, tier in [("E1", Tier.EDGE), ("E2", Tier.EDGE),
                      ("A1", Tier.AGGREGATION), ("A2", Tier.AGGREGATION)]:
        topo.add_switch(SwitchNode(sid, tier, pod="p0"))
    topo.add_host(Host("S", rack="E1", pod="p0"))
    topo.add_host(Host("R", rack="E2", pod="p0"))
    for a, b in [("S", "E1"), ("E1", "A1"), ("E1", "A2"),
                 ("A1", "E2"), ("A2", "E2"), ("E2", "R")]:
        topo.add_cable(a, b, 10 * MBPS, LinkDirection.UP)
    state = FlowStateTable()
    for fid, link, mbps in [
        ("2a", "E1->A1", 2), ("2b", "E1->A1", 2), ("6", "E1->A1", 6),
        ("10", "A1->E2", 10),
        ("2c", "E1->A2", 2), ("2d", "E1->A2", 2), ("4", "E1->A2", 4),
        ("8", "A2->E2", 8),
    ]:
        state.add(TrackedFlow(fid, (link,), 20e6, 6e6, mbps * MBPS))
    capacities = {lid: l.capacity_bps for lid, l in topo.links.items()}
    routing = RoutingTable(topo)
    lines = ["Figure 2 worked example (paper: C1=4.25, C2=3.6):"]
    for path in routing.paths("S", "R"):
        via = "A1" if "E1->A1" in path.link_ids else "A2"
        cost = flow_cost(path.link_ids, 9e6, capacities, state)
        lines.append(f"  cost via {via}: {cost.total:.3f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("targets", nargs="*", default=[], metavar="TARGET",
                        help=f"one of {', '.join(TARGETS)} (default: all)")
    parser.add_argument("--jobs", type=int, default=300,
                        help="jobs per scheme run (default 300)")
    parser.add_argument("--cluster-jobs", type=int, default=120,
                        help="jobs per Fig. 8 cell (default 120)")
    parser.add_argument("--files", type=int, default=100,
                        help="file catalogue size (default 100)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--trace", type=str, default=None, metavar="DIR",
                        help="record a deterministic telemetry trace into DIR "
                             "(trace.jsonl, trace.json for Perfetto, "
                             "metrics.prom)")
    args = parser.parse_args(argv)

    targets = args.targets or list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target(s) {unknown}; expected {TARGETS}")

    tel = None
    if args.trace is not None:
        import repro.telemetry as telemetry

        tel = telemetry.install()

    sections = []
    stopwatch = Stopwatch()
    kwargs = dict(seed=args.seed, num_jobs=args.jobs, num_files=args.files)
    for target in targets:
        if target == "fig2":
            sections.append(_fig2_report())
        elif target == "fig4":
            from repro.experiments.charts import chart_figure4

            result = figures.figure4(**kwargs)
            sections.append(
                report.render_figure4(result) + "\n\n" + chart_figure4(result)
            )
        elif target == "fig5":
            sections.append(report.render_figure5(figures.figure5(**kwargs)))
        elif target == "fig6":
            from repro.experiments.charts import chart_figure6_panel

            result = figures.figure6(**kwargs)
            charts = "\n\n".join(
                chart_figure6_panel(panel) for panel in result["panels"].values()
            )
            sections.append(report.render_figure6(result) + "\n\n" + charts)
        elif target == "fig7":
            sections.append(report.render_figure7(figures.figure7(**kwargs)))
        elif target == "fig8":
            sections.append(
                report.render_figure8(
                    figures.figure8(
                        seed=args.seed,
                        num_jobs=args.cluster_jobs,
                        num_files=max(10, args.files // 2),
                    )
                )
            )
        elif target == "multireplica":
            sections.append(
                report.render_multireplica(figures.multireplica_ablation(**kwargs))
            )
        elif target == "writes":
            from repro.experiments.writes import render_writes, run_writes

            sections.append(render_writes(run_writes(seed=args.seed)))
        elif target == "claims":
            sections.append(
                render_claims(check_headline_claims(figures.figure4(**kwargs)))
            )
        print(sections[-1], end="\n\n", flush=True)

    footer = f"(regenerated in {stopwatch.elapsed():.1f}s wall time)"
    print(footer)
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n\n".join(sections) + "\n\n" + footer + "\n")
    if tel is not None:
        import repro.telemetry as telemetry
        from pathlib import Path

        telemetry.uninstall()
        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
        telemetry.write_jsonl(tel.tracer, trace_dir / "trace.jsonl")
        telemetry.write_chrome_trace(
            tel.tracer, trace_dir / "trace.json", registry=tel.metrics
        )
        telemetry.write_prometheus(tel.metrics, trace_dir / "metrics.prom")
        print(f"trace written to {trace_dir}/ "
              f"({len(tel.tracer)} events; open trace.json in "
              "https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
