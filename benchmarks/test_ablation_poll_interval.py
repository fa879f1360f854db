"""Ablation — flow-stats polling interval.

§3.3.3: analytic updates between polls "reduce[] the need to poll the
switches at very short intervals".  This sweep shows Mayflower is robust
to coarse polling: performance at 4 s polls stays close to 0.5 s polls,
because selections are corrected analytically on every flow add/drop.
"""

from conftest import attach_report

from repro.core.flowserver import FlowserverConfig
from repro.experiments.metrics import summarize
from repro.experiments.runner import (
    SchemeRunConfig,
    completion_times,
    run_scheme_on_workload,
)
from repro.net import three_tier
from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload


def test_poll_interval_sweep(benchmark, bench_scale):
    num_jobs = max(100, bench_scale["jobs"] // 2)
    seed = bench_scale["seed"]
    topo = three_tier()
    workload = generate_workload(
        topo,
        WorkloadConfig(
            num_files=100,
            num_jobs=num_jobs,
            arrival_rate_per_server=0.10,
            locality=LocalityDistribution(0.33, 0.33, 0.34),
        ),
        seed=seed,
    )

    def sweep():
        results = {}
        for interval in (0.5, 1.0, 2.0, 4.0):
            config = SchemeRunConfig(
                flowserver=FlowserverConfig(poll_interval=interval)
            )
            results[interval] = summarize(
                completion_times(
                    run_scheme_on_workload("mayflower", workload, config, seed=seed)
                )
            )
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    lines = ["Ablation: stats poll interval (Mayflower)"]
    for interval, stats in results.items():
        lines.append(
            f"  poll={interval:>3.1f}s  mean={stats.mean:.2f}s  p95={stats.p95:.2f}s"
        )
    attach_report(benchmark, "\n".join(lines))

    # Coarse polling must not collapse performance (within 35% of fine).
    fine = results[0.5].mean
    coarse = results[4.0].mean
    assert coarse <= fine * 1.35


# ---------------------------------------------------------------------------
# Ablation — fixed vs adaptive monitoring across fabric scale
# ---------------------------------------------------------------------------

MONITORING_SCALES = ((4, 4), (8, 4), (8, 8))  # 16 / 32 / 64 edge switches


def _run_monitoring_mode(poll_mode, topo, workload, seed):
    counters = {}

    def grab(env):
        collector = env.flowserver.collector
        counters.update(
            poll_messages=sum(collector.poll_messages.values()),
            poll_bytes=sum(collector.poll_bytes.values()),
            push_messages=sum(collector.push_messages.values()),
            push_bytes=sum(collector.push_bytes.values()),
        )

    stats = summarize(
        completion_times(
            run_scheme_on_workload(
                "mayflower",
                workload,
                SchemeRunConfig(
                    topology=topo,
                    flowserver=FlowserverConfig(poll_mode=poll_mode),
                ),
                seed=seed,
                on_env=grab,
            )
        )
    )
    return stats, counters


def test_monitoring_mode_ablation(benchmark, bench_scale):
    """Adaptive vs fixed monitoring: same fig. 4 metric, a fraction of
    the stats traffic — and the savings must *grow* with switch count.

    Emits ``BENCH_monitoring.json`` (fig. 4 metric plus poll/push
    message and byte volume per scale) for the CI artifact.
    """
    import json
    from pathlib import Path

    seed = bench_scale["seed"]
    num_jobs = max(60, bench_scale["jobs"] // 4)

    def sweep():
        rows = []
        for pods, racks in MONITORING_SCALES:
            topo = three_tier(pods=pods, racks_per_pod=racks)
            edge_switches = pods * racks
            workload = generate_workload(
                topo,
                WorkloadConfig(
                    num_files=100,
                    num_jobs=num_jobs,
                    arrival_rate_per_server=0.03,
                    locality=LocalityDistribution(0.33, 0.33, 0.34),
                ),
                seed=seed,
            )
            fixed_stats, fixed_counters = _run_monitoring_mode(
                "fixed", topo, workload, seed
            )
            adaptive_stats, adaptive_counters = _run_monitoring_mode(
                "adaptive", topo, workload, seed
            )
            rows.append(
                {
                    "edge_switches": edge_switches,
                    "fixed": {
                        "mean_s": fixed_stats.mean,
                        "p95_s": fixed_stats.p95,
                        **fixed_counters,
                    },
                    "adaptive": {
                        "mean_s": adaptive_stats.mean,
                        "p95_s": adaptive_stats.p95,
                        **adaptive_counters,
                    },
                    "poll_message_ratio": fixed_counters["poll_messages"]
                    / max(1, adaptive_counters["poll_messages"]),
                    "total_message_ratio": fixed_counters["poll_messages"]
                    / max(
                        1,
                        adaptive_counters["poll_messages"]
                        + adaptive_counters["push_messages"],
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)

    Path("BENCH_monitoring.json").write_text(
        json.dumps({"seed": seed, "jobs": num_jobs, "scales": rows}, indent=2)
        + "\n"
    )

    lines = ["Ablation: monitoring mode (fixed vs adaptive)"]
    for row in rows:
        lines.append(
            f"  {row['edge_switches']:>3} edges  "
            f"mean {row['fixed']['mean_s']:.2f}s -> "
            f"{row['adaptive']['mean_s']:.2f}s  "
            f"poll msgs {row['fixed']['poll_messages']} -> "
            f"{row['adaptive']['poll_messages']} "
            f"({row['poll_message_ratio']:.1f}x, "
            f"{row['total_message_ratio']:.1f}x incl. push)"
        )
    attach_report(benchmark, "\n".join(lines))

    for row in rows:
        # selection quality must not move (fig. 4 metric within 5%)
        assert row["adaptive"]["mean_s"] <= row["fixed"]["mean_s"] * 1.05
    ratios = [row["poll_message_ratio"] for row in rows]
    # savings grow with fabric scale and clear 10x at 64 edge switches
    assert ratios == sorted(ratios), ratios
    assert ratios[-1] >= 10.0, ratios
