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
