"""§4.3 — reading from multiple replicas (ablation).

Paper: "the completion time of read jobs is further reduced up to 10% on
average.  Moreover, the average difference of finish time between the two
subflows of a read job is less than a second when reading a 256 MB
block."  Shape assertions: split reads happen, never hurt on average, and
subflow finish times stay close.
"""

from conftest import attach_report

from repro.core import build_control_plane
from repro.experiments.figures import multireplica_ablation
from repro.experiments.report import render_multireplica
from repro.net import three_tier

MB = 8e6


def test_multireplica_ablation(benchmark, bench_scale):
    result = benchmark.pedantic(
        multireplica_ablation,
        kwargs=dict(
            seed=bench_scale["seed"],
            num_jobs=max(100, bench_scale["jobs"] // 2),
            num_files=bench_scale["files"],
        ),
        iterations=1,
        rounds=1,
    )
    attach_report(benchmark, render_multireplica(result))

    res = result["results"]
    assert res["split"]["split_jobs"] > 0, "split reads never triggered"
    assert res["single"]["split_jobs"] == 0
    # Splits help on average (paper: up to ~10%); allow a small noise band.
    assert res["improvement"] > -0.02
    assert res["split"]["mean_s"] <= res["single"]["mean_s"] * 1.02


def test_subflows_finish_within_a_second():
    """Direct check of the <1 s subflow finish-time gap at 256 MB."""
    plane = build_control_plane(three_tier())
    loop, controller, flowserver = plane.loop, plane.controller, plane.flowserver

    gaps = []
    pairs = [
        ("pod0-rack0-h0", ["pod1-rack0-h0", "pod2-rack0-h0"]),
        ("pod0-rack1-h0", ["pod1-rack1-h0", "pod3-rack0-h0"]),
        ("pod1-rack2-h1", ["pod2-rack2-h0", "pod0-rack3-h2"]),
    ]
    for client, replicas in pairs:
        result = flowserver.select(client, replicas, 256 * MB)
        if not result.is_split:
            continue
        finishes = []
        for a in result.assignments:
            controller.start_transfer(
                a.flow_id, a.path, a.size_bits,
                on_complete=lambda f: finishes.append(f.end_time),
            )
        loop.run()
        assert len(finishes) == 2
        gaps.append(abs(finishes[0] - finishes[1]))
    assert gaps, "no read was split"
    assert max(gaps) < 1.0
