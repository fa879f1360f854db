"""Extension bench — Flowserver-co-designed write placement (§3.3).

The paper leaves congestion-aware ("Sinbad-like") placement as future
work, noting the nameserver could decide collaboratively with the
Flowserver.  This bench measures it: under a background read workload,
write jobs (writer → primary, then primary → both secondaries) are placed
either statically (the §6.1 policy) or by
:class:`repro.cluster.planners.FlowserverWritePlacement`, and the full write pipeline
completion times are compared.
"""

from conftest import attach_report

from repro.cluster.planners import FlowserverWritePlacement
from repro.core import build_control_plane
from repro.experiments.metrics import summarize
from repro.fs.placement import PaperEvalPlacement
from repro.net import three_tier
from repro.sim import RandomStreams
from repro.workload import LocalityDistribution, WorkloadConfig, generate_workload

MB = 8e6
WRITE_BITS = 256 * MB


def _run(placement_kind: str, num_writes: int, seed: int):
    """Write pipeline completion times under a background read load."""
    topo = three_tier()
    plane = build_control_plane(topo)
    loop, net, routing = plane.loop, plane.network, plane.routing
    controller, flowserver = plane.controller, plane.flowserver
    streams = RandomStreams(seed)
    monitor = None

    if placement_kind == "flowserver":
        placement = FlowserverWritePlacement(
            topo, routing, flowserver, streams.stream("placement"),
            candidates_per_tier=8,
        )
    elif placement_kind == "sinbad":
        from repro.baselines.monitor import EndHostMonitor
        from repro.baselines.sinbad_placement import SinbadWritePlacement

        monitor = EndHostMonitor(loop, net, sample_interval=1.0)
        placement = SinbadWritePlacement(
            topo, monitor, streams.stream("placement"), candidates_per_tier=8
        )
    else:
        placement = PaperEvalPlacement(topo, streams.stream("placement"))

    # Background reads keep the network busy (Mayflower-scheduled).
    background = generate_workload(
        topo,
        WorkloadConfig(
            num_files=100,
            num_jobs=num_writes * 2,
            arrival_rate_per_server=0.06,
            locality=LocalityDistribution(0.33, 0.33, 0.34),
        ),
        seed=seed + 1,
    )

    def start_read(job):
        result = flowserver.select(job.client, list(job.file.replicas), job.size_bits)
        for a in result.assignments:
            if a.path is not None:
                controller.start_transfer(a.flow_id, a.path, a.size_bits)

    for job in background.jobs:
        loop.call_at(job.arrival_time, start_read, job)

    # Write jobs: Poisson arrivals from random writers.
    write_rng = streams.stream("writes")
    hosts = sorted(topo.hosts)
    durations = []
    flow_seq = [0]

    def transfer(src, dst, bits, done):
        flow_seq[0] += 1
        result = flowserver.select_path_only(dst, src, bits)
        (assignment,) = result.assignments
        if assignment.path is None:
            done()
            return
        controller.start_transfer(
            assignment.flow_id, assignment.path, assignment.size_bits,
            on_complete=lambda f: done(),
        )

    def start_write(writer, started):
        replicas = placement.place(3, writer=writer)
        pending = [2]

        def secondary_done():
            pending[0] -= 1
            if pending[0] == 0:
                durations.append(loop.now - started)

        def primary_done():
            for secondary in replicas[1:]:
                transfer(replicas[0], secondary, WRITE_BITS, secondary_done)

        transfer(writer, replicas[0], WRITE_BITS, primary_done)

    now = 0.0
    rate = 0.02 * len(hosts)
    for _ in range(num_writes):
        now += write_rng.expovariate(rate)
        writer = hosts[write_rng.randrange(len(hosts))]
        loop.call_at(now, start_write, writer, now)

    while len(durations) < num_writes and loop.peek_time() is not None:
        if loop.now > 50000:
            raise RuntimeError("write workload saturated")
        loop.step()
    flowserver.close()
    if monitor is not None:
        monitor.stop()
    return summarize(durations)


def test_write_placement_codesign(benchmark, bench_scale):
    num_writes = max(60, bench_scale["jobs"] // 4)
    seed = bench_scale["seed"]

    def run_all():
        return {
            "static": _run("static", num_writes, seed),
            "sinbad": _run("sinbad", num_writes, seed),
            "flowserver": _run("flowserver", num_writes, seed),
        }

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    static = results["static"]
    sinbad = results["sinbad"]
    codesign = results["flowserver"]
    report = (
        "Extension: write placement — static vs Sinbad vs Flowserver co-design\n"
        f"  static (§6.1) placement  mean={static.mean:.2f}s p95={static.p95:.2f}s\n"
        f"  sinbad (end-host stats)  mean={sinbad.mean:.2f}s p95={sinbad.p95:.2f}s\n"
        f"  flowserver co-design     mean={codesign.mean:.2f}s p95={codesign.p95:.2f}s\n"
        f"  co-design improvement over static: "
        f"{100 * (1 - codesign.mean / static.mean):.1f}% avg\n"
        "  (Sinbad's stale sampled view herds concurrent writes onto the\n"
        "   same 'idle' hosts between samples — §1's estimation-error\n"
        "   critique, reproduced)"
    )
    attach_report(benchmark, report)

    # The co-designed placement beats both the static policy and the
    # sampled-stats policy; Sinbad itself may even lose to static under
    # bursty writes (the herding pathology §1 describes), so no ordering
    # is asserted between those two.
    assert codesign.mean <= static.mean * 1.02
    assert codesign.mean <= sinbad.mean * 1.02
    assert codesign.p95 <= static.p95 * 1.05
