#!/usr/bin/env python3
"""Watching the Flowserver think: decision tracing.

Enables the bounded decision log and replays a short burst of read
requests, then prints the Flowserver's own account of what it chose and
why — local reads, single flows, and §4.3 split reads, with estimated
bandwidths and the number of candidate paths each decision evaluated.

Run:  python examples/flowserver_tracing.py
"""

from repro.core import FlowserverConfig, build_control_plane
from repro.net import three_tier
from repro.sim.randomness import seeded_rng

MB = 8e6


def main():
    topo = three_tier()
    plane = build_control_plane(topo, config=FlowserverConfig(decision_log_size=50))
    controller, flowserver = plane.controller, plane.flowserver
    rng = seeded_rng(4)
    hosts = sorted(topo.hosts)

    # A burst of reads: some local, some same-pod, some cross-pod (which
    # may split across two replicas), against a progressively busier net.
    requests = [
        ("pod0-rack0-h0", ["pod0-rack0-h0", "pod1-rack0-h0"]),        # local
        ("pod0-rack0-h1", ["pod0-rack1-h0", "pod1-rack0-h0"]),        # in-pod
        ("pod0-rack0-h2", ["pod1-rack0-h0", "pod2-rack0-h0"]),        # split?
        ("pod3-rack3-h3", ["pod1-rack2-h1", "pod2-rack1-h2"]),        # split?
    ]
    for _ in range(6):
        client, r1, r2 = rng.sample(hosts, 3)
        requests.append((client, [r1, r2]))

    for client, replicas in requests:
        result = flowserver.select(client, replicas, 256 * MB)
        for a in result.assignments:
            if a.path is not None:
                controller.start_transfer(a.flow_id, a.path, a.size_bits)

    print(flowserver.explain_recent(count=len(requests)))
    print(
        f"\n{flowserver.requests_served} requests; "
        f"{flowserver.local_reads} local, {flowserver.split_reads} split; "
        f"{flowserver.tracked_flow_count()} flows currently tracked"
    )
    flowserver.close()


if __name__ == "__main__":
    main()
