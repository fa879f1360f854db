#!/usr/bin/env python3
"""Tour of the implemented extensions (the paper's future-work items).

1. **Co-designed write placement** (§3.3): the nameserver asks the
   Flowserver where writes will flow fastest, instead of rolling dice.
2. **Hedera-style global flow scheduler** (§1/§2.4): rescheduling
   elephants helps — but without replica choice it cannot catch Mayflower.

Run:  python examples/extensions_tour.py
"""

from repro.baselines.hedera import HederaScheduler
from repro.cluster.planners import FlowserverWritePlacement
from repro.core import build_control_plane
from repro.net import three_tier
from repro.sim.randomness import seeded_rng

GB = 8e9


def demo_write_placement():
    print("=== 1. co-designed write placement ===")
    topo = three_tier()
    plane = build_control_plane(topo)
    flowserver = plane.flowserver
    placement = FlowserverWritePlacement(
        topo, plane.routing, flowserver, seeded_rng(1),
        candidates_per_tier=64,
    )
    writer = "pod0-rack0-h0"
    # congest most same-pod hosts with long registered flows
    busy = [h for h in sorted(topo.hosts)
            if h.startswith("pod0") and h not in (writer, "pod0-rack1-h0")]
    for i, host in enumerate(busy):
        src = busy[(i + 1) % len(busy)]
        if src != host:
            flowserver.select_path_only(host, src, 100 * GB)
    replicas = placement.place(3, writer=writer)
    print(f"writer {writer}; congested pod0 except pod0-rack1-h0")
    print(f"placement chose: {replicas}")
    print(f"  -> primary avoided the congested hosts: "
          f"{replicas[0] == 'pod0-rack1-h0'}\n")
    flowserver.close()


def demo_hedera():
    print("=== 2. Hedera-style rescheduling vs co-design ===")
    plane = build_control_plane(three_tier(), flowserver=False)
    net, routing, controller = plane.network, plane.routing, plane.controller
    scheduler = HederaScheduler(plane.loop, controller, routing,
                                interval=1.0, auto_start=False)
    # two elephants ECMP-hashed onto the same uplink
    p_a = routing.paths("pod0-rack0-h0", "pod0-rack1-h0")
    p_b = routing.paths("pod0-rack0-h1", "pod0-rack1-h1")
    controller.start_transfer("a", p_a[0], 10 * GB)
    controller.start_transfer("b", p_b[0], 10 * GB)
    before = {k: v / 1e6 for k, v in net.ground_truth_rates().items()}
    moved = scheduler.schedule_round()
    after = {k: v / 1e6 for k, v in net.ground_truth_rates().items()}
    print(f"before global first fit: {before} Mbps (collision)")
    print(f"rescheduled {moved} elephant(s)")
    print(f"after:                   {after} Mbps")
    print("…but when every path to the chosen replica is congested, only\n"
        "replica choice (co-design) helps — see "
        "benchmarks/test_hedera_baseline.py\n")


def main():
    demo_write_placement()
    demo_hedera()
    print("done.")


if __name__ == "__main__":
    main()
