"""``net_churn_1024``: flow churn on the bare network simulator.

No controller, no Flowserver: a :class:`FlowNetwork` on an
:class:`EventLoop`, flows arriving open-loop over pre-resolved paths.
Every path is enumerated during set-up, so routing cost lands in
``setup_s`` and the timed section is rate solving plus event scheduling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ledgerlib.common import CLUSTER_SEED, MIB, Outcome, dig, op_digest

from repro.net.routing import RoutingTable
from repro.net.simulator import FlowNetwork
from repro.net.topology import three_tier
from repro.sim.engine import EventLoop
from repro.sim.randomness import RandomStreams


class NetChurn:
    """One rep: build in ``__init__`` (set-up), :meth:`run` is timed."""

    def __init__(self, params: Dict[str, Any], trace_seed: int, scratch: str):
        topology = three_tier(
            pods=params["pods"],
            racks_per_pod=params["racks_per_pod"],
            hosts_per_rack=params["hosts_per_rack"],
            oversubscription=params["oversubscription"],
        )
        self.loop = EventLoop()
        self.network = FlowNetwork(self.loop, topology)
        routing = RoutingTable(topology)
        streams = RandomStreams(trace_seed)

        hosts = sorted(topology.hosts)
        by_rack: Dict[str, List[str]] = {}
        for host_id in hosts:
            by_rack.setdefault(topology.hosts[host_id].rack, []).append(host_id)
        # Which host pairs talk is the cluster's tenancy, not the trace's:
        # the pool is fixed so every seed loads the same contention graph.
        pair_rng = RandomStreams(CLUSTER_SEED).stream("pairs")
        pool = []
        for _ in range(params["pair_pool"]):
            src = hosts[pair_rng.randrange(len(hosts))]
            rack = topology.hosts[src].rack
            if pair_rng.random() < params["rack_local_fraction"]:
                peers = [h for h in by_rack[rack] if h != src]
                dst = peers[pair_rng.randrange(len(peers))]
            else:
                dst = src
                while topology.hosts[dst].rack == rack:
                    dst = hosts[pair_rng.randrange(len(hosts))]
            pool.append(routing.paths(src, dst))

        arrival_rng = streams.stream("arrivals")
        size_rng = streams.stream("sizes")
        choice_rng = streams.stream("choice")
        sizes = params["flow_mib"]
        rate = params["arrivals_per_host_s"] * len(hosts)
        self.flows = params["flows"]
        self.arrivals: List[float] = []
        self.completions: List[Optional[float]] = [None] * self.flows
        self.chosen: List[tuple] = []
        now = 0.0
        for i in range(self.flows):
            now += arrival_rng.expovariate(rate)
            paths = pool[choice_rng.randrange(len(pool))]
            path = paths[choice_rng.randrange(len(paths))]
            size_bits = sizes[size_rng.randrange(len(sizes))] * MIB * 8.0
            self.arrivals.append(now)
            self.chosen.append(path.link_ids)
            self.loop.call_at(now, self._start, i, path, size_bits)

    def _start(self, i: int, path, size_bits: float) -> None:
        self.network.start_flow(
            f"f{i:06d}", path, size_bits,
            on_complete=lambda flow, i=i: self._done(i),
        )

    def _done(self, i: int) -> None:
        self.completions[i] = self.loop.now

    def run(self) -> None:
        self.loop.run()

    def close(self) -> None:
        """Nothing outlives the rep."""

    def outcome(self) -> Outcome:
        settled = [
            (i, done) for i, done in enumerate(self.completions) if done is not None
        ]
        engine = self.network.rate_engine
        batch_diff = dig(engine, "verify_against_batch")
        return Outcome(
            latencies=[done - self.arrivals[i] for i, done in settled],
            attempted=self.flows,
            failed=self.flows - len(settled),
            digest=op_digest(
                (i, done, self.chosen[i]) for i, done in settled
            ),
            checks={
                "all_ops_settled": len(settled) == self.flows,
                "no_flow_left": dig(engine, "flow_count") == 0,
                "rates_match_batch_solver": batch_diff == [],
                "flow_tables_consistent": None,
            },
            roots={"loop": self.loop, "network": self.network},
            notes=list(batch_diff or []),
        )
