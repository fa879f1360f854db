"""The assembled Mayflower cluster.

One :class:`Cluster` owns a complete deployment: simulated network + SDN
controller (+ Flowserver), RPC fabric, nameserver, per-host dataservers
and a client factory.  The ``scheme`` knob swaps the read-planning policy
so the same cluster runs the paper's prototype comparison (Fig. 8):
``mayflower``, ``hdfs-mayflower`` (rack-aware selection + Flowserver path
scheduling) and ``hdfs-ecmp`` (rack-aware selection + ECMP).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.dataplane import SimulatedDataPlane
from repro.cluster.planners import (
    FlowserverFanoutPlanner,
    FlowserverReadPlanner,
    SelectorReadPlanner,
)
from repro.core.flowserver import Flowserver, FlowserverConfig
from repro.fs.client import MayflowerClient, ReadPlanner
from repro.fs.consistency import ConsistencyMode
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy
from repro.fs.dataserver import Dataserver
from repro.fs.nameserver import Nameserver
from repro.fs.placement import HdfsRackAwarePlacement, PaperEvalPlacement
from repro.net.routing import RoutingTable
from repro.net.simulator import FlowNetwork
from repro.net.topology import Topology, three_tier
from repro.rpc import RpcFabric
from repro.sdn.controller import Controller
from repro.sim.engine import EventLoop
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams

if TYPE_CHECKING:
    from repro.core.coordinator import GlobalCoordinator
    from repro.core.stats import FlowStatsCollector
    from repro.core.domains import DomainFlowserver
    from repro.fs.shardmap import PartitionGuard, ShardMap

#: Virtual RPC endpoint where the Flowserver service lives (the SDN
#: controller is reachable over the management network, not the data
#: network, exactly as with Floodlight in the paper).
CONTROLLER_ENDPOINT = "@controller"

_CLUSTER_SCHEMES = ("mayflower", "hdfs-mayflower", "hdfs-ecmp")


@dataclass
class ClusterConfig:
    """Deployment knobs; defaults reproduce the paper's testbed."""

    pods: int = 4
    racks_per_pod: int = 4
    hosts_per_rack: int = 4
    oversubscription: float = 8.0
    edge_bps: float = 1e9
    scheme: str = "mayflower"
    replication: int = 3
    chunk_bytes: int = 256 * 1024 * 1024
    consistency: ConsistencyMode = ConsistencyMode.SEQUENTIAL
    placement: str = "paper-eval"  # or "hdfs-rack-aware"
    store_payload: bool = False
    rpc_latency: float = 0.0005
    rpc_jitter: float = 0.0
    flowserver: FlowserverConfig = field(default_factory=FlowserverConfig)
    seed: int = 0
    db_directory: Optional[Path] = None
    #: 1 = the paper's centralized nameserver; >= 3 = Paxos-replicated
    #: nameserver on the first N hosts (§3.3.1's suggested improvement).
    nameserver_replicas: int = 1
    #: Client retry policy.  The default is the paper's client: a failed
    #: attempt fails over at once.  Fault-injection experiments set one
    #: with backoff (and deadlines), so operations ride out transient
    #: outages; fault-free timelines are the same under either.
    retry: RetryPolicy = IMMEDIATE_FAILOVER
    #: Heartbeat-driven failure detection + automatic re-replication
    #: (GFS/HDFS availability semantics; off by default so performance
    #: experiments carry no periodic-timer noise).
    enable_replica_manager: bool = False
    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 15.0
    repair_interval: float = 10.0
    #: Primary-lease term in simulated seconds.  Appends are fenced by
    #: a lease service beside a single or partitioned nameserver; beside
    #: a Paxos-replicated one, metadata primaryship is the authority.
    lease_duration: float = 30.0
    #: Append fan-out shape: "auto" asks the Flowserver per append
    #: (chain vs. tree from live link estimates) when the scheme has
    #: one, "chain" always relays down the static metadata chain — which
    #: is also what a scheme without a Flowserver does.
    fanout: str = "auto"
    #: Sharded control plane: 1 (default) runs the paper's monolithic
    #: Flowserver, bit-identical to previous HEAD; a value equal to
    #: ``pods`` runs one :class:`~repro.core.domains.DomainFlowserver`
    #: per pod behind a :class:`~repro.core.coordinator.
    #: GlobalCoordinator`.  No other values are accepted — domains are
    #: pod-granular by construction.
    controller_domains: int = 1
    #: Metadata sharding: 1 (default) is the monolithic nameserver;
    #: P > 1 splits the namespace into P consistent-hashed partitions,
    #: each its own nameserver (single instance, or a Paxos group of
    #: ``nameserver_replicas`` when that is >= 3), with clients routing
    #: through a cached shard map.
    metadata_partitions: int = 1


class Cluster:
    """A fully wired Mayflower (or HDFS-comparator) deployment."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        if self.config.scheme not in _CLUSTER_SCHEMES:
            raise ValueError(
                f"unknown cluster scheme {self.config.scheme!r}; "
                f"expected one of {_CLUSTER_SCHEMES}"
            )
        streams = RandomStreams(self.config.seed)
        self._streams = streams

        # --- network + SDN control plane -------------------------------
        self.topology: Topology = three_tier(
            pods=self.config.pods,
            racks_per_pod=self.config.racks_per_pod,
            hosts_per_rack=self.config.hosts_per_rack,
            edge_bps=self.config.edge_bps,
            oversubscription=self.config.oversubscription,
        )
        self.loop = EventLoop()
        self.network = FlowNetwork(self.loop, self.topology)
        self.routing = RoutingTable(self.topology)
        self.controller = Controller(self.network)
        needs_flowserver = self.config.scheme in ("mayflower", "hdfs-mayflower")
        fs_config = self.config.flowserver
        self.domain_flowservers: Dict[str, "DomainFlowserver"] = {}
        self.coordinator: Optional["GlobalCoordinator"] = None
        if self.config.controller_domains <= 1:
            self.flowserver: Optional[Flowserver] = (
                Flowserver(self.controller, self.routing, fs_config)
                if needs_flowserver
                else None
            )
        else:
            if not needs_flowserver:
                raise ValueError(
                    "controller_domains > 1 requires a flowserver scheme "
                    "(mayflower or hdfs-mayflower)"
                )
            pods = self.topology.pods()
            if self.config.controller_domains != len(pods):
                raise ValueError(
                    f"controller_domains={self.config.controller_domains} "
                    f"must equal the pod count ({len(pods)}): domains are "
                    f"pod-granular"
                )
            from repro.core.coordinator import GlobalCoordinator
            from repro.core.domains import build_domain_flowservers

            self.flowserver = None
            self.domain_flowservers = build_domain_flowservers(
                self.controller, self.routing, fs_config
            )
            self.coordinator = GlobalCoordinator(
                self.controller, self.routing, self.domain_flowservers, fs_config
            )

        # --- RPC fabric + data plane ------------------------------------
        self.fabric = RpcFabric(
            self.loop,
            latency=self.config.rpc_latency,
            jitter=self.config.rpc_jitter,
            seed=self.config.seed,
        )
        self.dataplane = SimulatedDataPlane(
            self.loop,
            self.controller,
            self.routing,
            ecmp_salt=self.config.seed,
        )
        if self.flowserver is not None:
            self.fabric.register(CONTROLLER_ENDPOINT, "flowserver", self.flowserver)
        elif self.coordinator is not None:
            # The coordinator presents the same RPC surface (select,
            # select_path_only, plan_replication_fanout), so planners
            # talk to the sharded control plane unchanged.
            self.fabric.register(CONTROLLER_ENDPOINT, "flowserver", self.coordinator)

        # --- filesystem servers -----------------------------------------
        placement_rng = streams.stream("placement")
        if self.config.placement == "paper-eval":
            placement = PaperEvalPlacement(self.topology, placement_rng)
        elif self.config.placement == "hdfs-rack-aware":
            placement = HdfsRackAwarePlacement(self.topology, placement_rng)
        elif self.config.placement == "flowserver":
            # §3.3's proposed extension: the nameserver places replicas
            # collaboratively with the Flowserver (Sinbad-like, but from
            # live flow estimates instead of sampled end-host counters).
            from repro.core.write_placement import FlowserverWritePlacement

            if self.flowserver is None:
                raise ValueError(
                    "placement='flowserver' requires a flowserver scheme"
                )
            placement = FlowserverWritePlacement(
                self.topology, self.routing, self.flowserver, placement_rng
            )
        else:
            raise ValueError(f"unknown placement {self.config.placement!r}")

        db_dir = self.config.db_directory or Path(
            tempfile.mkdtemp(prefix="mayflower-ns-")
        )
        self.shard_map: Optional["ShardMap"] = None
        self.partition_guards: List["PartitionGuard"] = []
        self._partition_nameservers: List[Nameserver] = []
        if self.config.metadata_partitions > 1:
            self._build_partitioned_nameserver(db_dir, placement, streams)
        elif self.config.nameserver_replicas >= 3:
            from repro.consensus import build_replicated_nameserver

            self.nameserver_endpoints = sorted(self.topology.hosts)[
                : self.config.nameserver_replicas
            ]
            self._ns_replicas = build_replicated_nameserver(
                self.nameserver_endpoints,
                self.fabric,
                self.loop,
                placement_factory=lambda ep: placement,
                db_directory_factory=lambda ep: Path(db_dir) / ep,
                rng_factory=lambda ep: streams.fork(f"ns-ids/{ep}").stream("ids"),
            )
            self.nameserver_host = self.nameserver_endpoints[0]
            self.nameserver = self._ns_replicas[self.nameserver_host]
        elif self.config.nameserver_replicas == 1:
            self.nameserver_endpoints = [sorted(self.topology.hosts)[0]]
            self.nameserver_host = self.nameserver_endpoints[0]
            self._ns_replicas = None
            self.nameserver = Nameserver(
                db_dir, placement, rng=streams.stream("file-ids")
            )
            self.nameserver.clock = self.loop
            self.fabric.register(self.nameserver_host, "nameserver", self.nameserver)
        else:
            raise ValueError(
                "nameserver_replicas must be 1 or >= 3 (Paxos needs a majority)"
            )

        # --- lease service (append fencing) -----------------------------
        if self.config.fanout not in ("auto", "chain"):
            raise ValueError(
                f"unknown fanout policy {self.config.fanout!r}; "
                f"expected 'auto' or 'chain'"
            )
        self.lease_manager = None
        self.lease_managers = []
        if self._ns_replicas is None:
            from repro.fs.leases import LEASE_SERVICE, LeaseManager

            # One lease manager per metadata partition (a single
            # nameserver is one partition), co-located with that
            # partition's nameserver; dataservers route lease traffic by
            # file name exactly like other metadata ops.
            if self.shard_map is not None:
                partitions = [
                    (group[0], partition_ns)
                    for group, partition_ns in zip(
                        self.shard_map.partitions, self._partition_nameservers
                    )
                ]
            else:
                partitions = [(self.nameserver_host, self.nameserver)]
            for endpoint, partition_ns in partitions:
                manager = LeaseManager(
                    self.loop, duration=self.config.lease_duration
                )
                self.fabric.register(endpoint, LEASE_SERVICE, manager)
                partition_ns.lease_manager = manager
                self.lease_managers.append(manager)
            self.lease_manager = self.lease_managers[0]

        ns_router = None
        if self.shard_map is not None:
            shard_map = self.shard_map

            def ns_router(name: str) -> str:
                return shard_map.endpoints_for(name)[0]

        self.dataservers: Dict[str, Dataserver] = {}
        for host_id in sorted(self.topology.hosts):
            ds = Dataserver(
                host_id,
                self.loop,
                self.fabric,
                self.dataplane,
                store_payload=self.config.store_payload,
                nameserver_endpoint=self.nameserver_host,
                lease_endpoint=(
                    self.nameserver_host if self.lease_manager is not None else None
                ),
                nameserver_router=ns_router,
                lease_router=(
                    ns_router if self.lease_manager is not None else None
                ),
            )
            self.dataservers[host_id] = ds
            self.fabric.register(host_id, "dataserver", ds)

        self._nearest_selector = NearestReplicaSelector(
            self.topology, streams.stream("nearest-tiebreak")
        )

        # --- availability machinery (optional) ---------------------------
        self.membership = None
        self.replica_manager = None
        self._heartbeat_senders = []
        if self.config.enable_replica_manager:
            if self.config.metadata_partitions > 1:
                raise ValueError(
                    "enable_replica_manager requires metadata_partitions=1 "
                    "(the membership tracker and repair loop talk to a "
                    "single nameserver)"
                )
            from repro.fs.membership import (
                MEMBERSHIP_SERVICE,
                HeartbeatSender,
                MembershipTracker,
                ReplicaManager,
            )

            self.membership = MembershipTracker(
                self.loop,
                sorted(self.topology.hosts),
                lease_manager=self.lease_manager,
            )
            self.fabric.register(
                self.nameserver_host, MEMBERSHIP_SERVICE, self.membership
            )
            for host_id in sorted(self.topology.hosts):
                self._heartbeat_senders.append(
                    HeartbeatSender(
                        self.loop,
                        self.fabric,
                        host_id,
                        self.nameserver_host,
                        interval=self.config.heartbeat_interval,
                    )
                )
            self.replica_manager = ReplicaManager(
                self.loop,
                self.fabric,
                self.nameserver,
                self.nameserver_host,
                self.membership,
                self.topology,
                streams.stream("repair"),
                check_interval=self.config.repair_interval,
                heartbeat_timeout=self.config.heartbeat_timeout,
                lease_manager=self.lease_manager,
            )

    # ------------------------------------------------------------------
    # Partitioned metadata plane
    # ------------------------------------------------------------------

    def _build_partitioned_nameserver(self, db_dir, placement, streams) -> None:
        """Construct ``metadata_partitions`` consistent-hash shards.

        Each partition is its own nameserver — a single instance, or a
        Paxos group of ``nameserver_replicas`` members when that is
        >= 3 — wrapped in a :class:`~repro.fs.shardmap.PartitionGuard`
        that rejects misrouted names with the shard map's current epoch.
        """
        from repro.fs.shardmap import PartitionGuard, ShardMap

        partitions = self.config.metadata_partitions
        replicas = self.config.nameserver_replicas
        hosts = sorted(self.topology.hosts)
        if replicas == 1:
            if partitions > len(hosts):
                raise ValueError(
                    f"metadata_partitions={partitions} needs at least that "
                    f"many hosts, have {len(hosts)}"
                )
            groups = [(hosts[p],) for p in range(partitions)]
        elif replicas >= 3:
            if partitions * replicas > len(hosts):
                raise ValueError(
                    f"metadata_partitions={partitions} x nameserver_replicas"
                    f"={replicas} needs {partitions * replicas} hosts, have "
                    f"{len(hosts)}"
                )
            groups = [
                tuple(hosts[p * replicas:(p + 1) * replicas])
                for p in range(partitions)
            ]
        else:
            raise ValueError(
                "nameserver_replicas must be 1 or >= 3 (Paxos needs a majority)"
            )
        self.shard_map = ShardMap(epoch=1, partitions=tuple(groups))
        self._ns_replicas = None
        all_replicas: Dict[str, object] = {}
        for index, group in enumerate(groups):
            if replicas == 1:
                ns = Nameserver(
                    Path(db_dir) / f"partition-{index}",
                    placement,
                    rng=streams.stream(f"file-ids/p{index}"),
                )
                ns.clock = self.loop
                self._partition_nameservers.append(ns)
                guard = PartitionGuard(ns, index, self.shard_map)
                self.fabric.register(group[0], "nameserver", guard)
                self.partition_guards.append(guard)
            else:
                from repro.consensus import build_replicated_nameserver

                group_replicas = build_replicated_nameserver(
                    list(group),
                    self.fabric,
                    self.loop,
                    placement_factory=lambda ep: placement,
                    db_directory_factory=(
                        lambda ep, p=index: Path(db_dir) / f"partition-{p}" / ep
                    ),
                    rng_factory=(
                        lambda ep, p=index: streams.fork(
                            f"ns-ids/p{p}/{ep}"
                        ).stream("ids")
                    ),
                )
                all_replicas.update(group_replicas)
                self._partition_nameservers.append(group_replicas[group[0]])
                for ep in group:
                    # build_replicated_nameserver registered the bare
                    # replica; re-register it behind the partition guard.
                    self.fabric.unregister(ep, "nameserver")
                    guard = PartitionGuard(
                        group_replicas[ep], index, self.shard_map
                    )
                    self.fabric.register(ep, "nameserver", guard)
                    self.partition_guards.append(guard)
        if all_replicas:
            self._ns_replicas = all_replicas
        self.nameserver_endpoints = [ep for group in groups for ep in group]
        self.nameserver_host = groups[0][0]
        self.nameserver = self._partition_nameservers[0]

    # ------------------------------------------------------------------
    # Client factory
    # ------------------------------------------------------------------

    def client(self, host_id: str) -> MayflowerClient:
        """A filesystem client on ``host_id`` using the cluster's scheme."""
        if host_id not in self.topology.hosts:
            raise ValueError(f"{host_id!r} is not a host")
        shard_router = None
        if self.shard_map is not None:
            from repro.fs.shardmap import ShardRouter

            # Each client keeps its own cached copy of the shard map,
            # refreshed on WrongPartitionError epoch bumps.
            shard_router = ShardRouter(self.shard_map)
        return MayflowerClient(
            host_id=host_id,
            loop=self.loop,
            fabric=self.fabric,
            nameserver_endpoint=self.nameserver_endpoints,
            planner=self._planner(),
            consistency=self.config.consistency,
            retry=self.config.retry,
            # Per-client jitter stream: derived from the root seed, so
            # backoff timing is reproducible, and independent per host so
            # co-failing clients never retry in lockstep.
            retry_rng=self._streams.stream(f"client-retry/{host_id}"),
            fanout_planner=self._fanout_planner(),
            shard_router=shard_router,
        )

    @property
    def collectors(self) -> List["FlowStatsCollector"]:
        """Every stats collector of the control plane: the monolith's
        one, one per domain when sharded, none without a Flowserver."""
        if self.flowserver is not None:
            return [self.flowserver.collector]
        return [
            self.domain_flowservers[pod].collector
            for pod in sorted(self.domain_flowservers)
        ]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def inject_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` against this cluster.

        Returns the armed :class:`repro.faults.FaultInjector` (its journal
        records what actually fired).
        """
        from repro.faults.injector import FaultInjector

        injector = FaultInjector.for_cluster(self)
        injector.arm(plan)
        return injector

    def faults_rng(self):
        """The cluster's dedicated fault-injection RNG stream."""
        return self._streams.faults()

    def _planner(self) -> ReadPlanner:
        scheme = self.config.scheme
        if scheme == "mayflower":
            return FlowserverReadPlanner(self.fabric, CONTROLLER_ENDPOINT)
        if scheme == "hdfs-mayflower":
            return SelectorReadPlanner(
                self._nearest_selector, self.fabric, CONTROLLER_ENDPOINT
            )
        return SelectorReadPlanner(self._nearest_selector)

    def _fanout_planner(self) -> Optional[FlowserverFanoutPlanner]:
        """Flowserver-planned append fan-out, where there is a Flowserver.

        ``None`` leaves the client on the static metadata chain.
        """
        if self.config.fanout == "auto" and (
            self.flowserver is not None or self.coordinator is not None
        ):
            return FlowserverFanoutPlanner(self.fabric, CONTROLLER_ENDPOINT)
        return None

    # ------------------------------------------------------------------
    # Process helpers
    # ------------------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run a client operation as a simulated process."""
        return Process(self.loop, generator, name=name)

    def run(self, generator: Generator, name: str = "", until: Optional[float] = None):
        """Spawn, run the loop to completion, and return the result.

        Raises whatever the process raised.
        """
        proc = self.spawn(generator, name=name)
        self.run_loop(until=until)
        if proc.exception is not None:
            raise proc.exception
        return proc.result

    def run_loop(self, until: Optional[float] = None) -> None:
        """Run the event loop, pausing the Flowserver's poller when idle."""
        self.loop.run(until=until)

    def shutdown(self) -> None:
        """Graceful shutdown (flushes the nameserver database(s))."""
        if self.flowserver is not None:
            self.flowserver.close()
        if self.coordinator is not None:
            self.coordinator.close()
        if self.replica_manager is not None:
            self.replica_manager.stop()
        for sender in self._heartbeat_senders:
            sender.stop()
        if self._ns_replicas is not None:
            for replica in self._ns_replicas.values():
                replica.close()
        elif self._partition_nameservers:
            for partition_ns in self._partition_nameservers:
                partition_ns.close()
        else:
            self.nameserver.close()
