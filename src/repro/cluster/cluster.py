"""The assembled Mayflower cluster.

One :class:`Cluster` owns a complete deployment: simulated network + SDN
controller (+ Flowserver), RPC fabric, nameserver, per-host dataservers
and a client factory.  The ``scheme`` knob names a row of
:data:`repro.baselines.schemes.SCHEMES`, which decides whether there is a
Flowserver and how reads pick replica and path, so the same cluster runs
the paper's prototype comparison (Fig. 8): ``mayflower``,
``hdfs-mayflower`` (rack-aware selection + Flowserver path scheduling)
and ``hdfs-ecmp`` (rack-aware selection + ECMP).  It hosts every row but
Sinbad-R's (no end-host monitor) and Hedera's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.baselines.schemes import scheme_spec
from repro.baselines.selectors import NearestReplicaSelector
from repro.cluster.dataplane import SimulatedDataPlane
from repro.cluster.planners import (
    FlowserverFanoutPlanner,
    FlowserverWritePlacement,
    SchemeReadPlanner,
)
from repro.core.control_plane import build_control_plane
from repro.core.flowserver import FlowserverConfig
from repro.fs.client import MayflowerClient
from repro.fs.consistency import ConsistencyMode
from repro.fs.retry import IMMEDIATE_FAILOVER, RetryPolicy
from repro.fs.dataserver import Dataserver
from repro.fs.leases import LEASE_SERVICE, LeaseManager
from repro.fs.nameserver import Nameserver
from repro.fs.placement import HdfsRackAwarePlacement, PaperEvalPlacement
from repro.net.topology import Topology, three_tier
from repro.rpc import RpcFabric
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams

#: Virtual RPC endpoint where the Flowserver service lives (the SDN
#: controller is reachable over the management network, not the data
#: network, exactly as with Floodlight in the paper).
CONTROLLER_ENDPOINT = "@controller"


@dataclass
class ClusterConfig:
    """Deployment knobs; defaults reproduce the paper's testbed."""

    pods: int = 4
    racks_per_pod: int = 4
    hosts_per_rack: int = 4
    oversubscription: float = 8.0
    scheme: str = "mayflower"  # a SCHEMES row without Sinbad-R or Hedera
    replication: int = 3
    chunk_bytes: int = 256 * 1024 * 1024
    consistency: ConsistencyMode = ConsistencyMode.SEQUENTIAL
    placement: str = "paper-eval"  # or "hdfs-rack-aware"
    store_payload: bool = False
    rpc_latency: float = 0.0005
    rpc_jitter: float = 0.0
    flowserver: FlowserverConfig = field(default_factory=FlowserverConfig)
    seed: int = 0
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
    #: the lease service co-located with the nameserver.
    lease_duration: float = 30.0
    #: Append fan-out shape: "auto" asks the Flowserver per append
    #: (chain vs. tree from live link estimates) when the scheme has
    #: one, "chain" always relays down the static metadata chain — which
    #: is also what a scheme without a Flowserver does.
    fanout: str = "auto"


class Cluster:
    """A fully wired Mayflower (or HDFS-comparator) deployment."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        spec = scheme_spec(self.config.scheme, monitor=False, hedera=False)
        streams = RandomStreams(self.config.seed)
        self._streams = streams

        # --- network + SDN control plane -------------------------------
        self.topology: Topology = three_tier(
            pods=self.config.pods,
            racks_per_pod=self.config.racks_per_pod,
            hosts_per_rack=self.config.hosts_per_rack,
            oversubscription=self.config.oversubscription,
        )
        self.plane = build_control_plane(
            self.topology,
            flowserver=spec.flowserver,
            config=self.config.flowserver,
        )
        self.loop = self.plane.loop
        self.network = self.plane.network
        self.routing = self.plane.routing
        self.controller = self.plane.controller
        #: The Flowserver; ``None`` for an ECMP-routed scheme.
        self.flowserver = self.plane.flowserver

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
            if self.flowserver is None:
                raise ValueError(
                    "placement='flowserver' requires a flowserver scheme"
                )
            placement = FlowserverWritePlacement(
                self.topology, self.routing, self.flowserver, placement_rng
            )
        else:
            raise ValueError(f"unknown placement {self.config.placement!r}")

        if self.config.fanout not in ("auto", "chain"):
            raise ValueError(
                f"unknown fanout policy {self.config.fanout!r}; "
                f"expected 'auto' or 'chain'"
            )

        # --- nameserver + lease service, on the first host --------------
        hosts = sorted(self.topology.hosts)
        self.nameserver_host = hosts[0]
        self.nameserver = Nameserver(placement, rng=streams.stream("file-ids"))
        self.nameserver.clock = self.loop
        # Appends are fenced by a lease service co-located with the
        # nameserver.
        self.lease_manager = LeaseManager(
            self.loop, duration=self.config.lease_duration
        )
        self.nameserver.lease_manager = self.lease_manager
        self.fabric.register(self.nameserver_host, "nameserver", self.nameserver)
        self.fabric.register(self.nameserver_host, LEASE_SERVICE, self.lease_manager)

        self.dataservers: Dict[str, Dataserver] = {}
        for host_id in hosts:
            ds = Dataserver(
                host_id,
                self.loop,
                self.fabric,
                self.dataplane,
                nameserver_endpoint=self.nameserver_host,
                store_payload=self.config.store_payload,
            )
            self.dataservers[host_id] = ds
            self.fabric.register(host_id, "dataserver", ds)

        nearest = NearestReplicaSelector(
            self.topology, streams.stream("nearest-tiebreak")
        )
        self._read_planner = SchemeReadPlanner(
            nearest if spec.replica == "nearest" else None,
            self.fabric,
            CONTROLLER_ENDPOINT if self.flowserver is not None else None,
        )

        # --- availability machinery (optional) ---------------------------
        self.membership = None
        self.replica_manager = None
        self._heartbeat_senders = []
        if self.config.enable_replica_manager:
            from repro.fs.membership import (
                MEMBERSHIP_SERVICE,
                HeartbeatSender,
                MembershipTracker,
                ReplicaManager,
            )

            self.membership = MembershipTracker(
                self.loop,
                hosts,
                lease_manager=self.lease_manager,
            )
            self.fabric.register(
                self.nameserver_host, MEMBERSHIP_SERVICE, self.membership
            )
            for host_id in hosts:
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
    # Client factory
    # ------------------------------------------------------------------

    def client(self, host_id: str) -> MayflowerClient:
        """A filesystem client on ``host_id`` using the cluster's scheme."""
        if host_id not in self.topology.hosts:
            raise ValueError(f"{host_id!r} is not a host")
        return MayflowerClient(
            host_id=host_id,
            loop=self.loop,
            fabric=self.fabric,
            nameserver_endpoint=self.nameserver_host,
            planner=self._read_planner,
            consistency=self.config.consistency,
            retry=self.config.retry,
            # Per-client jitter stream: derived from the root seed, so
            # backoff timing is reproducible, and independent per host so
            # co-failing clients never retry in lockstep.
            retry_rng=self._streams.stream(f"client-retry/{host_id}"),
            fanout_planner=self._fanout_planner(),
        )

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

    def _fanout_planner(self) -> Optional[FlowserverFanoutPlanner]:
        """Flowserver-planned append fan-out, where there is a Flowserver.

        ``None`` leaves the client on the static metadata chain.
        """
        if self.config.fanout == "auto" and self.flowserver is not None:
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
        """Stop the Flowserver poller and the periodic timers."""
        self.plane.close()
        if self.replica_manager is not None:
            self.replica_manager.stop()
        for sender in self._heartbeat_senders:
            sender.stop()
