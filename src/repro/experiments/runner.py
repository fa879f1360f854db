"""Drive a workload trace through a scheme on the flow-level simulator.

This is the §6.3 "simple client/server application" path used for the
replica/path-selection micro-benchmarks (Figs. 4–7): each arriving job
asks its scheme for flow assignments and completes when its slowest flow
finishes.  The full DFS stack (Fig. 8) lives in :mod:`repro.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.hedera import HederaScheduler
from repro.baselines.monitor import EndHostMonitor
from repro.baselines.schemes import Scheme, scheme_spec
from repro.baselines.selectors import NearestReplicaSelector, SinbadRSelector
from repro.core.control_plane import ControlPlane, build_control_plane
from repro.core.flowserver import Flowserver, FlowserverConfig
from repro.net.simulator import FlowNetwork
from repro.net.topology import three_tier
from repro.sdn.controller import Controller
from repro.sim import instrument
from repro.sim.engine import EventLoop
from repro.sim.randomness import RandomStreams
from repro.workload.generator import Workload


@dataclass(frozen=True)
class JobRecord:
    """Measured outcome of one read job."""

    job_id: str
    client: str
    replica_choices: tuple
    arrival_time: float
    completion_time: float
    flows: int

    @property
    def duration(self) -> float:
        return self.completion_time - self.arrival_time


@dataclass
class SchemeRunConfig:
    """Environment knobs for one scheme run.

    Defaults reproduce the paper testbed: 64 hosts, 8:1 oversubscription,
    1 Gbps edges, 1 s stats/monitor intervals.
    """

    pods: int = 4
    racks_per_pod: int = 4
    hosts_per_rack: int = 4
    oversubscription: float = 8.0
    #: Use a prebuilt topology instead of the 3-tier parameters above
    #: (e.g. repro.net.leaf_spine); the workload must be generated against
    #: the same topology.
    topology: object = None
    flowserver: FlowserverConfig = field(default_factory=FlowserverConfig)
    hedera_interval: float = 5.0
    max_sim_seconds: float = 100000.0


@dataclass
class ExperimentEnv:
    """Everything one scheme run builds; exposed for tests and ablations.

    The control plane is the cluster's (:func:`build_control_plane`)
    without the filesystem layer on top.
    """

    plane: ControlPlane
    monitor: Optional[EndHostMonitor]
    hedera: Optional[HederaScheduler]
    scheme: Scheme

    @property
    def loop(self) -> EventLoop:
        return self.plane.loop

    @property
    def network(self) -> FlowNetwork:
        return self.plane.network

    @property
    def controller(self) -> Controller:
        return self.plane.controller

    @property
    def flowserver(self) -> Optional[Flowserver]:
        """The Flowserver; ``None`` for schemes without one."""
        return self.plane.flowserver


def build_environment(
    scheme_name: str,
    config: SchemeRunConfig,
    seed: int,
) -> ExperimentEnv:
    """Construct the simulator, control plane and scheme for one run."""
    spec = scheme_spec(scheme_name)
    streams = RandomStreams(seed)
    topo = config.topology or three_tier(
        pods=config.pods,
        racks_per_pod=config.racks_per_pod,
        hosts_per_rack=config.hosts_per_rack,
        oversubscription=config.oversubscription,
    )
    plane = build_control_plane(
        topo, flowserver=spec.flowserver, config=config.flowserver
    )
    loop, network = plane.loop, plane.network

    monitor = EndHostMonitor(loop, network) if spec.replica == "sinbad" else None
    hedera = (
        HederaScheduler(
            loop,
            plane.controller,
            plane.routing,
            interval=config.hedera_interval,
        )
        if spec.hedera
        else None
    )

    selectors = {
        "flowserver": None,
        "nearest": NearestReplicaSelector(topo, streams.stream("nearest-tiebreak")),
    }
    if monitor is not None:
        selectors["sinbad"] = SinbadRSelector(
            topo, monitor, streams.stream("sinbad-tiebreak")
        )
    scheme = Scheme(
        scheme_name,
        selectors[spec.replica],
        plane.flowserver,
        plane.routing,
        ecmp_salt=seed,
    )
    return ExperimentEnv(plane, monitor, hedera, scheme)


def run_scheme_on_workload(
    scheme_name: str,
    workload: Workload,
    config: Optional[SchemeRunConfig] = None,
    seed: int = 0,
    on_env: Optional[Callable[[ExperimentEnv], None]] = None,
) -> List[JobRecord]:
    """Run the full trace and return per-job completion records.

    The workload must have been generated against the same topology shape
    as ``config`` describes (host ids must exist).  ``on_env`` (when
    given) is invoked with the live :class:`ExperimentEnv` after the
    trace drains but before teardown, so callers can harvest collector
    counters and Flowserver state without re-running the trace.
    """
    config = config or SchemeRunConfig()
    env = build_environment(scheme_name, config, seed)
    loop, controller, scheme = env.loop, env.controller, env.scheme

    # With a telemetry session installed (the --trace flag), sample the
    # figure-relevant time series on this run's clock.
    tel = instrument.TELEMETRY
    sampler = None
    if tel is not None:
        from repro.telemetry import bind_standard_probes

        sampler = tel.start_sampler(loop)
        bind_standard_probes(
            sampler,
            network=env.network,
            topology=env.network.topology,
            flowserver=env.flowserver,
        )
        tel.instant(loop.now, "run.start", "sim", scheme=scheme_name,
                    jobs=len(workload.jobs), seed=seed)

    records: List[JobRecord] = []
    outstanding: Dict[str, int] = {}
    job_info: Dict[str, tuple] = {}

    def finish_flow(job_id: str) -> None:
        outstanding[job_id] -= 1
        if outstanding[job_id] == 0:
            client, replicas, arrival, flows = job_info.pop(job_id)
            records.append(
                JobRecord(
                    job_id=job_id,
                    client=client,
                    replica_choices=replicas,
                    arrival_time=arrival,
                    completion_time=loop.now,
                    flows=flows,
                )
            )
            del outstanding[job_id]

    def start_job(job) -> None:
        assignments = scheme.assign(
            job.client, list(job.file.replicas), job.size_bits, job_id=job.job_id
        )
        if not assignments:
            # Data-local read: completes with no network activity.
            records.append(
                JobRecord(
                    job_id=job.job_id,
                    client=job.client,
                    replica_choices=(job.client,),
                    arrival_time=job.arrival_time,
                    completion_time=loop.now,
                    flows=0,
                )
            )
            return
        outstanding[job.job_id] = len(assignments)
        job_info[job.job_id] = (
            job.client,
            tuple(a.replica for a in assignments),
            job.arrival_time,
            len(assignments),
        )
        for assignment in assignments:
            controller.start_transfer(
                assignment.flow_id,
                assignment.path,
                assignment.size_bits,
                on_complete=lambda flow, jid=job.job_id: finish_flow(jid),
                job_id=job.job_id,
            )

    for job in workload.jobs:
        loop.call_at(job.arrival_time, start_job, job)

    # Step until every job finished; periodic monitors/pollers would keep
    # the loop alive forever, so don't wait for an empty event queue.
    total = len(workload.jobs)
    while len(records) < total and loop.peek_time() is not None:
        if loop.now > config.max_sim_seconds:
            break
        loop.step()
    if sampler is not None and tel is not None:
        tel.instant(loop.now, "run.end", "sim", scheme=scheme_name,
                    completed=len(records))
        tel.stop_sampler()
    if on_env is not None:
        on_env(env)
    if env.monitor:
        env.monitor.stop()
    env.plane.close()
    if env.hedera:
        env.hedera.stop()

    if len(records) != len(workload.jobs):
        raise RuntimeError(
            f"{scheme_name}: only {len(records)} of {len(workload.jobs)} jobs "
            f"finished within {config.max_sim_seconds} s — the system is saturated"
        )
    records.sort(key=lambda r: r.arrival_time)
    return records


def completion_times(records: List[JobRecord]) -> List[float]:
    """Per-job durations in arrival order."""
    return [r.duration for r in records]
