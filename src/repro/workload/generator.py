"""Workload synthesis: files, placement, arrivals, clients.

:func:`generate_workload` produces a deterministic :class:`Workload` —
a file catalogue with replica placements plus a job trace — from a
:class:`WorkloadConfig` and a seed.  All randomness is drawn from named
streams so changing, say, the arrival rate never reshuffles placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.fs.placement import PaperEvalPlacement, PlacementPolicy
from repro.net.topology import Topology
from repro.sim.randomness import RandomStreams
from repro.workload.zipf import ZipfSampler

#: 256 MB — the paper's default block size and the read size of §6.
DEFAULT_READ_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class LocalityDistribution:
    """Staggered client placement probabilities (R, P, O) of §6.1.1.

    ``same_rack`` (R): client in the primary replica's rack;
    ``same_pod`` (P): same pod, different rack;
    ``other_pod`` (O): a different pod.  Must sum to 1.
    """

    same_rack: float
    same_pod: float
    other_pod: float

    def __post_init__(self):
        total = self.same_rack + self.same_pod + self.other_pod
        if any(p < 0 for p in (self.same_rack, self.same_pod, self.other_pod)):
            raise ValueError(f"locality probabilities must be non-negative: {self}")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"locality probabilities must sum to 1, got {total}")

    def label(self) -> str:
        return (
            f"({self.same_rack:.2g}, {self.same_pod:.2g}, {self.other_pod:.2g})"
        )


#: The four distributions evaluated in Fig. 5, in paper order.
PAPER_LOCALITIES = (
    LocalityDistribution(0.5, 0.3, 0.2),
    LocalityDistribution(0.3, 0.5, 0.2),
    LocalityDistribution(0.2, 0.3, 0.5),
    LocalityDistribution(1 / 3, 1 / 3, 1 / 3),
)


@dataclass(frozen=True)
class FileSpec:
    """One file in the catalogue."""

    name: str
    size_bytes: int
    replicas: Tuple[str, ...]

    @property
    def primary(self) -> str:
        return self.replicas[0]


@dataclass(frozen=True)
class ReadJob:
    """One read request in the trace."""

    job_id: str
    arrival_time: float
    client: str
    file: FileSpec
    read_bytes: int

    @property
    def size_bits(self) -> float:
        return self.read_bytes * 8.0


@dataclass
class WorkloadConfig:
    """Workload knobs; defaults match §6.1.

    ``arrival_rate_per_server`` is the λ of Fig. 6 (jobs per second per
    server, system-wide rate = λ × num hosts).

    ``file_size_distribution`` selects how catalogue sizes are drawn:

    * ``"fixed"`` — every file is ``file_size_bytes`` (the evaluation's
      256 MB blocks);
    * ``"lognormal"`` — sizes follow §3.1's "hundreds of megabytes to
      tens of gigabytes": a lognormal around ``file_size_bytes`` with
      ``file_size_sigma`` spread, clamped to
      [``min_file_bytes``, ``max_file_bytes``].

    With ``read_whole_file`` set, each job reads its file end to end
    (the "clients often fetch entire files" pattern) instead of a fixed
    ``read_bytes`` block.
    """

    num_files: int = 100
    file_size_bytes: int = DEFAULT_READ_BYTES
    file_size_distribution: str = "fixed"
    file_size_sigma: float = 1.0
    min_file_bytes: int = 100 * 1024 * 1024
    max_file_bytes: int = 32 * 1024 * 1024 * 1024
    read_bytes: int = DEFAULT_READ_BYTES
    read_whole_file: bool = False
    replication: int = 3
    zipf_skew: float = 1.1
    locality: LocalityDistribution = field(
        default_factory=lambda: LocalityDistribution(0.5, 0.3, 0.2)
    )
    arrival_rate_per_server: float = 0.07
    num_jobs: int = 200


@dataclass
class Workload:
    """A fully-materialized workload: catalogue + job trace."""

    config: WorkloadConfig
    files: List[FileSpec]
    jobs: List[ReadJob]


def generate_workload(
    topology: Topology,
    config: WorkloadConfig,
    seed: int,
    placement: Optional[PlacementPolicy] = None,
) -> Workload:
    """Materialize a deterministic workload for ``topology``.

    Clients are placed relative to the chosen file's *primary* replica per
    the staggered distribution, always excluding the replica hosts
    themselves (the paper ignores fully-local reads, §6.4).
    """
    streams = RandomStreams(seed)
    placement_rng = streams.stream("placement")
    popularity_rng = streams.stream("popularity")
    arrival_rng = streams.stream("arrivals")
    locality_rng = streams.stream("locality")

    policy = placement or PaperEvalPlacement(topology, placement_rng)
    size_rng = streams.stream("file-sizes")
    files = [
        FileSpec(
            name=f"file{i:05d}",
            size_bytes=_draw_file_size(config, size_rng),
            replicas=tuple(policy.place(config.replication)),
        )
        for i in range(config.num_files)
    ]

    sampler = ZipfSampler(config.num_files, config.zipf_skew)
    system_rate = config.arrival_rate_per_server * len(topology.hosts)
    if system_rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {system_rate}")

    jobs: List[ReadJob] = []
    now = 0.0
    for j in range(config.num_jobs):
        now += arrival_rng.expovariate(system_rate)
        file = files[sampler.sample(popularity_rng)]
        client = _place_client(topology, file, config.locality, locality_rng)
        read_bytes = (
            file.size_bytes
            if config.read_whole_file
            else min(config.read_bytes, file.size_bytes)
        )
        jobs.append(
            ReadJob(
                job_id=f"job{j:06d}",
                arrival_time=now,
                client=client,
                file=file,
                read_bytes=read_bytes,
            )
        )
    return Workload(config=config, files=files, jobs=jobs)


def _draw_file_size(config: WorkloadConfig, rng) -> int:
    """One catalogue file size per the configured distribution."""
    if config.file_size_distribution == "fixed":
        return config.file_size_bytes
    if config.file_size_distribution == "lognormal":
        mu = math.log(config.file_size_bytes)
        size = rng.lognormvariate(mu, config.file_size_sigma)
        return int(min(max(size, config.min_file_bytes), config.max_file_bytes))
    raise ValueError(
        f"unknown file_size_distribution {config.file_size_distribution!r}"
    )


def _place_client(
    topology: Topology,
    file: FileSpec,
    locality: LocalityDistribution,
    rng,
) -> str:
    """Pick a client host per the staggered locality distribution.

    Falls through to broader scopes when a bucket has no eligible host
    (e.g. every same-rack host is a replica).
    """
    primary_host = topology.hosts[file.primary]
    same_rack = topology.rack_host_ids(primary_host.rack)
    same_pod = topology.pod_host_ids_off_rack(primary_host.pod, primary_host.rack)
    other_pod = topology.host_ids_off_pod(primary_host.pod)

    draw = rng.random()
    scopes: Tuple[Sequence[str], ...]
    if draw < locality.same_rack:
        scopes = (same_rack, same_pod, other_pod)
    elif draw < locality.same_rack + locality.same_pod:
        scopes = (same_pod, same_rack, other_pod)
    else:
        scopes = (other_pod, same_pod, same_rack)
    for scope in scopes:
        bucket = [h for h in scope if h not in file.replicas]
        if bucket:
            return bucket[rng.randrange(len(bucket))]
    raise ValueError("no eligible client host in the topology")
