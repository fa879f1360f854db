"""Workload driver for the full-cluster prototype (Fig. 8).

Unlike :mod:`repro.experiments.runner` (which models jobs as bare flows),
this path exercises the real stack: nameserver lookups, Flowserver RPCs,
dataserver reads, client metadata caching — everything but the bytes
themselves (files are bootstrapped at their final size rather than
appended through the network, since writing the corpus is not what Fig. 8
measures).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.fs.chunks import FileMetadata
from repro.fs.client import MayflowerClient
from repro.sim.randomness import RandomStreams
from repro.workload.generator import (
    DEFAULT_READ_BYTES,
    LocalityDistribution,
    _place_client,
    FileSpec,
)
from repro.workload.zipf import ZipfSampler


def bootstrap_files(
    cluster: Cluster,
    num_files: int,
    file_size_bytes: int,
    replication: int = 3,
) -> List[FileMetadata]:
    """Create ``num_files`` files already holding ``file_size_bytes``.

    Metadata and placement go through the real nameserver; the payload is
    materialized directly on the replica dataservers (pre-existing data).
    """
    files = []
    for i in range(num_files):
        name = f"file{i:05d}"
        metadata_dict = cluster.nameserver.create(name, replication=replication)
        metadata = FileMetadata.from_json_dict(metadata_dict)
        for replica in metadata.replicas:
            ds = cluster.dataservers[replica]
            ds.create_file(metadata_dict)
            ds.load_preexisting(metadata.file_id, file_size_bytes)
        cluster.nameserver.record_append(name, file_size_bytes)
        files.append(metadata.with_size(file_size_bytes))
    return files


def run_cluster_workload(
    scheme_name: str,
    arrival_rate_per_server: float = 0.07,
    num_jobs: int = 120,
    num_files: int = 60,
    read_bytes: int = DEFAULT_READ_BYTES,
    locality: Optional[LocalityDistribution] = None,
    seed: int = 42,
    max_sim_seconds: float = 100000.0,
    config: Optional[ClusterConfig] = None,
    fault_plan=None,
    on_env: Optional[Callable[[Cluster, List[MayflowerClient], Any], None]] = None,
) -> List[float]:
    """Run a read workload against a full cluster; returns job durations.

    ``scheme_name`` is a :data:`~repro.baselines.schemes.SCHEMES` row the
    cluster hosts (Fig. 8 runs ``mayflower``, ``hdfs-mayflower`` and
    ``hdfs-ecmp``).  The traffic matrix matches §6.1.1 (Poisson arrivals,
    Zipf popularity, staggered locality).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) is armed against
    the cluster before the workload starts; job failures then surface as
    a RuntimeError naming the failed jobs rather than silently hanging
    the drain loop.  ``on_env`` (when given) is invoked as
    ``on_env(cluster, clients, injector)`` after the workload settles but
    before the failure checks and teardown, so callers can harvest
    counters (e.g. :func:`repro.experiments.metrics.resilience_summary`).
    """
    locality = locality or LocalityDistribution(0.5, 0.3, 0.2)
    cluster_config = config or ClusterConfig(scheme=scheme_name, seed=seed)
    if config is not None:
        cluster_config.scheme = scheme_name
    cluster = Cluster(cluster_config)
    injector = None
    try:
        files = bootstrap_files(
            cluster, num_files, file_size_bytes=read_bytes,
            replication=cluster_config.replication,
        )
        if fault_plan is not None:
            injector = cluster.inject_faults(fault_plan)
        streams = RandomStreams(seed)
        sampler = ZipfSampler(num_files, 1.1)
        popularity_rng = streams.stream("popularity")
        arrival_rng = streams.stream("arrivals")
        locality_rng = streams.stream("locality")
        system_rate = arrival_rate_per_server * len(cluster.topology.hosts)

        clients: Dict[str, MayflowerClient] = {}
        durations: List[float] = []
        failures: List[tuple] = []

        def get_client(host: str):
            if host not in clients:
                clients[host] = cluster.client(host)
            return clients[host]

        def launch(job_id: str, host: str, name: str):
            client = get_client(host)

            def body():
                try:
                    result = yield from client.read(name, job_id=job_id)
                except Exception as err:  # noqa: BLE001 - reported below
                    failures.append((job_id, err))
                    return
                durations.append(result.duration)

            cluster.spawn(body(), name=job_id)

        now = 0.0
        for j in range(num_jobs):
            now += arrival_rng.expovariate(system_rate)
            metadata = files[sampler.sample(popularity_rng)]
            spec = FileSpec(
                name=metadata.name,
                size_bytes=metadata.size_bytes,
                replicas=metadata.replicas,
            )
            client_host = _place_client(
                cluster.topology, spec, locality, locality_rng
            )
            cluster.loop.call_at(
                now, launch, f"job{j:06d}", client_host, metadata.name
            )

        def settled() -> int:
            return len(durations) + len(failures)

        while settled() < num_jobs and cluster.loop.peek_time() is not None:
            if cluster.loop.now > max_sim_seconds:
                raise RuntimeError(
                    f"{scheme_name}: only {len(durations)}/{num_jobs} jobs "
                    f"finished within {max_sim_seconds} s — saturated"
                )
            cluster.loop.step()
        if on_env is not None:
            on_env(cluster, list(clients.values()), injector)
        if failures:
            job_id, err = failures[0]
            raise RuntimeError(
                f"{scheme_name}: {len(failures)}/{num_jobs} job(s) failed; "
                f"first: {job_id}: {type(err).__name__}: {err}"
            ) from err
        if len(durations) < num_jobs:
            raise RuntimeError(
                f"{scheme_name}: simulation drained with "
                f"{len(durations)}/{num_jobs} jobs finished"
            )
        return durations
    finally:
        cluster.shutdown()
