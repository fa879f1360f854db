"""``dfs_meta_64`` / ``dfs_mixed_64``: the full filesystem stack.

Both build a real :class:`repro.cluster.Cluster` (nameserver on the
kvstore, dataservers, RPC fabric, Flowserver) and drive it through
:class:`MayflowerClient` generators spawned at open-loop arrival times.
``dfs_meta_64`` issues metadata operations only; ``dfs_mixed_64`` mixes
whole-block reads with pipelined appends to the same files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Tuple

from ledgerlib.common import CLUSTER_SEED, MIB, Outcome, build, dig, op_digest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.experiment import bootstrap_files
from repro.fs.retry import RetryPolicy
from repro.sim.process import spawn
from repro.sim.randomness import RandomStreams
from repro.workload.zipf import ZipfSampler


class _ClusterRep:
    """Cluster life cycle and the drain loop shared by both workloads."""

    def __init__(self, params: Dict[str, Any], scratch: str, **knobs: Any):
        self.db_directory = Path(scratch) / "nameserver"
        config, self.dropped = build(
            ClusterConfig,
            pods=params["pods"],
            racks_per_pod=params["racks_per_pod"],
            hosts_per_rack=params["hosts_per_rack"],
            oversubscription=params["oversubscription"],
            scheme="mayflower",
            seed=CLUSTER_SEED,
            db_directory=self.db_directory,
            **knobs,
        )
        self.cluster = Cluster(config)
        self.loop = self.cluster.loop
        self.hosts = sorted(self.cluster.topology.hosts)
        self.clients = {h: self.cluster.client(h) for h in self.hosts}
        self.drain_sim_s = params["drain_sim_s"]
        self.last_arrival = 0.0
        self.total = 0
        self.settled = 0
        self.failures: List[Tuple[Any, str]] = []

    def at(self, when: float, body: Callable[..., Generator], *args: Any) -> None:
        """Start ``body(*args)`` as a process at simulated time ``when``."""
        self.loop.call_at(when, self._start, body, args)
        self.last_arrival = max(self.last_arrival, when)

    def _start(self, body: Callable[..., Generator], args: tuple) -> None:
        spawn(self.loop, body(*args))

    def run(self) -> None:
        # The Flowserver's poll timer never lets the queue empty, so step
        # until every op settled; the horizon only bounds a hung op.
        loop = self.loop
        horizon = self.last_arrival + self.drain_sim_s
        while self.settled < self.total and loop.now <= horizon:
            if not loop.step():
                break

    def roots(self) -> Dict[str, Any]:
        cluster = self.cluster
        return {
            "loop": cluster.loop,
            "network": cluster.network,
            "flowserver": cluster.flowserver,
            "fabric": cluster.fabric,
            "clients": list(self.clients.values()),
            "dataservers": list(cluster.dataservers.values()),
            "kvstore_dir": self.db_directory,
        }

    def drained_checks(self) -> Tuple[Dict[str, Any], List[str]]:
        engine = self.cluster.network.rate_engine
        batch_diff = dig(engine, "verify_against_batch")
        table_diff = dig(self.cluster.controller, "verify_tables_consistent")
        checks = {
            "all_ops_settled": self.settled == self.total and not self.failures,
            "no_flow_left": dig(engine, "flow_count") == 0,
            "rates_match_batch_solver": batch_diff == [],
            "flow_tables_consistent": table_diff == [],
        }
        notes = list(batch_diff or []) + list(table_diff or [])
        notes += [f"{op}: {err}" for op, err in self.failures[:5]]
        return checks, notes

    def close(self) -> None:
        self.cluster.shutdown()


class DfsMeta(_ClusterRep):
    """Composites of create, stat x3, move, stat, delete — no data flows."""

    STEPS = ("create", "stat", "stat", "stat", "move", "stat", "delete")

    def __init__(self, params: Dict[str, Any], trace_seed: int, scratch: str):
        super().__init__(params, scratch, rpc_jitter=params["rpc_jitter_s"])
        streams = RandomStreams(trace_seed)
        arrival_rng = streams.stream("arrivals")
        client_rng = streams.stream("clients")
        composites = params["composites"]
        self.total = composites * len(self.STEPS)
        self.rows: List[tuple] = []
        self.latencies: List[float] = []
        self.moves_kept_id = True
        now = 0.0
        for i in range(composites):
            now += arrival_rng.expovariate(params["composites_per_sim_s"])
            actors = [
                self.clients[self.hosts[client_rng.randrange(len(self.hosts))]]
                for _ in self.STEPS
            ]
            self.at(now, self._composite, i, now, actors)

    def _composite(self, i: int, arrival: float, actors: List[Any]) -> Generator:
        name, moved = f"/meta/{i:06d}", f"/meta/{i:06d}.moved"
        calls = (
            lambda c: c.create(name),
            lambda c: c.stat(name),
            lambda c: c.stat(name),
            lambda c: c.stat(name),
            lambda c: c.move(name, moved),
            lambda c: c.stat(moved),
            lambda c: c.delete(moved),
        )
        started = arrival
        file_id = None
        for step, (label, call) in enumerate(zip(self.STEPS, calls)):
            try:
                metadata = yield from call(actors[step])
            except Exception as err:  # noqa: BLE001 - counted as a failed op
                self.failures.append(((i, label), f"{type(err).__name__}: {err}"))
                self.settled += len(self.STEPS) - step
                return
            if file_id is None:
                file_id = metadata.file_id
            elif metadata.file_id != file_id:
                self.moves_kept_id = False
            now = self.loop.now
            self.latencies.append(now - started)
            self.rows.append((i, step, now, metadata.replicas))
            started = now
            self.settled += 1

    def outcome(self) -> Outcome:
        checks, notes = self.drained_checks()
        leftover = dig(self.cluster.nameserver, "list_files")
        checks["namespace_left_empty"] = leftover == []
        checks["move_keeps_file_id"] = self.moves_kept_id
        self.rows.sort()
        return Outcome(
            latencies=self.latencies,
            attempted=self.total,
            failed=self.total - len(self.latencies),
            digest=op_digest(self.rows),
            checks=checks,
            roots=self.roots(),
            dropped_knobs=self.dropped,
            notes=notes,
        )


class DfsMixed(_ClusterRep):
    """70 % whole-block reads, 30 % pipelined 3-replica appends."""

    def __init__(self, params: Dict[str, Any], trace_seed: int, scratch: str):
        super().__init__(params, scratch, write_pipeline=True, retry=RetryPolicy())
        self.file_bytes = params["file_mib"] * MIB
        self.append_bytes = params["append_mib"] * MIB
        files = bootstrap_files(self.cluster, params["files"], self.file_bytes)
        self.names = [f.name for f in files]
        streams = RandomStreams(trace_seed)
        arrival_rng = streams.stream("arrivals")
        popularity_rng = streams.stream("popularity")
        client_rng = streams.stream("clients")
        kind_rng = streams.stream("kinds")
        sampler = ZipfSampler(len(files), params["zipf_skew"])
        rate = params["arrival_rate_per_server"] * len(self.hosts)
        self.total = params["ops"]
        self.reads: Dict[int, float] = {}
        self.appends: Dict[int, float] = {}
        self.rows: List[tuple] = []
        self.acked = {name: 0 for name in self.names}
        now = 0.0
        for i in range(self.total):
            now += arrival_rng.expovariate(rate)
            name = self.names[sampler.sample(popularity_rng)]
            client = self.clients[self.hosts[client_rng.randrange(len(self.hosts))]]
            is_append = kind_rng.random() < params["append_fraction"]
            self.at(now, self._op, i, now, client, name, is_append)

    def _op(self, i, arrival, client, name, is_append) -> Generator:
        job_id = f"op{i:06d}"
        try:
            if is_append:
                size = yield from client.append(
                    name, self.append_bytes, job_id=job_id
                )
                self.acked[name] += 1
                self.appends[i] = self.loop.now - arrival
                self.rows.append((i, "append", self.loop.now, size))
            else:
                result = yield from client.read(
                    name, 0, self.file_bytes, job_id=job_id
                )
                self.reads[i] = self.loop.now - arrival
                self.rows.append(
                    (i, "read", self.loop.now,
                     tuple(t.replica for t in result.transfers))
                )
        except Exception as err:  # noqa: BLE001 - counted as a failed op
            self.failures.append((job_id, f"{type(err).__name__}: {err}"))
        self.settled += 1

    def _final_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        client = self.clients[self.hosts[0]]

        def stat_all() -> Generator:
            for name in self.names:
                metadata = yield from client.stat(name)
                sizes[name] = metadata.size_bytes

        proc = spawn(self.loop, stat_all())
        while not proc.finished and self.loop.step():
            pass
        return sizes

    def outcome(self) -> Outcome:
        checks, notes = self.drained_checks()
        sizes = self._final_sizes()
        wrong = [
            name for name in self.names
            if sizes.get(name)
            != self.file_bytes + self.append_bytes * self.acked[name]
        ]
        checks["appends_exactly_once"] = not wrong
        notes += [f"size of {name} is {sizes.get(name)}" for name in wrong[:5]]
        self.rows.sort()
        return Outcome(
            latencies=[self.reads[i] for i in sorted(self.reads)],
            append_latencies=[self.appends[i] for i in sorted(self.appends)],
            attempted=self.total,
            failed=self.total - len(self.reads) - len(self.appends),
            digest=op_digest(self.rows),
            checks=checks,
            roots=self.roots(),
            dropped_knobs=self.dropped,
            notes=notes,
        )
