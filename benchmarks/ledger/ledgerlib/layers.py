"""Per-layer metrics: profiler attribution and public counters.

Every layer is observed from outside.  Host time comes from a
``cProfile`` session owned by the harness and collapsed by source path
into ``repro.<package>``; work counts come from public attributes of the
live objects a rep leaves behind.  Names are resolved lazily, so a
callable or counter that a later change removes is reported as missing
instead of stopping the run.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ledgerlib.common import dig

#: ``repro`` packages that get a ``<pkg>.self_s`` row.
PACKAGES = (
    "sim", "net", "sdn", "core", "rpc", "fs", "kvstore", "cluster",
    "baselines", "workload", "telemetry", "experiments", "consensus",
    "faults",
)
SELF_TIME = tuple(f"{p}.self_s" for p in PACKAGES) + (
    "ext.networkx.self_s", "ext.other.self_s", "bench.self_s",
)

#: Boundary callables: metric stem -> ``module:qualified name``.
BOUNDARIES = {
    "sim.engine.step": "repro.sim.engine:EventLoop.step",
    "sim.engine.call_at": "repro.sim.engine:EventLoop.call_at",
    "sim.process.spawn": "repro.sim.process:spawn",
    "net.fairshare.max_min_fair_rates": "repro.net.fairshare:max_min_fair_rates",
    "net.rate_engine.recompute": "repro.net.rate_engine:IncrementalRateEngine.recompute",
    "net.routing.paths": "repro.net.routing:RoutingTable.paths",
    "net.simulator.start_flow": "repro.net.simulator:FlowNetwork.start_flow",
    "net.switch.flow_stats": "repro.net.switch:Switch.flow_stats",
    "sdn.controller.start_transfer": "repro.sdn.controller:Controller.start_transfer",
    "sdn.controller.query_flow_stats": "repro.sdn.controller:Controller.query_flow_stats",
    "core.flowserver.select": "repro.core.flowserver:Flowserver.select",
    "core.flowserver.plan_replication_fanout": "repro.core.flowserver:Flowserver.plan_replication_fanout",
    "core.cost.flow_cost": "repro.core.cost:flow_cost",
    "core.cost.new_bandwidth_of_existing": "repro.core.cost:new_bandwidth_of_existing",
    "core.stats.poll_once": "repro.core.stats:FlowStatsCollector.poll_once",
    "rpc.fabric.call": "repro.rpc.fabric:RpcFabric.call",
    "fs.client.read": "repro.fs.client:MayflowerClient.read",
    "fs.client.append": "repro.fs.client:MayflowerClient.append",
    "fs.nameserver.create": "repro.fs.nameserver:Nameserver.create",
    "fs.nameserver.lookup": "repro.fs.nameserver:Nameserver.lookup",
    "fs.nameserver.record_append": "repro.fs.nameserver:Nameserver.record_append",
    "fs.dataserver.serve_read": "repro.fs.dataserver:Dataserver.serve_read",
    "fs.dataserver.push_data": "repro.fs.dataserver:Dataserver.push_data",
    "fs.dataserver.commit_append": "repro.fs.dataserver:Dataserver.commit_append",
    "kvstore.db.put": "repro.kvstore.db:KVStore.put",
    "kvstore.db.get": "repro.kvstore.db:KVStore.get",
    "workload.generate_workload": "repro.workload.generator:generate_workload",
}

#: Public counters: metric -> (root object name, dotted public path).
#: A list-valued root (clients, dataservers) is summed.
COUNTERS = {
    "sim.events": ("loop", "events_processed"),
    "net.solves": ("network", "rate_engine.stats.solves"),
    "net.link_visits": ("network", "rate_engine.stats.link_visits"),
    "net.full_link_visits": ("network", "rate_engine.stats.full_link_visits"),
    "net.dirty_flows": ("network", "rate_engine.stats.dirty_flows"),
    "core.requests_served": ("flowserver", "requests_served"),
    "core.local_reads": ("flowserver", "local_reads"),
    "core.split_reads": ("flowserver", "split_reads"),
    "core.share_cache_hit_rate": ("flowserver", "link_cache.hit_rate"),
    "core.polls_completed": ("flowserver", "collector.polls_completed"),
    "core.measurements_applied": ("flowserver", "collector.measurements_applied"),
    "core.measurements_suppressed": ("flowserver", "collector.measurements_suppressed"),
    "core.flows_expired": ("flowserver", "collector.flows_expired"),
    "core.fanout_tree_plans": ("flowserver", "fanout_tree_plans"),
    "core.fanout_chain_plans": ("flowserver", "fanout_chain_plans"),
    "rpc.calls_sent": ("fabric", "calls_sent"),
    "rpc.calls_failed": ("fabric", "calls_failed"),
    "fs.read_retries": ("clients", "read_retries"),
    "fs.append_retries": ("clients", "append_retries"),
    "fs.appends_deduplicated": ("dataservers", "appends_deduplicated"),
    "fs.lease_fencings": ("dataservers", "lease_fencings"),
}
#: Counters derived from other public values rather than read directly.
DERIVED_COUNTERS = (
    "net.dirty_flows_per_solve", "fs.client_cache_hit_rate", "kvstore.tables",
)
#: Filled in by the parent from whole reps: the profiler's total and its
#: cost, host time per simulated event (untraced ``wall_s`` over
#: ``sim.events``), and the extra rep under ``repro.telemetry``.
TRACE = ("trace.total_s", "trace.overhead_frac")
HOST_DERIVED = ("sim.us_per_event",)
TELEMETRY = ("telemetry.overhead_frac", "telemetry.events")


def boundary_metric_names() -> List[str]:
    return [f"{stem}.{kind}" for stem in BOUNDARIES for kind in ("calls", "cum_s")]


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in the order the tables print them."""
    return (
        list(SELF_TIME) + list(TRACE) + boundary_metric_names()
        + list(COUNTERS) + list(DERIVED_COUNTERS) + list(HOST_DERIVED)
        + list(TELEMETRY)
    )


def resolve(target: str) -> Optional[Any]:
    """The object behind ``module:qualified.name`` or ``None`` if it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        found: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        found = getattr(found, part, None)
        if found is None:
            return None
    return found


def _layer_of(filename: str, bench_dir: str) -> str:
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        package = path[marker + len("/repro/"):].split("/", 1)[0]
        if package in PACKAGES:
            return f"{package}.self_s"
    if "/networkx/" in path:
        return "ext.networkx.self_s"
    if path.startswith(bench_dir):
        return "bench.self_s"
    return "ext.other.self_s"


def collapse(stats: Iterable[Any], boundaries: Dict[str, str] = BOUNDARIES
             ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Fold ``cProfile.Profile.getstats()`` into the per-layer rows.

    Self time goes to the package owning the function's source file.  The
    harness profiles with ``builtins=False``, so a builtin's time stays
    inside the self time of the Python function that called it.  Boundary
    rows are the profiler's call count and inclusive time of one code
    object, which stays exact however many modules re-export the function.
    """
    bench_dir = str(Path(__file__).resolve().parent.parent).replace(os.sep, "/")
    rows: Dict[str, Optional[float]] = {name: 0.0 for name in SELF_TIME}
    by_code = {}
    for entry in stats:
        if isinstance(entry.code, str):  # a builtin: profiled only if asked
            rows["ext.other.self_s"] += entry.inlinetime
            continue
        by_code[entry.code] = entry
        rows[_layer_of(entry.code.co_filename, bench_dir)] += entry.inlinetime
    rows["trace.total_s"] = sum(rows[name] for name in SELF_TIME)

    missing = []
    for stem, target in boundaries.items():
        function = resolve(target)
        code = getattr(function, "__code__", None)
        if code is None:
            rows[f"{stem}.calls"] = rows[f"{stem}.cum_s"] = None
            missing.append(stem)
            continue
        entry = by_code.get(code)
        rows[f"{stem}.calls"] = entry.callcount if entry else 0
        rows[f"{stem}.cum_s"] = entry.totaltime if entry else 0.0
    return rows, missing


def _read(root: Any, path: str) -> Optional[float]:
    if isinstance(root, list):
        values = [dig(item, path) for item in root]
        return None if None in values else sum(values)
    return dig(root, path)


def read_counters(roots: Dict[str, Any]) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Public counters off the live objects of one rep.

    A counter whose root object is not part of the workload (no fabric on
    the bare network) is ``None`` without being missing; one whose root is
    there but whose attribute is gone is ``None`` *and* listed as missing.
    """
    values: Dict[str, Optional[float]] = {}
    missing = []
    for name, (root_name, path) in COUNTERS.items():
        root = roots.get(root_name)
        values[name] = None if root is None else _read(root, path)
        if root is not None and values[name] is None:
            missing.append(name)

    solves, dirty = values["net.solves"], values["net.dirty_flows"]
    values["net.dirty_flows_per_solve"] = (
        dirty / solves if solves and dirty is not None else None
    )
    clients = roots.get("clients")
    hits = _read(clients, "cache_hits") if clients else None
    misses = _read(clients, "cache_misses") if clients else None
    values["fs.client_cache_hit_rate"] = (
        hits / (hits + misses)
        if hits is not None and misses is not None and hits + misses
        else None
    )
    if clients and (hits is None or misses is None):
        missing.append("fs.client_cache_hit_rate")
    # The nameserver's store is private to it; its SSTables are files in
    # the directory the harness handed to the cluster.
    directory = roots.get("kvstore_dir")
    values["kvstore.tables"] = (
        len(list(Path(directory).glob("*.sst"))) if directory else None
    )
    return values, missing
