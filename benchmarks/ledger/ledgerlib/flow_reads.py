"""``flow_reads_64`` / ``flow_reads_1024``: read jobs as bare flows.

Both drive :func:`repro.experiments.runner.run_scheme_on_workload` with
the ``mayflower`` scheme — the path every Fig. 4–7 experiment takes — so
the timed section is exactly that public call: environment constructors,
arrival scheduling and the event loop until the last job settles.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ledgerlib.common import CLUSTER_SEED, Outcome, build, dig, mean, op_digest

from repro.experiments.runner import SchemeRunConfig, run_scheme_on_workload
from repro.fs.placement import PaperEvalPlacement
from repro.net.topology import three_tier
from repro.sim.randomness import RandomStreams
from repro.workload.generator import (
    LocalityDistribution,
    WorkloadConfig,
    generate_workload,
)


def _trace(params: Dict[str, Any], jobs: int, trace_seed: int):
    """Topology, run config and job trace for ``params`` (set-up work)."""
    shape = dict(
        pods=params["pods"],
        racks_per_pod=params["racks_per_pod"],
        hosts_per_rack=params["hosts_per_rack"],
        oversubscription=params["oversubscription"],
    )
    topology = three_tier(**shape)
    config, dropped = build(SchemeRunConfig, topology=topology, **shape)
    wl_config, wl_dropped = build(
        WorkloadConfig,
        num_files=params["files"],
        num_jobs=jobs,
        arrival_rate_per_server=params["arrival_rate_per_server"],
        zipf_skew=params["zipf_skew"],
        locality=LocalityDistribution(*params["locality"]),
    )
    # The catalogue is the cluster's, not the trace's: its placement
    # stream is fixed so every seed loads the same replica layout.
    placement = PaperEvalPlacement(
        topology, RandomStreams(CLUSTER_SEED).stream("placement")
    )
    workload = generate_workload(
        topology, wl_config, trace_seed, placement=placement
    )
    return config, workload, dropped + wl_dropped


class FlowReads:
    """One rep: build in ``__init__`` (set-up), :meth:`run` is timed."""

    def __init__(self, params: Dict[str, Any], trace_seed: int, scratch: str):
        self.config, self.workload, self.dropped = _trace(
            params, params["jobs"], trace_seed
        )
        self.env = None
        self.records: List[Any] = []

    def _keep_env(self, env) -> None:
        self.env = env

    def run(self) -> None:
        self.records = run_scheme_on_workload(
            "mayflower",
            self.workload,
            self.config,
            seed=CLUSTER_SEED,
            on_env=self._keep_env,
        )

    def close(self) -> None:
        """Nothing outlives the rep."""

    def outcome(self) -> Outcome:
        env = self.env
        jobs = len(self.workload.jobs)
        engine = env.network.rate_engine
        batch_diff = dig(engine, "verify_against_batch")
        table_diff = dig(env.controller, "verify_tables_consistent")
        return Outcome(
            latencies=[r.duration for r in self.records],
            attempted=jobs,
            failed=jobs - len(self.records),
            digest=op_digest(
                (r.job_id, r.completion_time, r.replica_choices)
                for r in self.records
            ),
            checks={
                "all_ops_settled": len(self.records) == jobs,
                "no_flow_left": dig(engine, "flow_count") == 0,
                "rates_match_batch_solver": batch_diff == [],
                "flow_tables_consistent": table_diff == [],
            },
            roots={
                "loop": env.loop,
                "network": env.network,
                "flowserver": env.flowserver,
            },
            dropped_knobs=self.dropped,
            notes=list(batch_diff or []) + list(table_diff or []),
        )


def paper_shape_guard(params: Dict[str, Any], trace_seed: int) -> Dict[str, Any]:
    """Mean job time of ``nearest-ecmp`` over ``mayflower`` on one trace.

    A guard on the *modelled* result against the paper's Fig. 4 (3.4x),
    not a hardware measurement and not a ledger metric.
    """
    config, workload, _ = _trace(params, params["guard_jobs"], trace_seed)
    means = {}
    for scheme in ("mayflower", "nearest-ecmp"):
        records = run_scheme_on_workload(
            scheme, workload, config, seed=CLUSTER_SEED
        )
        means[scheme] = mean([r.duration for r in records])
    ratio = means["nearest-ecmp"] / means["mayflower"]
    return {
        "jobs": params["guard_jobs"],
        "sim_mean_s": means,
        "ratio": ratio,
        "floor": params["guard_floor"],
        "paper": 3.4,
        "ok": ratio >= params["guard_floor"],
    }
