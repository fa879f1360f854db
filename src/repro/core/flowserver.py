"""The Flowserver service.

Runs inside the SDN controller (like the paper's Floodlight application)
and exposes the RPC the Mayflower client calls during reads: *given a
client, the file's replica hosts and a size, which replica(s) should I read
from, over which path(s), and how much from each?*

The same object also serves as a **path-only scheduler** for the
``Nearest Mayflower`` / ``Sinbad-R Mayflower`` / ``HDFS-Mayflower``
baselines: pass a single pre-selected replica and the optimization space
collapses to path choice, exactly as §6.2 describes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import TracebackType
from typing import List, Optional, Sequence, Tuple, Type

from repro.core.cost import LinkShareCache, estimate_path_share
from repro.core.fanout import (
    EdgeEstimate,
    FanoutPlan,
    plan_fanout,
    static_chain_plan,
)
from repro.core.flow_state import FlowStateTable, TrackedFlow
from repro.core.multireplica import MultiReplicaPlanner, SubflowPlan
from repro.core.selection import select_replica_and_path
from repro.core.stats import FlowStatsCollector
from repro.net.ecmp import EcmpHasher
from repro.net.routing import Path, RoutingTable
from repro.sdn.controller import Controller
from repro.sdn.openflow import FlowRemoved
from repro.sim import instrument
from repro.sim.engine import EventLoop


@dataclass(frozen=True)
class Assignment:
    """One transfer the client must perform for a read request.

    ``path`` is ``None`` for a local read (replica on the client host);
    otherwise the flow id has already been registered with the Flowserver
    and the path installed in the switches is implied by starting the
    transfer through the controller.
    """

    flow_id: Optional[str]
    replica: str
    path: Optional[Path]
    size_bits: float
    est_bw_bps: float


@dataclass(frozen=True)
class SelectionResult:
    """Reply to a replica-selection RPC: one or two assignments."""

    request_id: str
    assignments: Sequence[Assignment]

    @property
    def is_local(self) -> bool:
        return len(self.assignments) == 1 and self.assignments[0].path is None

    @property
    def is_split(self) -> bool:
        return len(self.assignments) > 1


@dataclass
class FlowserverConfig:
    """Tunables for the Flowserver (defaults reproduce the paper).

    Attributes
    ----------
    poll_interval:
        Edge-switch stats collection period, seconds.
    enable_multi_replica:
        §4.3 split reads (on in the paper's "Mayflower" configuration).
    enable_freeze:
        Pseudocode 2 update-freeze; disabling it is an ablation that lets
        stale stats clobber fresh analytic estimates.
    include_existing_flows_in_cost:
        The second term of Eq. 2; disabling degenerates to greedy
        max-bandwidth selection (ablation).
    """

    poll_interval: float = 1.0
    enable_multi_replica: bool = True
    enable_freeze: bool = True
    include_existing_flows_in_cost: bool = True


#: Degraded-mode trigger: a path whose source edge switch missed this many
#: consecutive stats polls is untrusted (its counters are garbage) and
#: excluded from cost-model optimization.  When *no* candidate is trusted
#: the Flowserver stops optimizing and spreads flows by ECMP over the
#: healthy paths until polling recovers.
_STALE_POLL_THRESHOLD = 3

#: Hash salt for the degraded-mode ECMP fallback.
_DEGRADED_ECMP_SALT = 0x5AFE

#: Histogram buckets for candidate-paths-per-selection (counts, not time).
_CANDIDATE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class _Degraded(Exception):
    """A fan-out edge has no healthy, trusted path."""


class Flowserver:
    """Replica/path selection service co-designed with the SDN controller."""

    def __init__(
        self,
        controller: Controller,
        routing: RoutingTable,
        config: Optional[FlowserverConfig] = None,
    ):
        self._controller = controller
        self._routing = routing
        self.config = config or FlowserverConfig()
        self.state = FlowStateTable()
        #: Long-lived per-link allocation memo shared by every candidate
        #: sweep; the table drops a link's entry whenever that link changes.
        self.link_cache = LinkShareCache(self.state)
        self._loop = controller.network.loop
        self._capacities = {
            lid: link.capacity_bps
            for lid, link in controller.network.topology.links.items()
        }
        self._planner = MultiReplicaPlanner()
        self.collector = FlowStatsCollector(
            self._loop, controller, self.state,
            poll_interval=self.config.poll_interval,
        )
        controller.add_flow_removed_listener(self._on_flow_removed)
        self._flow_seq = itertools.count()
        self._request_seq = itertools.count()
        # Degraded-mode machinery: a separate ECMP sequence counter is
        # drawn only when the cost model is bypassed, so fault-free runs
        # consume nothing and stay bit-identical.
        self._degraded_hasher = EcmpHasher(salt=_DEGRADED_ECMP_SALT)
        self._ecmp_seq = itertools.count()
        self._degraded_since: Optional[float] = None
        # Selection telemetry (consumed by experiments/ablations).
        self.requests_served = 0
        self.local_reads = 0
        self.split_reads = 0
        self.degraded_selections = 0
        self.degraded_entries = 0
        self.unreachable_path_selections = 0
        self.fanout_requests = 0
        self.fanout_tree_plans = 0
        self.fanout_chain_plans = 0
        self.fanout_static_fallbacks = 0
        self.fanout_reservations = 0
        self._intent_seq = itertools.count()
        self.recovery_times: List[float] = []
        instrument.notify_component("flowserver", self)

    @property
    def loop(self) -> EventLoop:
        """The simulated clock driving this Flowserver (SimSanitizer seam)."""
        return self._loop

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop background polling so the event loop can drain to idle.

        The Flowserver stays queryable after closing (counters, tracked
        state); only its periodic timer is torn down.
        Idempotent — prefer ``with Flowserver(...) as fs:`` over pairing
        manual ``close()`` calls with every early return.
        """
        self.collector.stop()

    def __enter__(self) -> "Flowserver":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------

    def select(
        self,
        client: str,
        replicas: Sequence[str],
        size_bits: float,
        job_id: Optional[str] = None,
    ) -> SelectionResult:
        """Select replica(s) and path(s) for a read request.

        Mirrors the RPC of §5: takes the candidate replica hosts and the
        size, returns the replicas and per-replica sizes to read.  The
        returned flow ids are pre-registered in the Flowserver state and
        the caller must start the transfers through the controller using
        exactly those ids.
        """
        if not replicas:
            raise ValueError("a read request needs at least one replica")
        if size_bits <= 0:
            raise ValueError(f"read size must be positive, got {size_bits}")
        request_id = job_id or f"req{next(self._request_seq)}"
        self.requests_served += 1

        if client in replicas:
            # Data-local read: no network flow at all.
            self.local_reads += 1
            self._trace(request_id, client, 0, ("local",), False)
            return SelectionResult(
                request_id=request_id,
                assignments=(
                    Assignment(
                        flow_id=None,
                        replica=client,
                        path=None,
                        size_bits=size_bits,
                        est_bw_bps=float("inf"),
                    ),
                ),
            )

        candidates = self._routing.paths_from_replicas(list(replicas), client)
        if not candidates:
            raise ValueError(f"no network path from replicas {replicas!r} to {client!r}")

        # Graceful degradation (robustness co-design): drop paths crossing
        # failed links/switches, then drop paths whose stats are stale.
        # Order-preserving filters, and identity transforms while every
        # path is healthy and trusted, so they run only when one may not be.
        if not self._all_paths_trusted():
            healthy = [p for p in candidates if self._controller.path_is_up(p)]
            if not healthy:
                # Total outage between these replicas and the client:
                # return an ECMP pick over the full set.  The transfer
                # aborts immediately and the client's backoff waits out
                # the outage — the Flowserver must not block or throw on
                # garbage state.
                self.unreachable_path_selections += 1
                return self._degraded_select(
                    request_id, client, candidates, size_bits
                )
            candidates = [p for p in healthy if self._path_trusted(p)]
            if not candidates:
                # Counters behind every healthy path are stale —
                # optimizing with them would be worse than spreading load
                # blindly, so fall back to ECMP until polling recovers
                # (the miss counters reset and paths re-promote
                # automatically).
                return self._degraded_select(
                    request_id, client, healthy, size_bits
                )
        self._note_recovered()

        if self.config.enable_multi_replica and len({p.src for p in candidates}) > 1:
            plans = self._planner.plan(
                candidates,
                flow_ids=(self._next_flow_id(), self._next_flow_id()),
                flow_size_bits=size_bits,
                link_capacity_bps=self._capacities,
                state=self.state,
                now=self._loop.now,
                include_existing_flows=self.config.include_existing_flows_in_cost,
                job_id=request_id,
                cache=self.link_cache,
            )
            if len(plans) > 1:
                self.split_reads += 1
            assignments = tuple(self._plan_to_assignment(p) for p in plans)
        else:
            flow_id = self._next_flow_id()
            choice = select_replica_and_path(
                candidates,
                flow_id=flow_id,
                flow_size_bits=size_bits,
                link_capacity_bps=self._capacities,
                state=self.state,
                now=self._loop.now,
                include_existing_flows=self.config.include_existing_flows_in_cost,
                job_id=request_id,
                cache=self.link_cache,
            )
            assignments = (
                Assignment(
                    flow_id=flow_id,
                    replica=choice.replica,
                    path=choice.path,
                    size_bits=size_bits,
                    est_bw_bps=choice.cost.est_bw_bps,
                ),
            )

        if not self.config.enable_freeze:
            # Ablation: undo the freeze flags SETBW just applied.
            for flow in self.state.flows.values():
                flow.freezed = False
        # The collector idles when no flows are tracked; wake it back up.
        self.collector.start()
        self._trace(
            request_id,
            client,
            len(candidates),
            tuple(a.replica for a in assignments),
            len(assignments) > 1,
        )
        return SelectionResult(request_id=request_id, assignments=assignments)

    def select_path_only(
        self,
        client: str,
        replica: str,
        size_bits: float,
        job_id: Optional[str] = None,
    ) -> SelectionResult:
        """Path selection for a pre-chosen replica (baseline scheduler mode)."""
        return self.select(client, [replica], size_bits, job_id=job_id)

    def plan_replication_fanout(
        self,
        writer: str,
        replicas: Sequence[str],
        size_bits: float,
        job_id: Optional[str] = None,
    ) -> FanoutPlan:
        """Choose the relay topology (chain vs. tree) for one append.

        The write-path side of the co-design: the client hands the
        Flowserver the file's replica set and the append size, and gets
        back a :class:`~repro.core.fanout.FanoutPlan` — writer→primary
        push path plus the relay tree the primary should fan the commit
        out over, shaped by current max-min share estimates.

        Planning applies no SETBW to existing flows, but it is not blind
        to itself: every planned edge registers a short-lived
        **reservation flow** in the state table, expiring after the
        plan's estimated completion.  Without reservations, concurrent
        writers planning in the same quiet instant would all see an idle
        network and herd onto the same "best" links; with them, each
        plan's cost sweep sees the fan-outs planned just before it and
        spreads.  An abandoned plan (the client retried elsewhere, the
        primary was fenced) costs nothing durable — its reservations
        expire on their own, and the stats collector's unseen-flow expiry
        backstops them.

        When any needed edge has no healthy, trusted path — the same
        degraded signals :meth:`select` uses — the whole plan falls back
        to a static ECMP chain in replica order, matching the read path's
        degrade-to-ECMP behaviour.
        """
        if not replicas:
            raise ValueError("an append needs at least one replica")
        if size_bits <= 0:
            raise ValueError(f"append size must be positive, got {size_bits}")
        self.fanout_requests += 1
        primary = replicas[0]
        secondaries = [r for r in replicas[1:]]

        def estimate(src: str, dst: str) -> EdgeEstimate:
            edge = self._fanout_edge(src, dst)
            if edge is None:
                raise _Degraded(f"{src}->{dst}")
            return edge

        try:
            plan = plan_fanout(
                writer, primary, secondaries, size_bits, estimate
            )
        except _Degraded:
            plan = static_chain_plan(writer, primary, secondaries)
            self.fanout_static_fallbacks += 1
        if plan.kind == "tree":
            self.fanout_tree_plans += 1
            self._reserve_plan(plan, size_bits, job_id)
        elif plan.kind == "chain":
            self.fanout_chain_plans += 1
            self._reserve_plan(plan, size_bits, job_id)
        tel = instrument.TELEMETRY
        if tel is not None:
            tel.instant(
                self._loop.now,
                "flowserver.fanout",
                "decision",
                request=job_id or "",
                writer=writer,
                primary=primary,
                kind=plan.kind,
                est_completion_s=plan.est_completion_s,
            )
        return plan

    def _reserve_plan(
        self, plan: FanoutPlan, size_bits: float, job_id: Optional[str]
    ) -> None:
        """Register expiring reservation flows for a plan's pinned edges.

        Each reserved edge occupies its links in the state table at the
        planned share, so the next plan's max-min sweep routes around it.
        Reservations self-expire after the whole plan's estimated
        completion (every relay edge is busy somewhere in that window);
        by then the real transfers have surfaced through stats polling.
        """
        edges: List[Tuple[Path, float]] = []
        if plan.push_path is not None:
            edges.append((plan.push_path, plan.push_bw_bps))
        stack = list(plan.children)
        while stack:
            node = stack.pop()
            if node.path is not None:
                edges.append((node.path, node.est_bw_bps))
            stack.extend(node.children)
        if not edges:
            return
        now = self._loop.now
        horizon = plan.est_completion_s
        if not math.isfinite(horizon) or horizon <= 0:
            return
        for path, bw_bps in edges:
            if not (bw_bps > 0 and math.isfinite(bw_bps)):
                continue
            flow_id = f"fanout-intent-{next(self._intent_seq)}"
            self.state.add(
                TrackedFlow(
                    flow_id=flow_id,
                    path_link_ids=path.link_ids,
                    size_bits=size_bits,
                    remaining_bits=size_bits,
                    bw_bps=bw_bps,
                    freezed=True,
                    freeze_until=now + horizon,
                    job_id=job_id,
                )
            )
            self.fanout_reservations += 1
            self._loop.call_at(
                now + horizon,
                lambda fid=flow_id: self.state.remove(fid),
            )

    def _fanout_edge(self, src: str, dst: str) -> Optional[EdgeEstimate]:
        """Best (path, est share) for one relay edge, or ``None`` when no
        healthy trusted path exists (degraded — caller falls back)."""
        if src == dst:
            return (None, float("inf"))
        candidates = self._routing.paths(src, dst)
        if not self._all_paths_trusted():
            candidates = [
                p for p in candidates
                if self._controller.path_is_up(p) and self._path_trusted(p)
            ]
        if not candidates:
            return None
        scored: List[Tuple[Path, float]] = []
        for path in candidates:
            bw, _ = estimate_path_share(
                path.link_ids, self._capacities, self.state,
                cache=self.link_cache,
            )
            scored.append((path, bw))
        # Highest estimated share wins; exact ties resolve to the
        # lexicographically smallest path so planning stays deterministic.
        best_path, best_bw = min(scored, key=lambda s: (-s[1], s[0].link_ids))
        return (best_path, best_bw)

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the last selection ran without a trusted path."""
        return self._degraded_since is not None

    def time_to_recover(self) -> float:
        """Mean seconds spent degraded per episode (0 when never degraded)."""
        if not self.recovery_times:
            return 0.0
        return sum(self.recovery_times) / len(self.recovery_times)

    def _all_paths_trusted(self) -> bool:
        """Whether no link or switch is down and every edge switch
        answered its last poll: every path then passes both filters."""
        return (
            self._controller.all_paths_up()
            and not self.collector.missed_poll_switches
        )

    def _path_trusted(self, path: Path) -> bool:
        """A path is trusted when its source edge switch (the one whose
        flow counters feed this path's bandwidth estimates) is answering
        stats polls."""
        topo = self._controller.network.topology
        source_switch = topo.links[path.link_ids[0]].dst
        return self.collector.consecutive_misses(source_switch) < _STALE_POLL_THRESHOLD

    def _note_recovered(self) -> None:
        if self._degraded_since is not None:
            episode = self._loop.now - self._degraded_since
            self.recovery_times.append(episode)
            self._degraded_since = None
            tel = instrument.TELEMETRY
            if tel is not None:
                tel.instant(self._loop.now, "flowserver.degraded.recover",
                            "degraded", episode_seconds=episode)

    def _degraded_select(
        self,
        request_id: str,
        client: str,
        pool: Sequence[Path],
        size_bits: float,
    ) -> SelectionResult:
        """ECMP fallback: pick a path by hash, skip the cost model.

        The flow is still registered (at an optimistic bottleneck-capacity
        estimate, frozen like any SETBW) so FlowRemoved cleanup, stats
        polling and later cost estimates keep working; no SETBW is applied
        to existing flows because the model is not to be trusted right now.
        """
        self.degraded_selections += 1
        tel = instrument.TELEMETRY
        if self._degraded_since is None:
            self._degraded_since = self._loop.now
            self.degraded_entries += 1
            if tel is not None:
                tel.instant(self._loop.now, "flowserver.degraded.enter",
                            "degraded", request=request_id, pool=len(pool))
        # The pool spans several replicas, but ECMP hashes within one
        # (src, dst) pair — spread replicas round-robin, then hash among
        # that replica's equal-cost paths.
        seq = next(self._ecmp_seq)
        sources = sorted({p.src for p in pool})
        src = sources[seq % len(sources)]
        same_src = [p for p in pool if p.src == src]
        path = self._degraded_hasher.pick_for_flow(same_src, seq)
        flow_id = self._next_flow_id()
        est_bw = min(self._capacities[lid] for lid in path.link_ids)
        tracked = TrackedFlow(
            flow_id=flow_id,
            path_link_ids=path.link_ids,
            size_bits=size_bits,
            remaining_bits=size_bits,
            bw_bps=est_bw,
            job_id=request_id,
        )
        self.state.add(tracked)
        self.state.set_bw(flow_id, est_bw, self._loop.now)
        if not self.config.enable_freeze:
            for flow in self.state.flows.values():
                flow.freezed = False
        self.collector.start()
        self._trace(request_id, client, len(pool), (path.src,), False)
        return SelectionResult(
            request_id=request_id,
            assignments=(
                Assignment(
                    flow_id=flow_id,
                    replica=path.src,
                    path=path,
                    size_bits=size_bits,
                    est_bw_bps=est_bw,
                ),
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tracked_flow_count(self) -> int:
        return len(self.state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _trace(
        self,
        request_id: str,
        client: str,
        candidates_evaluated: int,
        chosen: Tuple[str, ...],
        split: bool,
    ) -> None:
        """Emit one selection decision as a ``flowserver.select`` instant
        (plus its counters) when a telemetry session is installed."""
        tel = instrument.TELEMETRY
        if tel is None:
            return
        kind = (
            "split" if split
            else ("local" if chosen == ("local",) else "single")
        )
        tel.instant(
            self._loop.now,
            "flowserver.select",
            "decision",
            request=request_id,
            client=client,
            chosen=list(chosen),
            kind=kind,
            candidates=candidates_evaluated,
        )
        tel.observe(
            "flowserver_candidates_evaluated",
            float(candidates_evaluated),
            buckets=_CANDIDATE_BUCKETS,
        )

    def _next_flow_id(self) -> str:
        return f"mf{next(self._flow_seq)}"

    def _plan_to_assignment(self, plan: SubflowPlan) -> Assignment:
        return Assignment(
            flow_id=plan.flow_id,
            replica=plan.replica,
            path=plan.choice.path,
            size_bits=plan.size_bits,
            est_bw_bps=plan.est_bw_bps,
        )

    def _on_flow_removed(self, message: FlowRemoved) -> None:
        """Drop state for completed flows (controller FlowRemoved events)."""
        self.state.remove(message.flow_id)
        self.collector.forget(message.flow_id)
