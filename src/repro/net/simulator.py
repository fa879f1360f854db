"""Fluid flow-level network simulator.

This is the reproduction's stand-in for the paper's Mininet testbed.  Flows
are fluid: at any instant every active flow transfers at its global max-min
fair rate, recomputed whenever the set of active flows changes.  The
simulator schedules the earliest flow completion as a discrete event,
advances per-flow progress and recomputes rates.

One event costs two passes over the active flows (advance each flow's
byte count before the solve; find the next completion after it) plus a
solve of the connected component the event touched.  Byte counters are kept per flow only: they are what
switch flow stats serve, and nothing reads per-link totals.

Ground truth lives here; the Flowserver deliberately does *not* read it —
it sees the network only through switch counters and its own estimates,
reproducing the estimation dynamics the paper describes (stats polling,
update-freeze, local-path-only recomputation).
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Set

from repro.net.rate_engine import IncrementalRateEngine
from repro.net.routing import Path
from repro.net.topology import Topology
from repro.sim import instrument
from repro.sim.engine import EventHandle, EventLoop

# Flows whose remaining volume falls below this many bits are complete.
_COMPLETION_EPSILON_BITS = 1e-3

_NO_FLOWS: FrozenSet[str] = frozenset()


class FlowAborted(Exception):
    """A flow was terminated before delivering its last byte.

    Raised synchronously when a transfer is started (or rerouted) over a
    link that is down, and delivered to each victim flow's ``on_abort``
    callback when a link or switch on its path fails mid-transfer.

    Attributes
    ----------
    flow_id:
        The aborted flow.
    link_id:
        The failed link that killed the flow (``None`` when the flow was
        aborted for another reason, e.g. an explicit host crash).
    bytes_delivered:
        Bytes that reached the receiver before the abort; resumable reads
        re-request only the remainder.
    data:
        Optional delivered payload prefix, attached by the dataserver when
        real payloads are stored, so resumed reads stay byte-accurate.
    """

    def __init__(
        self,
        flow_id: str,
        link_id: Optional[str] = None,
        bytes_delivered: float = 0.0,
        reason: str = "link failure",
    ):
        self.flow_id = flow_id
        self.link_id = link_id
        self.bytes_delivered = bytes_delivered
        self.reason = reason
        self.data: Optional[bytes] = None
        where = f" on link {link_id!r}" if link_id else ""
        super().__init__(
            f"flow {flow_id!r} aborted ({reason}){where} after "
            f"{bytes_delivered:.0f} bytes"
        )


class Flow:
    """An active fluid flow over a path.

    Attributes
    ----------
    flow_id:
        Unique identifier (also the key of the controller's routes).
    path:
        The current route: assigned at start time, replaced only by
        :meth:`FlowNetwork.reroute_flow`.
    size_bits / remaining_bits:
        Total and outstanding volume.
    rate_bps:
        Current ground-truth max-min rate.
    bytes_sent:
        Per-flow byte counter (exposed via switch flow stats).
    """

    __slots__ = (
        "flow_id",
        "path",
        "size_bits",
        "remaining_bits",
        "rate_bps",
        "bytes_sent",
        "start_time",
        "end_time",
        "on_complete",
        "on_abort",
        "job_id",
    )

    def __init__(
        self,
        flow_id: str,
        path: Path,
        size_bits: float,
        start_time: float,
        on_complete: Optional[Callable[["Flow"], None]] = None,
        on_abort: Optional[Callable[["Flow", FlowAborted], None]] = None,
        job_id: Optional[str] = None,
    ):
        if size_bits <= 0:
            raise ValueError(f"flow size must be positive, got {size_bits}")
        self.flow_id = flow_id
        self.path = path
        self.size_bits = float(size_bits)
        self.remaining_bits = float(size_bits)
        self.rate_bps = 0.0
        self.bytes_sent = 0.0
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.on_complete = on_complete
        self.on_abort = on_abort
        self.job_id = job_id

    @property
    def src(self) -> str:
        return self.path.src

    @property
    def dst(self) -> str:
        return self.path.dst


class FlowNetwork:
    """Fluid max-min network simulation bound to an event loop.

    Parameters
    ----------
    loop:
        Simulated clock and event scheduler.
    topology:
        The network whose links the flows cross.
    """

    def __init__(self, loop: EventLoop, topology: Topology):
        self._loop = loop
        self._topo = topology
        self._flows: Dict[str, Flow] = {}
        self._last_progress_time = loop.now
        self._completion_event: Optional[EventHandle] = None
        self._engine = IncrementalRateEngine(
            lambda link_id: topology.links[link_id].capacity_bps
        )
        self._link_flows = self._engine.link_flows
        #: Ids of the links that are down; every writer of ``Link.up``
        #: below keeps it current, so "no link is down" is one test.
        self.down_links: Set[str] = {
            link_id for link_id, link in topology.links.items() if not link.up
        }
        self.completed_flows = 0
        self.aborted_flows = 0
        instrument.notify_component("network", self)

    @property
    def loop(self) -> EventLoop:
        return self._loop

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def rate_engine(self) -> IncrementalRateEngine:
        """The incremental solver maintaining this network's rates."""
        return self._engine

    @property
    def active_flows(self) -> Dict[str, Flow]:
        """Live view of active flows keyed by flow id (do not mutate)."""
        return self._flows

    def flows_on(self, link_id: str) -> AbstractSet[str]:
        """Ids of the active flows crossing ``link_id``.

        A live set, unordered and not a copy: sort it before relying on
        its order, and copy it before starting or ending a flow over it.
        """
        return self._link_flows.get(link_id, _NO_FLOWS)

    def start_flow(
        self,
        flow_id: str,
        path: Path,
        size_bits: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        on_abort: Optional[Callable[[Flow, FlowAborted], None]] = None,
        job_id: Optional[str] = None,
    ) -> Flow:
        """Begin transferring ``size_bits`` along ``path``.

        ``on_complete(flow)`` fires (as a simulation event) when the last
        bit is delivered; ``on_abort(flow, exc)`` fires instead if a link
        on the path fails mid-transfer.

        Raises
        ------
        FlowAborted
            If any link on ``path`` is currently down.
        """
        if flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        self._check_up(flow_id, path)
        self._advance_progress()
        flow = Flow(
            flow_id,
            path,
            size_bits,
            start_time=self._loop.now,
            on_complete=on_complete,
            on_abort=on_abort,
            job_id=job_id,
        )
        self._flows[flow_id] = flow
        self._engine.add_flow(flow_id, path.link_ids)
        self._recompute_rates()
        return flow

    def cancel_flow(self, flow_id: str) -> None:
        """Abort a flow without firing its completion callback."""
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        self._advance_progress()
        self._remove(flow)
        self._recompute_rates()

    def reroute_flow(self, flow_id: str, new_path: Path) -> Flow:
        """Move an in-flight flow onto a different path.

        Progress is preserved; only the remaining bytes travel the new
        route.  Endpoints must match (a centralized scheduler à la Hedera
        re-routes flows, it cannot re-source them).
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        if (new_path.src, new_path.dst) != (flow.src, flow.dst):
            raise ValueError(
                f"reroute must keep endpoints: {flow.src}->{flow.dst} vs "
                f"{new_path.src}->{new_path.dst}"
            )
        self._check_up(flow_id, new_path)
        self._advance_progress()
        flow.path = new_path
        self._engine.reroute_flow(flow_id, new_path.link_ids)
        self._recompute_rates()
        return flow

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------

    def fail_link(self, link_id: str) -> List[Flow]:
        """Take a directed link down, aborting every flow traversing it.

        Remaining flows' rates are recomputed immediately (the freed
        capacity redistributes); each victim's ``on_abort`` callback fires
        with a :class:`FlowAborted` carrying its delivered-byte count.
        Idempotent: failing an already-down link returns ``[]``.
        """
        link = self._topo.links[link_id]
        if not link.up:
            return []
        self._advance_progress()
        link.up = False
        self.down_links.add(link_id)
        victims = [self._flows[fid] for fid in sorted(self.flows_on(link_id))]
        return self._abort(victims, link_id=link_id, reason="link failure")

    def restore_link(self, link_id: str) -> None:
        """Bring a failed link back up.  Idempotent."""
        self._topo.links[link_id].up = True
        self.down_links.discard(link_id)

    def fail_node_links(self, node_id: str) -> List[Flow]:
        """Fail every directed link touching ``node_id`` (switch or host).

        Models a switch failure or a host crash: all adjacent cables go
        dark in both directions and every flow through the node aborts.
        Returns the distinct aborted flows.
        """
        self._advance_progress()
        victim_ids: Dict[str, str] = {}
        for link in self._topo.links.values():
            if link.src != node_id and link.dst != node_id:
                continue
            if not link.up:
                continue
            link.up = False
            self.down_links.add(link.link_id)
            for fid in self.flows_on(link.link_id):
                victim_ids.setdefault(fid, link.link_id)
        victims = [self._flows[fid] for fid in sorted(victim_ids)]
        return self._abort(
            victims,
            link_id=None,
            reason=f"node {node_id} failure",
            per_flow_link=victim_ids,
        )

    def restore_node_links(self, node_id: str) -> None:
        """Bring every link touching ``node_id`` back up.  Idempotent."""
        for link in self._topo.links.values():
            if link.src == node_id or link.dst == node_id:
                link.up = True
                self.down_links.discard(link.link_id)

    def path_is_up(self, path: Path) -> bool:
        """Whether every link along ``path`` is currently up."""
        if not self.down_links:
            return True
        return all(self._topo.links[lid].up for lid in path.link_ids)

    def _check_up(self, flow_id: str, path: Path) -> None:
        """Raise :class:`FlowAborted` if a link of ``path`` is down."""
        links = self._topo.links
        for link_id in path.link_ids:
            if not links[link_id].up:
                raise FlowAborted(flow_id, link_id=link_id, bytes_delivered=0.0)

    def _abort(
        self,
        victims: List[Flow],
        link_id: Optional[str],
        reason: str,
        per_flow_link: Optional[Dict[str, str]] = None,
    ) -> List[Flow]:
        """Remove ``victims``, recompute rates, then fire abort callbacks."""
        for flow in victims:
            self._remove(flow)
            self.aborted_flows += 1
        self._recompute_rates()
        # Callbacks run after rates settle (mirroring completions) so a
        # callback starting a recovery flow observes a consistent network.
        for flow in victims:
            failed_link = per_flow_link.get(flow.flow_id) if per_flow_link else link_id
            exc = FlowAborted(
                flow.flow_id,
                link_id=failed_link,
                bytes_delivered=flow.bytes_sent,
                reason=reason,
            )
            if flow.on_abort is not None:
                flow.on_abort(flow, exc)
        return victims

    def _remove(self, flow: Flow) -> None:
        del self._flows[flow.flow_id]
        self._engine.remove_flow(flow.flow_id)

    def _advance_progress(self) -> List[Flow]:
        """Move every flow forward by the interval since the last update.

        Only ``remaining_bits`` and ``bytes_sent`` change.  Returns the
        flows this pass found within the completion epsilon; when no time
        has passed nothing moves and nothing is returned.
        """
        now = self._loop.now
        elapsed = now - self._last_progress_time
        self._last_progress_time = now
        drained: List[Flow] = []
        if elapsed <= 0:
            return drained
        for flow in self._flows.values():
            remaining = flow.remaining_bits
            moved_bits = flow.rate_bps * elapsed
            if moved_bits >= remaining:
                moved_bits = remaining
            if moved_bits > 0:
                remaining -= moved_bits
                flow.remaining_bits = remaining
                flow.bytes_sent += moved_bits / 8.0
            if remaining <= _COMPLETION_EPSILON_BITS:
                drained.append(flow)
        return drained

    def _recompute_rates(self) -> None:
        """Re-solve the affected rates and reschedule the next completion.

        The :class:`IncrementalRateEngine` solves only the connected
        component touched by the membership change (bit-identical to the
        historical whole-network solve — see the engine's module
        docstring); only those flows' rates are written back.  The
        earliest completion is then found in one pass over all flows.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        flows = self._flows
        for fid, rate in self._engine.recompute().items():
            flows[fid].rate_bps = rate
        next_completion = math.inf
        for flow in flows.values():
            rate = flow.rate_bps
            if rate > 0:
                eta = flow.remaining_bits / rate
                if eta < next_completion:
                    next_completion = eta
        if next_completion < math.inf:
            self._completion_event = self._loop.call_in(
                max(0.0, next_completion), self._on_completion_tick
            )

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        if self._loop.now > self._last_progress_time:
            finished = self._advance_progress()
        else:
            # Progress already stands at this instant: whatever is drained
            # got there in an earlier pass (or started that small).
            finished = [
                f
                for f in self._flows.values()
                if f.remaining_bits <= _COMPLETION_EPSILON_BITS
            ]
        finished.sort(key=lambda f: f.flow_id)
        for flow in finished:
            flow.remaining_bits = 0.0
            flow.end_time = self._loop.now
            self._remove(flow)
            self.completed_flows += 1
        self._recompute_rates()
        # Completion callbacks run after rates settle so that a callback
        # starting a new flow observes a consistent network.
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

    # ------------------------------------------------------------------
    # Introspection used by switches, baselines and tests.
    # ------------------------------------------------------------------

    def snapshot_progress(self) -> None:
        """Bring every flow's byte counter up to the current instant.

        Switch flow stats call this before every read; a second call at
        the same instant moves nothing.
        """
        self._advance_progress()

    def link_utilization_bps(self, link_id: str) -> float:
        """Instantaneous ground-truth load on a link (sum of flow rates).

        Delegated to the rate engine, which sums member rates in sorted
        flow-id order so the float result is independent of the process
        hash seed.
        """
        if link_id not in self._topo.links:
            raise KeyError(f"unknown link {link_id!r}")
        return self._engine.link_utilization_bps(link_id)

    def ground_truth_rates(self) -> Dict[str, float]:
        """Current max-min rate of every active flow (testing aid)."""
        return {fid: f.rate_bps for fid, f in self._flows.items()}
