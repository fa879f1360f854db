"""Incremental max-min rate engine with scoped recomputation.

The fluid simulator historically re-solved **global** max-min fairness
(:func:`repro.net.fairshare.max_min_fair_rates`) from scratch on every
flow start/finish/abort/reroute.  That is O(active-network) per event —
fine at the paper's 64-host testbed, hopeless at the §6.4 scale story
(40 servers/rack × 500 racks) where one rack's flow churn has no
business touching another pod's rates.

:class:`IncrementalRateEngine` keeps the solver's inputs *persistent*
between events — per-flow link lists, per-link member sets, residual
link capacities — and on each membership change re-solves only the
**connected component of the flow↔link sharing graph reachable from the
changed links**.  Flows outside that component share no link (directly
or transitively) with anything that changed, so their max-min rates are
provably unaffected: progressive filling decomposes exactly over
connected components.

Determinism contract
--------------------
The scoped solve calls the *same* :func:`max_min_fair_rates` routine on
the dirty component, so every arithmetic operation (the subtraction
order on residual capacities, the bottleneck-share divisions, the
demand-tie ordering) is identical to what the batch solver performs for
that component inside a whole-network solve.  Rates are therefore
bit-identical to a full recomputation — a property pinned by the
hypothesis differential tests in ``tests/net/test_rate_engine_properties
.py`` and by the fig4/fig8 fingerprint guards.

The one divergence is the batch solver's ``1e-12`` relative tolerance
when two *different* components bottleneck within the same iteration at
shares that differ by less than one part in 10¹²: the whole-network
solve then freezes the second component at the first one's share
(DESIGN §9 names the seed that shows it).

The dirty-component walk collects unordered sets, which its visiting
order cannot change; the subproblem handed to the solver is built in
sorted flow-id order, so it is independent of the process hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.net.fairshare import max_min_fair_rates
from repro.sim import instrument

#: Histogram buckets for dirty-component sizes (flows or links per solve).
_DIRTY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class RateEngineStats:
    """Work counters for the engine (benchmarks and telemetry probes).

    ``link_visits`` counts the (flow, link) incidences handed to the
    scoped solver; ``full_link_visits`` is the counterfactual — the
    incidences a from-scratch whole-network solve would have processed at
    the same instants.  Their ratio is the headline savings
    ``tests/net/test_rate_engine_scaling.py`` asserts on.
    """

    events: int = 0
    solves: int = 0
    dirty_flows: int = 0
    dirty_links: int = 0
    link_visits: int = 0
    full_link_visits: int = 0
    last_dirty_flows: int = 0
    last_dirty_links: int = 0

    @property
    def visit_savings(self) -> float:
        """How many times fewer incidences than batch recomputation."""
        if self.link_visits == 0:
            return 1.0
        return self.full_link_visits / self.link_visits


class IncrementalRateEngine:
    """Maintains max-min fair rates under flow add/remove/reroute events.

    Parameters
    ----------
    link_capacity_bps:
        Callable returning the capacity of a link id (kept live so
        topology objects stay the single source of truth).

    Usage::

        engine = IncrementalRateEngine(lambda lid: topo.links[lid].capacity_bps)
        engine.add_flow("f1", ("a->s", "s->b"))
        changed = engine.recompute()        # scoped solve: {"f1": rate}
        engine.remove_flow("f1")
        engine.recompute()
        engine.rates                        # every flow's current rate

    Mutations are cheap bookkeeping; :meth:`recompute` performs one
    scoped solve covering every mutation since the previous call, which
    lets callers batch (e.g. a link failure aborting many flows costs
    one solve, exactly like the old global path).
    """

    def __init__(self, link_capacity_bps: Callable[[str], float]):
        self._capacity_of = link_capacity_bps
        self._flow_links: Dict[str, Tuple[str, ...]] = {}
        self._flow_demands: Dict[str, float] = {}
        self._link_members: Dict[str, Set[str]] = {}
        self._rates: Dict[str, float] = {}
        #: Links whose membership changed since the last solve (BFS seeds).
        self._dirty_links: Set[str] = set()
        #: Flows that need a rate even when they touch no dirty link
        #: (a new flow over an empty path gets ``inf`` without a solve).
        self._dirty_flows: Set[str] = set()
        #: Σ len(links) over active flows — the batch counterfactual.
        self._total_incidence = 0
        self.stats = RateEngineStats()

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------

    def add_flow(
        self,
        flow_id: str,
        link_ids: Sequence[str],
        demand_bps: Optional[float] = None,
    ) -> None:
        """Register a new flow on ``link_ids`` (rates update on recompute)."""
        if flow_id in self._flow_links:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        links = tuple(link_ids)
        self._flow_links[flow_id] = links
        if demand_bps is not None:
            self._flow_demands[flow_id] = demand_bps
        for link_id in links:
            self._link_members.setdefault(link_id, set()).add(flow_id)
        self._total_incidence += len(links)
        self._dirty_links.update(links)
        self._dirty_flows.add(flow_id)
        self.stats.events += 1

    def remove_flow(self, flow_id: str) -> None:
        """Forget a flow (completion, cancel or abort)."""
        links = self._flow_links.pop(flow_id, None)
        if links is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        self._flow_demands.pop(flow_id, None)
        self._rates.pop(flow_id, None)
        for link_id in links:
            members = self._link_members.get(link_id)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del self._link_members[link_id]
        self._total_incidence -= len(links)
        self._dirty_links.update(links)
        self._dirty_flows.discard(flow_id)
        self.stats.events += 1

    def reroute_flow(self, flow_id: str, new_link_ids: Sequence[str]) -> None:
        """Move a flow onto a different path (old and new components dirty)."""
        old_links = self._flow_links.get(flow_id)
        if old_links is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        new_links = tuple(new_link_ids)
        for link_id in old_links:
            members = self._link_members.get(link_id)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del self._link_members[link_id]
        self._flow_links[flow_id] = new_links
        for link_id in new_links:
            self._link_members.setdefault(link_id, set()).add(flow_id)
        self._total_incidence += len(new_links) - len(old_links)
        self._dirty_links.update(old_links)
        self._dirty_links.update(new_links)
        self._dirty_flows.add(flow_id)
        self.stats.events += 1

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def recompute(self) -> Dict[str, float]:
        """Re-solve the dirty component(s) and return their new rates.

        The returned dict holds exactly the flows this call re-solved —
        every flow sharing a link, directly or transitively, with a
        mutation since the previous call, plus new or rerouted flows over
        an empty path.  Every other flow's rate is unchanged; :attr:`rates`
        is the complete view.  A no-op (empty dict, no solve, no counters)
        when nothing changed since the last call.
        """
        if not self._dirty_links and not self._dirty_flows:
            return {}

        flows, links = self._collect_dirty_component()
        self._dirty_links.clear()
        self._dirty_flows.clear()

        solved: Dict[str, float] = {}
        incidence = 0
        if flows:
            flow_links = self._flow_links
            sub_flow_links = {}
            for fid in sorted(flows):
                sub_flow_links[fid] = flow_links[fid]
                incidence += len(flow_links[fid])
            demands = self._flow_demands
            sub_demands = {
                fid: demands[fid] for fid in sub_flow_links if fid in demands
            }
            solved = max_min_fair_rates(sub_flow_links, links, sub_demands or None)
            self._rates.update(solved)

        self.stats.solves += 1
        self.stats.last_dirty_flows = len(flows)
        self.stats.last_dirty_links = len(links)
        self.stats.dirty_flows += len(flows)
        self.stats.dirty_links += len(links)
        self.stats.link_visits += incidence
        self.stats.full_link_visits += self._total_incidence

        tel = instrument.TELEMETRY
        if tel is not None:
            tel.observe(
                "rate_engine_dirty_flows", float(len(flows)), buckets=_DIRTY_BUCKETS
            )
            tel.observe(
                "rate_engine_dirty_links", float(len(links)), buckets=_DIRTY_BUCKETS
            )
        return solved

    def _collect_dirty_component(self) -> Tuple[Set[str], Dict[str, float]]:
        """Flows reachable from the dirty seeds via link sharing, and the
        capacity of every link they traverse.

        Both results are unordered collections — the walk's visiting order
        affects neither — and :meth:`recompute` sorts the flows once.
        """
        flow_links = self._flow_links
        link_members = self._link_members
        capacity_of = self._capacity_of
        # A dirty flow's links are dirty too; the flow itself is named only
        # so that one over an empty path still gets a rate.
        flows: Set[str] = {f for f in self._dirty_flows if f in flow_links}
        links: Dict[str, float] = {}
        #: Flows reached through a link whose own links are still unvisited.
        pending: List[str] = []
        frontier: Iterable[str] = self._dirty_links
        while True:
            for link_id in frontier:
                if link_id in links:
                    continue
                members = link_members.get(link_id)
                if members is None:
                    continue
                links[link_id] = capacity_of(link_id)
                for flow_id in members:
                    if flow_id not in flows:
                        flows.add(flow_id)
                        pending.append(flow_id)
            if not pending:
                return flows, links
            frontier = flow_links[pending.pop()]

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def rates(self) -> Mapping[str, float]:
        """Current rate of every registered flow (read-only view)."""
        return self._rates

    def rate_bps(self, flow_id: str) -> float:
        return self._rates[flow_id]

    def flow_count(self) -> int:
        return len(self._flow_links)

    def flows_on_link(self, link_id: str) -> List[str]:
        """Flow ids currently traversing ``link_id``, sorted."""
        return sorted(self._link_members.get(link_id, ()))

    def link_utilization_bps(self, link_id: str) -> float:
        """Instantaneous load on a link (sum of member rates).

        Summation runs in sorted flow-id order so the float result is
        independent of the process hash seed — the same contract the
        simulator's original implementation kept.
        """
        return sum(
            self._rates[fid] for fid in sorted(self._link_members.get(link_id, ()))
        )

    def verify_against_batch(self) -> List[str]:
        """Differential self-check: compare with a from-scratch solve.

        Returns human-readable discrepancies (empty when bit-identical).
        Used by tests and the SimSanitizer; not called on hot paths.
        """
        capacities = {
            lid: self._capacity_of(lid)
            for links in self._flow_links.values()
            for lid in links
        }
        expected = max_min_fair_rates(
            dict(self._flow_links), capacities, self._flow_demands or None
        )
        problems = []
        for flow_id in sorted(set(expected) | set(self._rates)):
            got = self._rates.get(flow_id)
            want = expected.get(flow_id)
            if got != want:
                problems.append(
                    f"flow {flow_id!r}: incremental={got!r} batch={want!r}"
                )
        return problems
