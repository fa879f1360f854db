"""Incremental max-min rate engine with scoped recomputation.

The fluid simulator historically re-solved **global** max-min fairness
(:func:`repro.net.fairshare.max_min_fair_rates`) from scratch on every
flow start/finish/abort/reroute.  That is O(active-network) per event —
fine at the paper's 64-host testbed, hopeless at the §6.4 scale story
(40 servers/rack × 500 racks) where one rack's flow churn has no
business touching another pod's rates.

:class:`IncrementalRateEngine` keeps the solver's inputs *persistent*
between events — per-flow paths of interned link ints, per-link member
sets and capacities, and each flow's fold (its shared links and the
least capacity of the links it is alone on, updated only for the flows
on a link whose count crosses 1 ↔ 2) — and on each membership change
re-solves only the **connected component of the flow↔link sharing
graph reachable from the changed links**.  Flows outside that component
share no link (directly or transitively) with anything that changed, so
their max-min rates are provably unaffected: progressive filling
decomposes exactly over connected components.

Determinism contract
--------------------
The engine's persistent state *is* the solver's input: a
:class:`repro.net.fairshare.LinkIndex` interns each link id once, flows
keep int paths and folds and links keep member sets, and
:meth:`recompute` hands the dirty seeds to :meth:`LinkIndex.solve`
(which also counts the links and incidences it covered), the routine
behind :func:`max_min_fair_rates`.  Within the dirty component every
arithmetic operation (the subtraction order on residual capacities,
the bottleneck-share divisions, the demand-tie ordering) is identical
to what the batch solver performs for that component inside a
whole-network solve.  Rates are therefore bit-identical to a full
recomputation — a property pinned by the hypothesis differential tests
in ``tests/net/test_rate_engine_properties.py`` and by the fig4/fig8
fingerprint guards.

The one divergence is the batch solver's ``1e-12`` relative tolerance
when two *different* components bottleneck within the same iteration at
shares that differ by less than one part in 10¹²: the whole-network
solve then freezes the second component at the first one's share
(DESIGN §9 names the seed that shows it).

The dirty-component walk collects unordered sets, which its visiting
order cannot change; flows freeze in sorted flow-id order, so the
result is independent of the process hash seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from repro.net.fairshare import LinkIndex, max_min_fair_rates
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
        Callable returning the capacity of a link id, read once per link,
        the first time a flow names it.

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
    one solve, exactly like the old global path).  A missing or
    non-positive capacity makes :meth:`add_flow` / :meth:`reroute_flow`
    raise before anything changes.
    """

    def __init__(self, link_capacity_bps: Callable[[str], float]):
        self._capacity_of = link_capacity_bps
        self._index = LinkIndex(link_capacity_bps)
        self._rates: Dict[str, float] = {}
        #: Links whose membership changed since the last solve (BFS seeds).
        self._dirty_links: Set[int] = set()
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
        index = self._index
        if flow_id in index:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        path = index.attach(flow_id, link_ids, demand_bps)
        self._total_incidence += len(path)
        self._dirty_links.update(path)
        self._dirty_flows.add(flow_id)
        self.stats.events += 1

    def remove_flow(self, flow_id: str) -> None:
        """Forget a flow (completion, cancel or abort)."""
        index = self._index
        if flow_id not in index:
            raise KeyError(f"unknown flow {flow_id!r}")
        path = index.detach(flow_id)
        self._rates.pop(flow_id, None)
        self._total_incidence -= len(path)
        self._dirty_links.update(path)
        self._dirty_flows.discard(flow_id)
        self.stats.events += 1

    def reroute_flow(self, flow_id: str, new_link_ids: Sequence[str]) -> None:
        """Move a flow onto a different path (old and new components dirty)."""
        index = self._index
        if flow_id not in index:
            raise KeyError(f"unknown flow {flow_id!r}")
        old_path, new_path = index.reroute(flow_id, new_link_ids)
        self._total_incidence += len(new_path) - len(old_path)
        self._dirty_links.update(old_path)
        self._dirty_links.update(new_path)
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

        index = self._index
        path_length = index.path_length
        solved: Dict[str, float] = {}
        flows: Set[str] = set()
        for flow_id in sorted(self._dirty_flows):
            if path_length(flow_id):
                flows.add(flow_id)
            else:
                solved[flow_id] = math.inf
        local = len(solved)
        links, visits = index.solve(self._dirty_links, flows, solved)
        self._dirty_links.clear()
        self._dirty_flows.clear()
        self._rates.update(solved)

        dirty_flows = len(flows) + local
        stats = self.stats
        stats.solves += 1
        stats.last_dirty_flows = dirty_flows
        stats.last_dirty_links = links
        stats.dirty_flows += dirty_flows
        stats.dirty_links += links
        stats.link_visits += visits
        stats.full_link_visits += self._total_incidence

        tel = instrument.TELEMETRY
        if tel is not None:
            tel.observe(
                "rate_engine_dirty_flows", float(dirty_flows), buckets=_DIRTY_BUCKETS
            )
            tel.observe(
                "rate_engine_dirty_links", float(links), buckets=_DIRTY_BUCKETS
            )
        return solved

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def rates(self) -> Mapping[str, float]:
        """Current rate of every registered flow (read-only view)."""
        return self._rates

    def flow_count(self) -> int:
        return len(self._index)

    def link_utilization_bps(self, link_id: str) -> float:
        """Instantaneous load on a link (sum of member rates).

        Summation runs in sorted flow-id order so the float result is
        independent of the process hash seed — the same contract the
        simulator's original implementation kept.
        """
        return sum(self._rates[fid] for fid in self._index.flows_on(link_id))

    def verify_against_batch(self) -> List[str]:
        """Differential self-check: compare with a from-scratch solve.

        Returns human-readable discrepancies (empty when bit-identical).
        Capacities are read afresh, so a capacity that changed after its
        link was interned shows up here.  Used by tests and the
        SimSanitizer; not called on hot paths.
        """
        flow_links = self._index.flow_links()
        capacities = {
            lid: self._capacity_of(lid)
            for links in flow_links.values()
            for lid in links
        }
        expected = max_min_fair_rates(
            flow_links, capacities, self._index.flow_demands() or None
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
