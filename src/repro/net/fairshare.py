"""Max-min fair-share arithmetic.

Two layers of the system need max-min computations:

* The **flow simulator** needs ground-truth rates for every active flow —
  :class:`LinkIndex` holds flows over interned links, keeps each flow's
  one-flow links folded into a private cap as membership changes, and
  solves classic progressive filling (water-filling) over the shared
  links of the component a change reached;
  :func:`max_min_fair_rates` is the same routine behind a dict API.
* The **Flowserver** estimates shares link-by-link along one candidate path
  (§4.2): :func:`single_link_fair_allocation` divides one link's capacity
  across flows with demands, where the probing new flow has infinite demand.

Rates are bits/second; capacities must be positive.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
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


def single_link_fair_allocation(
    capacity_bps: float,
    demands: Sequence[float],
) -> List[float]:
    """Water-fill one link's capacity across flows with given demands.

    Each flow receives an equal share, capped at its demand; capacity left
    over by capped flows is redistributed among the rest.  ``math.inf``
    demands are allowed (the probing new flow in the Flowserver's estimate).

    Returns the per-flow allocation in input order.  If the sum of demands
    is below capacity every flow simply gets its demand.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    n = len(demands)
    if n == 0:
        return []
    for d in demands:
        if d < 0:
            raise ValueError(f"demands must be non-negative, got {d}")

    allocation = [0.0] * n
    remaining_capacity = float(capacity_bps)
    # Process flows in ascending demand order: once the equal share exceeds
    # the smallest remaining demand, that flow is satisfied and frozen.
    # A single index sweep suffices — after the k-th freeze exactly
    # ``len(order) - k`` flows remain active, so the equal share is
    # ``remaining_capacity / remaining_count`` without rebuilding the
    # active list (the historical O(n²) rebuild produced the same values).
    order = sorted(
        (i for i in range(n) if demands[i] > 0), key=lambda idx: demands[idx]
    )
    remaining_count = len(order)
    for i in order:
        share = remaining_capacity / remaining_count
        give = min(demands[i], share)
        allocation[i] = give
        remaining_capacity -= give
        remaining_count -= 1
        if remaining_capacity <= 0:
            break
    return allocation


class LinkIndex:
    """Flows over interned links: the state progressive filling reads.

    A link id becomes an int the first time a flow names it, and its
    capacity is read and checked then; a link's capacity never changes
    after.  Flows keep int paths and links keep member sets of flow ids,
    so :meth:`solve` walks and fills on ints with nothing to translate.
    A link keeps one member set for the life of the index, which
    :attr:`link_flows` also reads by link id.
    Each flow also keeps its *fold*, brought up to date whenever a link's
    membership crosses 1 ↔ 2: its shared links (those carrying another
    flow too, in path order), and the least capacity and the count of
    the links it is alone on.
    The ints are opaque outside this class: :meth:`attach`,
    :meth:`detach` and :meth:`reroute` return them only as the link keys
    to seed a later :meth:`solve` with.
    :class:`repro.net.rate_engine.IncrementalRateEngine` keeps one index
    for the life of a network; :func:`max_min_fair_rates` builds one per
    call.
    """

    def __init__(self, capacity_of: Callable[[str], Optional[float]]):
        self._capacity_of = capacity_of
        self._index: Dict[str, int] = {}
        self._capacity: List[float] = []
        #: Flows on each link, by link int.
        self._members: List[Set[str]] = []
        #: The same sets, by link id.
        self._link_flows: Dict[str, Set[str]] = {}
        self._paths: Dict[str, Tuple[int, ...]] = {}
        #: Each flow's links that carry another flow too, in path order.
        self._shared: Dict[str, Tuple[int, ...]] = {}
        #: Each shared link once, for the flows that list one twice.
        self._once: Dict[str, Tuple[int, ...]] = {}
        #: Each flow's private cap, its count of links it is alone on,
        #: and its path length.
        self._fold: Dict[str, Tuple[float, int, int]] = {}
        self._demands: Dict[str, float] = {}

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def attach(
        self, flow_id: str, link_ids: Sequence[str], demand: Optional[float] = None
    ) -> Tuple[int, ...]:
        """Add a flow over ``link_ids``, capped at ``demand`` if given.

        Raises ``KeyError`` for a link without a capacity and
        ``ValueError`` for a non-positive one, leaving the index as it was.
        """
        path = self._intern(link_ids)
        self._link(flow_id, path)
        if demand is not None:
            self._demands[flow_id] = demand
        return path

    def detach(self, flow_id: str) -> Tuple[int, ...]:
        """Remove a flow; returns the links it was on."""
        self._demands.pop(flow_id, None)
        return self._unlink(flow_id)

    def reroute(
        self, flow_id: str, link_ids: Sequence[str]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Move a flow onto ``link_ids``, keeping its demand; returns the
        old and the new links.  Raises as :meth:`attach` does, before the
        flow leaves its old links."""
        path = self._intern(link_ids)
        old = self._unlink(flow_id)
        self._link(flow_id, path)
        return old, path

    def path_length(self, flow_id: str) -> int:
        """Links on a flow's path, counting a repeated link each time."""
        return len(self._paths[flow_id])

    @property
    def link_flows(self) -> Mapping[str, AbstractSet[str]]:
        """The flows on every link a flow has named, by link id: live
        sets, not copies (do not mutate)."""
        return self._link_flows

    def flow_links(self) -> Dict[str, List[str]]:
        """Every flow's path as link ids, the dict API's ``flow_links``."""
        link_ids = list(self._index)
        return {
            flow_id: [link_ids[k] for k in path]
            for flow_id, path in self._paths.items()
        }

    def flow_demands(self) -> Dict[str, float]:
        """The demand of every flow that has one."""
        return dict(self._demands)

    def _intern(self, link_ids: Sequence[str]) -> Tuple[int, ...]:
        """``link_ids`` as ints; checks every new capacity before storing any."""
        index = self._index
        fresh: Dict[str, float] = {}
        for link_id in link_ids:
            if link_id in index or link_id in fresh:
                continue
            capacity = self._capacity_of(link_id)
            if capacity is None:
                raise KeyError(f"no capacity for link {link_id!r}")
            if capacity <= 0:
                raise ValueError(f"link {link_id!r} capacity must be positive")
            fresh[link_id] = float(capacity)
        for link_id, capacity in fresh.items():
            index[link_id] = len(self._capacity)
            self._capacity.append(capacity)
            on_link: Set[str] = set()
            self._members.append(on_link)
            self._link_flows[link_id] = on_link
        return tuple([index[link_id] for link_id in link_ids])

    def _link(self, flow_id: str, path: Tuple[int, ...]) -> None:
        self._paths[flow_id] = path
        members = self._members
        #: Flows that were alone on a link this flow joins.
        joined: Dict[str, None] = {}
        for k in path:
            on_link = members[k]
            if flow_id not in on_link:
                if len(on_link) == 1:
                    (other,) = on_link
                    joined[other] = None
                on_link.add(flow_id)
        self._refold(flow_id)
        for other in joined:
            self._refold(other)

    def _unlink(self, flow_id: str) -> Tuple[int, ...]:
        path = self._paths.pop(flow_id)
        del self._shared[flow_id]
        del self._fold[flow_id]
        self._once.pop(flow_id, None)
        members = self._members
        #: Flows left alone on a link this flow leaves.
        stranded: Dict[str, None] = {}
        for k in path:
            on_link = members[k]
            if flow_id not in on_link:
                continue
            on_link.remove(flow_id)
            if len(on_link) == 1:
                (other,) = on_link
                stranded[other] = None
        for other in stranded:
            self._refold(other)
        return path

    def _refold(self, flow_id: str) -> None:
        """Split a flow's path into its shared links and its private cap."""
        path = self._paths[flow_id]
        members = self._members
        shared: List[int] = []
        alone: Dict[int, None] = {}
        for k in path:
            if len(members[k]) > 1:
                shared.append(k)
            else:
                alone[k] = None
        capacity = self._capacity
        cap = min([capacity[k] for k in alone]) if alone else math.inf
        self._shared[flow_id] = tuple(shared)
        self._fold[flow_id] = (cap, len(alone), len(path))
        once = tuple(dict.fromkeys(shared))
        if len(once) < len(shared):
            self._once[flow_id] = once
        else:
            self._once.pop(flow_id, None)

    def solve(
        self, seeds: Iterable[int], flows: Set[str], rates: Dict[str, float]
    ) -> Tuple[int, int]:
        """Max-min rates of every flow sharing a link, directly or
        transitively, with ``seeds`` or with a flow in ``flows``.

        ``flows`` (flows with a non-empty path) gains every flow reached;
        ``rates`` gains their rates in freeze order.  Returns the number
        of links visited and of (flow, link) incidences solved: every
        link of every flow in ``flows``, a repeated link each time.

        Progressive filling: repeatedly find the bottleneck link — the one
        whose residual capacity divided by its count of unfrozen flows is
        smallest — then freeze all unfrozen flows on it at that share
        (every link within a relative ``1e-12`` of it counts as a
        bottleneck), in flow-id order.  A flow whose demand is at or below
        that share freezes at its demand first, smallest ``(demand, flow
        id)`` one per round.  Every round freezes at least one flow.

        A link carrying one flow keeps share == capacity until that flow
        freezes, so it is folded into the flow's private cap (the least
        such capacity), which the index keeps as membership changes.  The
        walk that collects the component follows and sets up shared links
        only; a lone flow without a demand is its private cap.  Only the
        links a freeze touched are re-divided.  Every float operation is
        the one the dict/set formulation performs, in the same order, so
        the rates are the same bits (DESIGN §9).
        """
        members = self._members
        capacity = self._capacity
        shared_of = self._shared
        residual: Dict[int, float] = {}
        #: Unfrozen flows per visited shared link.
        unfrozen: Dict[int, int] = {}
        #: Current share of every shared link that still has unfrozen flows.
        shares: Dict[int, float] = {}
        #: Flows reached through a link whose own links are still unvisited.
        pending: List[str] = []
        frontier: Iterable[int] = seeds
        while True:
            for k in frontier:
                if k in unfrozen:
                    continue
                on_link = members[k]
                n = len(on_link)
                if n > 1:
                    c = capacity[k]
                    residual[k] = c
                    unfrozen[k] = n
                    shares[k] = c / n
                for flow_id in on_link:
                    if flow_id not in flows:
                        flows.add(flow_id)
                        pending.append(flow_id)
            if not pending:
                break
            frontier = shared_of[pending.pop()]

        fold = self._fold
        private: Dict[str, float] = {}
        links = len(unfrozen)
        visits = 0
        for flow_id in flows:
            cap, alone, length = fold[flow_id]
            visits += length
            if alone:
                links += alone
                private[flow_id] = cap

        demands = self._demands
        capped: List[Tuple[float, str]] = []
        if demands:
            capped = sorted([(demands[f], f) for f in flows if f in demands])
        left = len(flows)
        if left == 1 and not capped:
            # Every link of a lone flow is its alone: x / 1 == x.
            for flow_id in flows:
                rates[flow_id] = private[flow_id]
            return links, visits

        once = self._once
        head = 0
        inf = math.inf
        while left:
            share = min(shares.values()) if shares else inf
            if private:
                least = min(private.values())
                if least < share:
                    share = least
            while head < len(capped) and capped[head][1] in rates:
                head += 1

            to_freeze: Sequence[str]
            if share == inf:
                # Only infinite capacities get here: every unfrozen flow is
                # then demand-limited, uncapped ones at an infinite demand.
                rate, flow_id = min(
                    (demands.get(f, inf), f) for f in flows if f not in rates
                )
                to_freeze = (flow_id,)
            elif head < len(capped) and capped[head][0] <= share:
                # The smallest (demand, id) cap at or below the share freezes
                # first, releasing capacity for everyone else.
                rate, flow_id = capped[head]
                to_freeze = (flow_id,)
            else:
                rate = share
                limit = share * (1 + 1e-12)
                batch = {f for f, c in private.items() if c <= limit}
                for k, link_share in shares.items():
                    if link_share <= limit:
                        batch.update(members[k])
                to_freeze = sorted(batch)

            for flow_id in to_freeze:
                if flow_id in rates:
                    continue
                rates[flow_id] = rate
                left -= 1
                private.pop(flow_id, None)
                # A freezing flow is one of the unfrozen flows on each of
                # its shared links, so their counts are at least 1 here.
                path = shared_of[flow_id]
                distinct = once.get(flow_id) if once else None
                if distinct is not None:
                    # Every listing of a link takes the rate off it; the
                    # flow still counts once in the link's unfrozen total.
                    for k in path:
                        r = residual[k] - rate
                        residual[k] = r if r > 0.0 else 0.0
                    for k in distinct:
                        n = unfrozen[k] - 1
                        unfrozen[k] = n
                        if n:
                            shares[k] = residual[k] / n
                        else:
                            del shares[k]
                    continue
                for k in path:
                    r = residual[k] - rate
                    if not r > 0.0:
                        r = 0.0
                    residual[k] = r
                    n = unfrozen[k] - 1
                    unfrozen[k] = n
                    if n:
                        shares[k] = r / n
                    else:
                        del shares[k]
        return links, visits


def max_min_fair_rates(
    flow_links: Mapping[str, Sequence[str]],
    link_capacity_bps: Mapping[str, float],
    flow_demands: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Global max-min fair rates via progressive filling.

    Parameters
    ----------
    flow_links:
        Mapping of flow id to the link ids it traverses.
    link_capacity_bps:
        Capacity of every link (only links carrying flows need appear).
    flow_demands:
        Optional per-flow rate caps (defaults to unbounded).  A flow whose
        demand is met before any of its links saturates is frozen at its
        demand.

    Returns
    -------
    dict
        flow id -> rate in bits/second, in the order flows freeze.  Flows
        traversing no links (local transfers) get ``math.inf`` and come
        first.

    The whole network is one :meth:`LinkIndex.solve` seeded with every
    link a flow names.
    """
    graph = LinkIndex(link_capacity_bps.get)
    demands = flow_demands or {}
    rates: Dict[str, float] = {}
    seeds: Set[int] = set()
    for flow_id, links in flow_links.items():
        if links:
            seeds.update(graph.attach(flow_id, links, demands.get(flow_id)))
        else:
            rates[flow_id] = math.inf
    graph.solve(seeds, set(), rates)
    return rates
