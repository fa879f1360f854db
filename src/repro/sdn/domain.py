"""Per-pod controller domains (sharded control plane).

A :class:`DomainController` is the slice of the SDN controller one
controller domain sees: statistics collection is restricted to the
domain's own edge switches and its :attr:`view` is a
:class:`~repro.net.scoped_view.ScopedNetworkView` over the pod's links,
while flow programming, liveness queries and event subscriptions
delegate to the shared underlying :class:`~repro.sdn.controller.
Controller` (there is still exactly one physical control channel to each
switch — domains partition *responsibility*, not the wire).

A :class:`~repro.core.domains.DomainFlowserver` constructed over a
``DomainController`` therefore polls only its pod's edge switches, and
its adaptive push subscriptions land only on in-domain switches, without
any change to the Flowserver or collector code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

from repro.net.scoped_view import ScopedNetworkView, pod_scope_link_ids
from repro.net.topology import Tier

if TYPE_CHECKING:
    from repro.net.simulator import FlowNetwork
    from repro.net.view import NetworkView
    from repro.sdn.controller import Controller


class DomainController:
    """One pod's scoped window onto the shared SDN controller.

    Everything not explicitly scoped below delegates verbatim to the
    inner controller, so the object is a drop-in ``Controller`` for the
    Flowserver and its stats collector.
    """

    def __init__(self, inner: "Controller", pod: str) -> None:
        topology = inner.network.topology
        if pod not in topology.pods():
            raise ValueError(f"unknown pod {pod!r}")
        self._inner = inner
        self.pod = pod
        self._edge_switch_ids: List[str] = sorted(
            s.switch_id
            for s in topology.switches_in_tier(Tier.EDGE)
            if s.pod == pod
        )
        self._hosts = frozenset(
            h.host_id for h in topology.hosts_in_pod(pod)
        )
        self._view = ScopedNetworkView(
            inner.view, pod_scope_link_ids(topology, pod), label=pod
        )

    # -- scoped surface --------------------------------------------------

    @property
    def view(self) -> "NetworkView":
        """The domain's link-scoped network view."""
        return self._view

    def edge_switch_ids(self) -> List[str]:
        """Only this pod's edge switches — the collector's poll set."""
        return list(self._edge_switch_ids)

    def owns_host(self, host_id: str) -> bool:
        return host_id in self._hosts

    @property
    def hosts(self) -> Sequence[str]:
        return sorted(self._hosts)

    # -- shared surface (delegated) --------------------------------------

    @property
    def inner(self) -> "Controller":
        """The shared fabric-wide controller."""
        return self._inner

    @property
    def network(self) -> "FlowNetwork":
        return self._inner.network

    @property
    def now(self) -> float:
        return self._inner.now

    def __getattr__(self, name: str) -> Any:
        # Flow programming, liveness, stats queries, event listeners and
        # failure hooks all behave identically from every domain.
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DomainController(pod={self.pod!r}, "
            f"edges={len(self._edge_switch_ids)})"
        )
