"""Dependency-free instrumentation bus for runtime observers.

The simulation layers must not import :mod:`repro.analysis` or
:mod:`repro.telemetry` (both import them), so runtime observers plug in
through this tiny multi-subscriber bus instead:

* components announce themselves via :func:`notify_component` (the
  sanitizer checks their invariants, a telemetry session reads their
  counters);
* the event loop calls every hook in :data:`POST_EVENT_HOOKS` after each
  fired event;
* the active telemetry sink (a :class:`repro.telemetry.Telemetry`, duck
  typed so this module stays import-free) is published as the module
  global :data:`TELEMETRY`.

Emit sites read ``instrument.TELEMETRY`` and bail on ``None``, and the
fan-out loops below short-circuit on empty subscriber tuples, so a run
with no observers armed pays a single ``is None``/truthiness check per
site — fault-free production runs cost essentially nothing.

The sanitizer (:mod:`repro.analysis.simsan`) is one subscriber among
many: it holds the :class:`Subscription` handle :func:`subscribe` returns.

``REPRO_SIMSAN=1`` in the environment auto-arms the sanitizer when the
``repro`` package is imported (the opt-in documented in README
§Determinism contract); under pytest the ``--simsan`` flag does the same
through the plugin in :mod:`repro.analysis.pytest_plugin`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

ComponentHook = Callable[[str, Any], None]
PostEventHook = Callable[[Any], None]


@dataclass(frozen=True)
class TraceContext:
    """Causal position of the currently-executing code in a trace.

    ``trace_id`` names the client-visible operation (the root span);
    ``span_id`` is the innermost open span; ``parent_id`` is that span's
    parent (``None`` at the root).  The context lives here — not in
    :mod:`repro.telemetry` — because the propagation points (the process
    scheduler and the RPC fabric) must stay import-free of the telemetry
    package.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None


#: The ambient trace context of the code currently executing, or ``None``
#: outside any traced operation (and always ``None`` while no telemetry
#: session is installed).  :class:`repro.sim.process.Process` saves and
#: restores this around every generator resume — giving each cooperative
#: process its own logical context, the way ``contextvars`` follow asyncio
#: tasks — and the RPC fabric forwards it from caller to handler.
TRACE_CTX: Optional[TraceContext] = None


class Subscription:
    """Handle for one bus subscriber (either hook may be ``None``)."""

    __slots__ = ("component", "post_event")

    def __init__(
        self,
        component: Optional[ComponentHook] = None,
        post_event: Optional[PostEventHook] = None,
    ) -> None:
        self.component = component
        self.post_event = post_event


#: Subscribers, stored as immutable tuples so fan-out never observes a
#: half-updated list.  The kinds announced, each by its constructor:
#: ``"network"``, ``"streams"``, ``"controller"``, ``"flowserver"``,
#: ``"fabric"``, ``"leases"``, ``"dataserver"``, ``"client"`` and
#: ``"injector"``.
_component_hooks: Tuple[ComponentHook, ...] = ()
#: Public because :meth:`repro.sim.engine.EventLoop.step` tests it and
#: calls each hook after every event, inline.
POST_EVENT_HOOKS: Tuple[PostEventHook, ...] = ()
_subscriptions: Tuple[Subscription, ...] = ()

#: The active telemetry sink (``repro.telemetry.Telemetry`` duck type).
#: Emit sites across the stack do ``tel = instrument.TELEMETRY`` followed
#: by an ``if tel is not None`` guard; install via
#: :func:`set_telemetry` (normally through ``repro.telemetry.install``).
TELEMETRY: Optional[Any] = None


def _rebuild() -> None:
    global _component_hooks, POST_EVENT_HOOKS
    _component_hooks = tuple(
        sub.component for sub in _subscriptions if sub.component is not None
    )
    POST_EVENT_HOOKS = tuple(
        sub.post_event for sub in _subscriptions if sub.post_event is not None
    )


def subscribe(
    component: Optional[ComponentHook] = None,
    post_event: Optional[PostEventHook] = None,
) -> Subscription:
    """Register an observer on the bus; returns its subscription handle."""
    global _subscriptions
    sub = Subscription(component, post_event)
    _subscriptions = _subscriptions + (sub,)
    _rebuild()
    return sub


def unsubscribe(sub: Subscription) -> None:
    """Remove a subscription (idempotent)."""
    global _subscriptions
    _subscriptions = tuple(s for s in _subscriptions if s is not sub)
    _rebuild()


def set_telemetry(sink: Optional[Any]) -> None:
    """Publish (or clear, with ``None``) the active telemetry sink."""
    global TELEMETRY
    TELEMETRY = sink


def set_context(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as the ambient context; returns the previous one."""
    global TRACE_CTX
    previous = TRACE_CTX
    TRACE_CTX = ctx
    return previous


def derive_context(span_id: str) -> TraceContext:
    """A child context of the ambient one (or a fresh root when none)."""
    parent = TRACE_CTX
    if parent is None:
        return TraceContext(trace_id=span_id, span_id=span_id, parent_id=None)
    return TraceContext(
        trace_id=parent.trace_id, span_id=span_id, parent_id=parent.span_id
    )


def notify_component(kind: str, component: Any) -> None:
    if _component_hooks:
        for hook in _component_hooks:
            hook(kind, component)
