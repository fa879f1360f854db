"""The RPC fabric: endpoint registry, dispatch, latency and failures.

Endpoints are string names.  Topology hosts are natural endpoints, but the
fabric also accepts *virtual* endpoints (e.g. ``"@controller"``) for
services that live out-of-band on the management network, which is how the
paper's clients reach the Flowserver inside Floodlight.

Each call is one :class:`_Call` whose bound methods are its events: the
request landing (:meth:`_Call.dispatch`), a generator handler finishing
(:meth:`_Call.handler_done`), and the response or deadline settling the
caller's signal (:meth:`_Call.settle`, :meth:`_Call.expire`).  A response
cancels the deadline and resumes the caller inside its own event.
"""

from __future__ import annotations

import itertools
from types import GeneratorType
from typing import Any, Dict, Generator, NamedTuple, Optional, Set, Tuple

from repro.rpc.errors import (
    HostDownError,
    RemoteInvocationError,
    RpcTimeout,
    ServiceNotFoundError,
)
from repro.sim import instrument
from repro.sim.engine import EventHandle, EventLoop
from repro.sim.process import Process, Signal
from repro.sim.randomness import seeded_rng


class RpcResponse(NamedTuple):
    """Envelope delivered to the caller's completion signal.

    ``remote_error`` carries the original exception object when the remote
    handler raised — the fabric is in-process, so typed payloads (e.g.
    :class:`~repro.net.simulator.FlowAborted` resumption state) survive
    the round trip.
    """

    ok: bool
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[type] = None
    remote_error: Optional[BaseException] = None


class _Call:
    """One in-flight RPC: the request, the caller's completion signal and
    the steps that carry it from ``src`` to ``dst`` and back."""

    __slots__ = (
        "fabric", "src", "dst", "service", "method", "args", "kwargs",
        "rpc_timeout", "done", "settled", "deadline", "call_id", "rpc_ctx",
        "proc",
    )

    def __init__(
        self,
        fabric: "RpcFabric",
        src: str,
        dst: str,
        service: str,
        method: str,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        rpc_timeout: Optional[float],
    ) -> None:
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.service = service
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.rpc_timeout = rpc_timeout
        self.done = Signal(fabric._loop, ("rpc:", service, ".", method))
        self.settled = False
        self.deadline: Optional[EventHandle] = None
        self.call_id: Optional[str] = None
        self.rpc_ctx: Optional[instrument.TraceContext] = None
        self.proc: Optional[Process] = None

    def deliver_traced(self) -> None:
        """:meth:`dispatch` under the rpc span's context.

        A plain handler sees the context for any nested calls it makes
        synchronously, and a generator handler's Process captures it at
        construction.
        """
        previous_ctx = instrument.set_context(self.rpc_ctx)
        try:
            self.dispatch()
        finally:
            instrument.set_context(previous_ctx)

    def dispatch(self) -> None:
        """The request lands at ``dst``: run the handler, or fail."""
        fabric = self.fabric
        dst, src, service, method = self.dst, self.src, self.service, self.method
        down = fabric._down
        if dst in down or src in down:
            self.respond(RpcResponse(
                False, None, f"endpoint {dst if dst in down else src} is down",
                HostDownError,
            ))
            return
        key = (dst, service, method)
        bound = fabric._bound.get(key)
        if bound is None:
            handler = fabric._services.get((dst, service))
            if handler is None:
                self.respond(RpcResponse(
                    False, None, f"no service {service!r} at {dst!r}",
                    ServiceNotFoundError,
                ))
                return
            bound = getattr(handler, method, None)
            if bound is None or method.startswith("_") or not callable(bound):
                self.respond(RpcResponse(
                    False, None, f"service {service!r} has no method {method!r}",
                    ServiceNotFoundError,
                ))
                return
            fabric._bound[key] = bound
        try:
            result = bound(*self.args, **self.kwargs)
        except Exception as err:  # noqa: BLE001 - shipped to caller
            self.respond(RpcResponse(
                False, None, str(err), RemoteInvocationError, err
            ))
            return
        if isinstance(result, GeneratorType):
            proc = self.proc = Process(fabric._loop, result, (service, ".", method))
            proc.done_signal.add_waiter(self.handler_done)
        else:
            self.respond(RpcResponse(True, result))

    def handler_done(self, _payload: Any) -> None:
        """A generator handler finished: answer with its outcome."""
        proc = self.proc
        assert proc is not None
        error = proc.exception
        if error is not None:
            self.respond(RpcResponse(
                False, None, str(error), RemoteInvocationError, error
            ))
        else:
            self.respond(RpcResponse(True, proc.result))

    def respond(self, response: RpcResponse) -> None:
        """Send ``response`` back; it lands one latency later."""
        fabric = self.fabric
        fabric._loop.call_in(fabric._one_way_delay(), self.settle, response)

    def settle(self, response: RpcResponse) -> None:
        """Fire the caller's signal with ``response``.

        A response cancels the pending deadline; one that lands after the
        deadline fired is dropped (firing a Signal twice is an error).
        """
        if self.settled:
            return
        self.settled = True
        deadline = self.deadline
        if deadline is not None:
            deadline.cancel()
        fabric = self.fabric
        if not response.ok:
            fabric.calls_failed += 1
        tel = instrument.TELEMETRY
        if tel is not None and self.call_id is not None:
            tel.end(fabric._loop.now, f"{self.service}.{self.method}", "rpc",
                    self.call_id, track="rpc", ok=response.ok,
                    error=response.error)
        self.done.fire(response)

    def expire(self) -> None:
        """The deadline passed with no response: settle with
        :class:`RpcTimeout`.  (A response cancels this event.)"""
        self.fabric.calls_timed_out += 1
        self.settle(RpcResponse(
            False, None,
            f"{self.service}.{self.method} to {self.dst!r}: no response "
            f"within {self.rpc_timeout:.6g}s",
            RpcTimeout,
        ))


class RpcFabric:
    """Latency-modelled request/response messaging on the event loop.

    Parameters
    ----------
    loop:
        Simulated clock.
    latency:
        One-way control-message latency in seconds (default 0.5 ms, a
        typical intra-datacenter RTT/2 for small RPCs).
    """

    def __init__(
        self,
        loop: EventLoop,
        latency: float = 0.0005,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self._loop = loop
        self.latency = latency
        #: Uniform extra delay in [0, jitter] added per message, drawn from
        #: a seeded stream so runs stay reproducible.
        self.jitter = jitter
        self._jitter_rng = seeded_rng(seed ^ 0x52504A)
        self._services: Dict[Tuple[str, str], Any] = {}
        #: (endpoint, service, method) -> the handler's bound method, filled
        #: on the first call that resolves it; any (un)registration clears it.
        self._bound: Dict[Tuple[str, str, str], Any] = {}
        self._down: Set[str] = set()
        #: Multiplier on control-message latency (fault injection: an
        #: ``rpc_delay_spike`` raises it temporarily; 1.0 = nominal).
        self.delay_factor = 1.0
        self.calls_sent = 0
        self.calls_failed = 0
        self.calls_timed_out = 0
        self._caller_ids = itertools.count()
        instrument.notify_component("fabric", self)

    def new_caller_id(self) -> int:
        """A fabric-unique number for one caller instance.

        Two clients on the same host share an endpoint name; tokens they
        mint for server-side deduplication (append ids) must still never
        collide, so each takes its own id from the fabric they share.
        """
        return next(self._caller_ids)

    def _one_way_delay(self) -> float:
        jitter = self.jitter
        if jitter <= 0:
            return self.latency * self.delay_factor
        # ``jitter * random()`` is the float ``uniform(0, jitter)`` returns,
        # from the same single draw.
        return (self.latency + jitter * self._jitter_rng.random()) * self.delay_factor

    # ------------------------------------------------------------------
    # Registration and failure injection
    # ------------------------------------------------------------------

    def register(self, endpoint: str, service: str, handler: Any) -> None:
        """Expose ``handler``'s public methods as ``service`` at ``endpoint``."""
        key = (endpoint, service)
        if key in self._services:
            raise ValueError(f"service {service!r} already registered at {endpoint!r}")
        self._services[key] = handler
        self._bound.clear()

    def unregister(self, endpoint: str, service: str) -> None:
        self._services.pop((endpoint, service), None)
        self._bound.clear()

    def set_down(self, endpoint: str, down: bool = True) -> None:
        """Mark an endpoint unreachable (calls fail with HostDownError)."""
        if down:
            self._down.add(endpoint)
        else:
            self._down.discard(endpoint)

    def is_down(self, endpoint: str) -> bool:
        return endpoint in self._down

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        service: str,
        method: str,
        *args: Any,
        rpc_timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Signal:
        """Send a request; returns a signal fired with an :class:`RpcResponse`.

        The request arrives after one latency; the handler runs (possibly
        suspending, if it is a generator); the response arrives after
        another latency.  ``rpc_timeout`` (keyword-only, so it never
        collides with handler kwargs) is a per-call deadline in simulated
        seconds: if no response lands in time the signal fires with an
        :class:`RpcTimeout` failure and any late response is discarded.
        """
        if rpc_timeout is not None and rpc_timeout <= 0:
            raise ValueError(f"rpc_timeout must be positive, got {rpc_timeout}")
        self.calls_sent += 1
        call = _Call(self, src, dst, service, method, args, kwargs, rpc_timeout)
        tel = instrument.TELEMETRY
        if tel is not None:
            call_id = call.call_id = f"rpc{self.calls_sent}"
            # The rpc span is a child of whatever operation issued the
            # call; the handler (and everything it spawns or calls in
            # turn) runs under the rpc span's context, so the whole
            # downstream subtree hangs off this edge.
            rpc_ctx = call.rpc_ctx = instrument.derive_context(call_id)
            span_args: Dict[str, Any] = {"src": src, "dst": dst,
                                         "trace": rpc_ctx.trace_id}
            if rpc_ctx.parent_id is not None:
                span_args["parent"] = rpc_ctx.parent_id
            tel.begin(self._loop.now, f"{service}.{method}", "rpc", call_id,
                      track="rpc", **span_args)
            self._loop.call_in(self._one_way_delay(), call.deliver_traced)
        else:
            self._loop.call_in(self._one_way_delay(), call.dispatch)
        if rpc_timeout is not None:
            call.deadline = self._loop.call_in(rpc_timeout, call.expire)
        return call.done

    def invoke(
        self,
        src: str,
        dst: str,
        service: str,
        method: str,
        *args: Any,
        rpc_timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Generator:
        """Process-friendly call: ``result = yield from fabric.invoke(...)``.

        Raises the appropriate :class:`~repro.rpc.errors.RpcError` subclass
        inside the calling process when the call fails, with endpoint /
        service / elapsed-time context attached.
        """
        started = self._loop.now
        response = yield self.call(
            src, dst, service, method, *args, rpc_timeout=rpc_timeout, **kwargs
        )
        if response.ok:
            return response.value
        elapsed = self._loop.now - started
        error_type = response.error_type or RemoteInvocationError
        if error_type is RemoteInvocationError:
            raise RemoteInvocationError(
                service,
                method,
                response.error or "",
                remote_error=response.remote_error,
                endpoint=dst,
                elapsed=elapsed,
            )
        if error_type is RpcTimeout:
            raise RpcTimeout(
                response.error or "",
                timeout=rpc_timeout,
                endpoint=dst,
                service=service,
                method=method,
                elapsed=elapsed,
            )
        raise error_type(
            response.error or "",
            endpoint=dst,
            service=service,
            method=method,
            elapsed=elapsed,
        )
