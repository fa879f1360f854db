"""Unit tests for the RPC fabric."""

import hashlib

import pytest

from repro.rpc import HostDownError, RpcFabric, ServiceNotFoundError
from repro.rpc.errors import RemoteInvocationError, RpcTimeout
from repro.sim import Delay, EventLoop, Process


class Echo:
    def echo(self, value):
        return value

    def fail(self):
        raise RuntimeError("kaput")

    def slow_double(self, x):
        yield Delay(1.0)
        return 2 * x

    def _private(self):
        return "secret"


@pytest.fixture()
def env():
    loop = EventLoop()
    fabric = RpcFabric(loop, latency=0.001)
    fabric.register("server", "echo", Echo())
    return loop, fabric


def run_client(loop, gen):
    proc = Process(loop, gen)
    loop.run()
    if proc.exception:
        raise proc.exception
    return proc.result


def test_plain_method_round_trip(env):
    loop, fabric = env

    def client():
        result = yield from fabric.invoke("c", "server", "echo", "echo", "hi")
        return result, loop.now

    value, t = run_client(loop, client())
    assert value == "hi"
    assert t == pytest.approx(0.002)  # two one-way latencies


def test_generator_handler_suspends(env):
    loop, fabric = env

    def client():
        result = yield from fabric.invoke("c", "server", "echo", "slow_double", 21)
        return result, loop.now

    value, t = run_client(loop, client())
    assert value == 42
    assert t == pytest.approx(1.002)


def test_remote_exception_raises_at_caller(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "server", "echo", "fail")

    with pytest.raises(RemoteInvocationError, match="kaput"):
        run_client(loop, client())


def test_unknown_service(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "server", "nope", "echo")

    with pytest.raises(ServiceNotFoundError):
        run_client(loop, client())


def test_unknown_endpoint(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "ghost", "echo", "echo", 1)

    with pytest.raises(ServiceNotFoundError):
        run_client(loop, client())


def test_unknown_method(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "server", "echo", "missing")

    with pytest.raises(ServiceNotFoundError):
        run_client(loop, client())


def test_private_method_not_callable(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "server", "echo", "_private")

    with pytest.raises(ServiceNotFoundError):
        run_client(loop, client())


def test_host_down(env):
    loop, fabric = env
    fabric.set_down("server")

    def client():
        yield from fabric.invoke("c", "server", "echo", "echo", 1)

    with pytest.raises(HostDownError):
        run_client(loop, client())
    assert fabric.calls_failed == 1


def test_host_recovery(env):
    loop, fabric = env
    fabric.set_down("server")
    fabric.set_down("server", down=False)

    def client():
        return (yield from fabric.invoke("c", "server", "echo", "echo", 1))

    assert run_client(loop, client()) == 1


def test_caller_down_also_fails(env):
    loop, fabric = env
    fabric.set_down("c")

    def client():
        yield from fabric.invoke("c", "server", "echo", "echo", 1)

    with pytest.raises(HostDownError):
        run_client(loop, client())


def test_duplicate_registration_rejected(env):
    _, fabric = env
    with pytest.raises(ValueError):
        fabric.register("server", "echo", Echo())


def test_unregister(env):
    loop, fabric = env
    fabric.unregister("server", "echo")

    def client():
        yield from fabric.invoke("c", "server", "echo", "echo", 1)

    with pytest.raises(ServiceNotFoundError):
        run_client(loop, client())


def test_nested_rpc_from_handler():
    """A handler that itself issues an RPC (primary relaying an append)."""
    loop = EventLoop()
    fabric = RpcFabric(loop, latency=0.001)

    class Secondary:
        def __init__(self):
            self.stored = []

        def store(self, value):
            self.stored.append(value)
            return "ok"

    class Primary:
        def append(self, value):
            ack = yield from fabric.invoke("p", "s", "secondary", "store", value)
            return f"primary-{ack}"

    secondary = Secondary()
    fabric.register("s", "secondary", secondary)
    fabric.register("p", "primary", Primary())

    def client():
        return (yield from fabric.invoke("c", "p", "primary", "append", "data"))

    result = run_client(loop, client())
    assert result == "primary-ok"
    assert secondary.stored == ["data"]


def test_concurrent_calls_independent(env):
    loop, fabric = env
    results = []

    def client(i):
        value = yield from fabric.invoke("c", "server", "echo", "slow_double", i)
        results.append(value)

    for i in range(5):
        Process(loop, client(i))
    loop.run()
    assert sorted(results) == [0, 2, 4, 6, 8]


def test_call_counters(env):
    loop, fabric = env

    def client():
        yield from fabric.invoke("c", "server", "echo", "echo", 1)

    run_client(loop, client())
    assert fabric.calls_sent == 1
    assert fabric.calls_failed == 0


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        RpcFabric(EventLoop(), latency=-1)


def test_jitter_spreads_latencies_deterministically():
    def round_trip_times(seed):
        loop = EventLoop()
        fabric = RpcFabric(loop, latency=0.001, jitter=0.002, seed=seed)
        fabric.register("server", "echo", Echo())
        times = []

        def client(i):
            start = loop.now
            yield from fabric.invoke("c", "server", "echo", "echo", i)
            times.append(loop.now - start)

        for i in range(10):
            Process(loop, client(i))
        loop.run()
        return times

    first = round_trip_times(seed=7)
    # jitter adds (0, 2ms] per direction on top of 2x1ms base
    assert all(0.002 < t <= 0.006 + 1e-9 for t in first)
    assert len(set(first)) > 1  # genuinely spread
    assert round_trip_times(seed=7) == first  # reproducible
    assert round_trip_times(seed=8) != first


def test_invalid_jitter_rejected():
    with pytest.raises(ValueError):
        RpcFabric(EventLoop(), jitter=-0.1)


def test_virtual_endpoint():
    loop = EventLoop()
    fabric = RpcFabric(loop)
    fabric.register("@controller", "flowserver", Echo())

    def client():
        return (yield from fabric.invoke("host", "@controller", "flowserver", "echo", "x"))

    assert run_client(loop, client()) == "x"


#: sha256 of the event shape of the scenario below; recomputed only when
#: a change is meant to move when, or in how many events, a call settles.
RPC_EVENT_SHAPE_SHA256 = "6a49bb023e66d749d5a9f7a155c478f555d5ed14585ed1aad69c5ff3798e2022"


class _ShapeService:
    def echo(self, value):
        return value

    def slow_double(self, x):
        yield Delay(0.25)
        return 2 * x

    def fail(self):
        raise RuntimeError("kaput")

    def fail_later(self):
        yield Delay(0.125)
        raise ValueError("late kaput")

    def _private(self):
        return "secret"


def test_rpc_event_shape_is_pinned():
    """Every settle time, event count, response field, counter and jitter
    draw of one call per fabric outcome, hashed into one pin."""
    loop = EventLoop()
    fabric = RpcFabric(loop, latency=0.001, jitter=0.0005, seed=11)
    fabric.register("server", "svc", _ShapeService())
    fabric.set_down("down")
    calls = [
        ("plain", "server", "svc", "echo", ("hi",), None),
        ("generator", "server", "svc", "slow_double", (21,), None),
        ("raises", "server", "svc", "fail", (), None),
        ("raising_generator", "server", "svc", "fail_later", (), None),
        ("down_endpoint", "down", "svc", "echo", (1,), None),
        ("unknown_service", "server", "nope", "echo", (1,), None),
        ("private_method", "server", "svc", "_private", (), None),
        ("timeout_first", "server", "svc", "slow_double", (4,), 0.01),
        ("reply_first", "server", "svc", "echo", ("ok",), 5.0),
    ]
    rows = []

    def caller():
        for label, dst, service, method, args, rpc_timeout in calls:
            response = yield fabric.call(
                "client", dst, service, method, *args, rpc_timeout=rpc_timeout
            )
            remote = response.remote_error
            rows.append((
                label, repr(loop.now), loop.events_processed, response.ok,
                repr(response.value), response.error,
                getattr(response.error_type, "__name__", None),
                None if remote is None else (type(remote).__name__, str(remote)),
            ))

    Process(loop, caller())
    loop.run()
    rows.append((
        "drained", repr(loop.now), loop.events_processed, fabric.calls_sent,
        fabric.calls_failed, fabric.calls_timed_out, fabric._jitter_rng.draws,
    ))
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == RPC_EVENT_SHAPE_SHA256, rows


def test_answered_call_cancels_its_deadline():
    loop = EventLoop()
    fabric = RpcFabric(loop, latency=0.001)
    fabric.register("server", "svc", _ShapeService())
    seen = []

    def caller():
        response = yield fabric.call("client", "server", "svc", "echo", "ok", rpc_timeout=5.0)
        seen.append((response.value, loop.now, loop.pending_events))

    Process(loop, caller())
    loop.run()
    assert seen == [("ok", 0.002, 0)]
    assert loop.now == 0.002
    assert fabric.calls_timed_out == 0


def test_reply_landing_at_its_deadline_loses_to_the_earlier_scheduled_deadline():
    loop = EventLoop()
    fabric = RpcFabric(loop, latency=0.5)
    fabric.register("server", "svc", _ShapeService())
    seen = []

    def caller():
        response = yield fabric.call("client", "server", "svc", "echo", "ok", rpc_timeout=1.0)
        seen.append((response.ok, response.error_type, loop.now))

    Process(loop, caller())
    loop.run()
    # The deadline was scheduled before the reply, so it fires first at
    # t=1.0; the reply settling in the same instant is dropped.
    assert seen == [(False, RpcTimeout, 1.0)]
    assert loop.now == 1.0
    assert (fabric.calls_timed_out, fabric.calls_failed) == (1, 1)


def _responses(loop, fabric, *calls):
    """Send ``calls`` (service, method, args) one after another; their responses."""
    seen = []

    def caller():
        for service, method, args in calls:
            seen.append((yield fabric.call("c", "server", service, method, *args)))

    Process(loop, caller())
    loop.run()
    return seen


def test_unregistered_service_fails_after_a_resolved_call(env):
    loop, fabric = env
    first, = _responses(loop, fabric, ("echo", "echo", (1,)))
    fabric.unregister("server", "echo")
    second, third = _responses(
        loop, fabric, ("echo", "echo", (1,)), ("echo", "missing", ()))
    assert first.value == 1
    assert (second.ok, second.error_type, second.error) == (
        False, ServiceNotFoundError, "no service 'echo' at 'server'")
    assert third.error == "no service 'echo' at 'server'"


def test_failed_lookups_keep_their_messages(env):
    loop, fabric = env
    failing = [("echo", "missing", ()), ("echo", "_private", ()), ("nope", "echo", (1,))]
    responses = _responses(loop, fabric, *failing * 2)
    assert [r.error for r in responses] == [
        "service 'echo' has no method 'missing'",
        "service 'echo' has no method '_private'",
        "no service 'nope' at 'server'",
    ] * 2
    assert {r.error_type for r in responses} == {ServiceNotFoundError}


def test_reregistered_handler_is_the_one_that_runs(env):
    loop, fabric = env

    class Loud(Echo):
        def echo(self, value):
            return f"{value}!"

    first, = _responses(loop, fabric, ("echo", "echo", ("hi",)))
    fabric.unregister("server", "echo")
    fabric.register("server", "echo", Loud())
    second, = _responses(loop, fabric, ("echo", "echo", ("hi",)))
    assert (first.value, second.value) == ("hi", "hi!")


def test_down_endpoint_wins_over_a_resolved_handler(env):
    loop, fabric = env
    first, = _responses(loop, fabric, ("echo", "echo", (1,)))
    fabric.set_down("server")
    second, = _responses(loop, fabric, ("echo", "echo", (1,)))
    fabric.set_down("server", down=False)
    third, = _responses(loop, fabric, ("echo", "echo", (2,)))
    assert first.value == 1
    assert (second.ok, second.error_type, second.error) == (
        False, HostDownError, "endpoint server is down")
    assert third.value == 2
