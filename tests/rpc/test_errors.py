"""Tests for RPC error context fields and per-call deadlines."""

import pytest

from repro.rpc import HostDownError, RpcFabric, RpcTimeout, ServiceNotFoundError
from repro.rpc.errors import RemoteInvocationError, RpcError
from repro.sim import Delay, EventLoop, Process


class Echo:
    def echo(self, value):
        return value

    def fail(self):
        raise RuntimeError("kaput")

    def slow(self, x):
        yield Delay(5.0)
        return x


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


class TestErrorContext:
    def test_str_includes_endpoint_service_and_elapsed(self):
        err = RpcError(
            "boom",
            endpoint="host7",
            service="dataserver",
            method="serve_read",
            elapsed=1.25,
        )
        text = str(err)
        assert "boom" in text
        assert "dataserver.serve_read" in text
        assert "host7" in text
        assert "1.25" in text

    def test_str_without_context_is_plain(self):
        assert str(RpcError("boom")) == "boom"

    def test_host_down_carries_context(self, env):
        loop, fabric = env
        fabric.set_down("server")

        def client():
            yield from fabric.invoke("c", "server", "echo", "echo", "x")

        with pytest.raises(HostDownError) as excinfo:
            run_client(loop, client())
        text = str(excinfo.value)
        assert "echo.echo" in text and "server" in text
        assert excinfo.value.elapsed is not None

    def test_service_not_found_carries_context(self, env):
        loop, fabric = env

        def client():
            yield from fabric.invoke("c", "server", "nope", "echo")

        with pytest.raises(ServiceNotFoundError) as excinfo:
            run_client(loop, client())
        assert "nope.echo" in str(excinfo.value)

    def test_remote_invocation_preserves_original_exception(self, env):
        loop, fabric = env

        def client():
            yield from fabric.invoke("c", "server", "echo", "fail")

        with pytest.raises(RemoteInvocationError) as excinfo:
            run_client(loop, client())
        err = excinfo.value
        assert isinstance(err.remote_error, RuntimeError)
        assert err.remote_message == "kaput"
        assert "echo.fail" in str(err) and "server" in str(err)


class TestRpcTimeout:
    def test_slow_call_times_out(self, env):
        loop, fabric = env

        def client():
            yield from fabric.invoke(
                "c", "server", "echo", "slow", 1, rpc_timeout=0.5
            )

        with pytest.raises(RpcTimeout) as excinfo:
            run_client(loop, client())
        err = excinfo.value
        assert err.timeout == 0.5
        assert "echo.slow" in str(err) and "server" in str(err)
        assert fabric.calls_timed_out == 1

    def test_fast_call_unaffected_by_timeout(self, env):
        loop, fabric = env

        def client():
            return (
                yield from fabric.invoke(
                    "c", "server", "echo", "echo", "ok", rpc_timeout=10.0
                )
            )

        assert run_client(loop, client()) == "ok"
        assert fabric.calls_timed_out == 0

    def test_late_response_after_timeout_is_dropped(self, env):
        """The handler finishes after the deadline; the caller must see
        exactly one outcome (the timeout), never a double delivery."""
        loop, fabric = env

        def client():
            try:
                yield from fabric.invoke(
                    "c", "server", "echo", "slow", 1, rpc_timeout=0.5
                )
            except RpcTimeout:
                # keep the process alive past the handler's completion
                yield Delay(10.0)
                return "survived"

        assert run_client(loop, client()) == "survived"
        assert fabric.calls_timed_out == 1

    def test_non_positive_timeout_rejected(self):
        """A rejected deadline sends nothing: the handler never runs, the
        call is not counted and no jitter is drawn."""
        loop = EventLoop()
        fabric = RpcFabric(loop, latency=0.001, jitter=0.001)
        handled = []

        class Recorder:
            def echo(self, value):
                handled.append(value)
                return value

        fabric.register("server", "echo", Recorder())
        draws = fabric._jitter_rng.draws
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="rpc_timeout"):
                fabric.call("c", "server", "echo", "echo", "x", rpc_timeout=bad)

        def client():
            yield from fabric.invoke(
                "c", "server", "echo", "echo", "x", rpc_timeout=0.0
            )

        with pytest.raises(ValueError, match="rpc_timeout"):
            run_client(loop, client())
        loop.run()
        assert handled == []
        assert fabric.calls_sent == 0
        assert fabric._jitter_rng.draws == draws

    def test_timeout_does_not_shift_other_traffic(self):
        """A timed-out call must not perturb the timeline of later calls
        (fault-free determinism relies on timeout no-ops being inert)."""
        def timeline(use_timeout):
            loop = EventLoop()
            fabric = RpcFabric(loop, latency=0.001)
            fabric.register("server", "echo", Echo())
            times = []

            def client():
                if use_timeout:
                    try:
                        yield from fabric.invoke(
                            "c", "server", "echo", "slow", 1, rpc_timeout=0.5
                        )
                    except RpcTimeout:
                        pass
                else:
                    yield Delay(0.5)  # timeout fires 0.5s after invoke
                for _ in range(3):
                    yield from fabric.invoke("c", "server", "echo", "echo", 1)
                    times.append(loop.now)

            Process(loop, client())
            loop.run()
            return times

        assert timeline(True) == timeline(False)
