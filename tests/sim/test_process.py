"""Unit tests for generator-based processes and signals."""

import pytest

from repro.sim import Delay, EventLoop, Process, Signal, SimulationError, WaitSignal


def test_process_runs_to_completion():
    loop = EventLoop()
    steps = []

    def body():
        steps.append(loop.now)
        yield Delay(1.0)
        steps.append(loop.now)
        yield Delay(2.5)
        steps.append(loop.now)

    proc = Process(loop, body())
    loop.run()
    assert steps == [0.0, 1.0, 3.5]
    assert proc.finished
    assert proc.exception is None


def test_process_return_value():
    loop = EventLoop()

    def body():
        yield Delay(1.0)
        return 42

    proc = Process(loop, body())
    loop.run()
    assert proc.result == 42


def test_process_body_not_run_at_construction():
    loop = EventLoop()
    ran = []

    def body():
        ran.append(True)
        yield Delay(0.0)

    Process(loop, body())
    assert ran == []
    loop.run()
    assert ran == [True]


def test_signal_wakes_waiter_with_payload():
    loop = EventLoop()
    sig = Signal(loop, name="test")
    received = []

    def waiter():
        payload = yield sig
        received.append((payload, loop.now))

    Process(loop, waiter())
    loop.call_at(3.0, sig.fire, "hello")
    loop.run()
    assert received == [("hello", 3.0)]


def test_wait_signal_directive_equivalent():
    loop = EventLoop()
    sig = Signal(loop)
    received = []

    def waiter():
        payload = yield WaitSignal(sig)
        received.append(payload)

    Process(loop, waiter())
    loop.call_at(1.0, sig.fire, 7)
    loop.run()
    assert received == [7]


def test_already_fired_signal_resumes_immediately():
    loop = EventLoop()
    sig = Signal(loop)
    sig.fire("early")
    received = []

    def waiter():
        payload = yield sig
        received.append((payload, loop.now))

    Process(loop, waiter())
    loop.run()
    assert received == [("early", 0.0)]


def test_signal_fire_twice_raises():
    loop = EventLoop()
    sig = Signal(loop)
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_signal_broadcasts_to_all_waiters():
    loop = EventLoop()
    sig = Signal(loop)
    received = []

    def waiter(tag):
        payload = yield sig
        received.append((tag, payload))

    Process(loop, waiter("a"))
    Process(loop, waiter("b"))
    loop.call_at(1.0, sig.fire, "x")
    loop.run()
    assert sorted(received) == [("a", "x"), ("b", "x")]


def test_process_waits_on_child_process():
    loop = EventLoop()
    trace = []

    def child():
        yield Delay(2.0)
        return "child-result"

    def parent():
        result = yield Process(loop, child(), name="child")
        trace.append((result, loop.now))

    Process(loop, parent(), name="parent")
    loop.run()
    assert trace == [("child-result", 2.0)]


def test_child_exception_propagates_to_parent():
    loop = EventLoop()
    caught = []

    def child():
        yield Delay(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield Process(loop, child())
        except ValueError as err:
            caught.append(str(err))

    Process(loop, parent())
    loop.run()
    assert caught == ["boom"]


def test_unhandled_exception_recorded():
    loop = EventLoop()

    def body():
        yield Delay(1.0)
        raise RuntimeError("unhandled")

    proc = Process(loop, body())
    loop.run()
    assert proc.finished
    assert isinstance(proc.exception, RuntimeError)


def test_done_signal_fires_with_result():
    loop = EventLoop()
    observed = []

    def body():
        yield Delay(1.0)
        return "done-value"

    proc = Process(loop, body())
    proc.done_signal.add_waiter(observed.append)
    loop.run()
    assert observed == ["done-value"]


def test_invalid_directive_fails_process():
    loop = EventLoop()

    def body():
        yield "not-a-directive"

    proc = Process(loop, body())
    loop.run()
    assert isinstance(proc.exception, SimulationError)


def test_negative_delay_directive_rejected():
    with pytest.raises(SimulationError):
        Delay(-1.0)
