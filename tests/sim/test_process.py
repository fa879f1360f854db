"""Unit tests for generator-based processes and signals."""

import pytest

from repro.sim import Delay, EventLoop, Process, Signal, SimulationError


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


def test_signal_fired_from_a_callback_resumes_its_waiter_in_that_event():
    loop = EventLoop()
    sig = Signal(loop)
    woke = []

    def waiter():
        payload = yield sig
        woke.append((payload, loop.now, loop.events_processed))

    Process(loop, waiter())
    loop.call_at(1.0, sig.fire, "reply")
    loop.run()
    # Event 1 starts the process, event 2 fires the signal and resumes it.
    assert woke == [("reply", 1.0, 2)]
    assert loop.events_processed == 2
    assert not loop.in_process_step


def test_signal_fired_inside_a_step_never_resumes_a_waiter_in_that_step():
    loop = EventLoop()
    sig = Signal(loop)
    trace = []

    def waiter():
        yield sig
        trace.append(("waiter", loop.events_processed))

    def firer():
        yield Delay(1.0)
        sig.fire()
        trace.append(("firer", loop.events_processed))

    Process(loop, waiter())
    Process(loop, firer())
    loop.run()
    assert trace == [("firer", 3), ("waiter", 4)]


def test_nested_children_start_in_construction_order():
    loop = EventLoop()
    trace = []

    def child(tag):
        trace.append((tag, loop.events_processed))
        yield Delay(1.0)

    def parent():
        first = Process(loop, child("first"))
        second = Process(loop, child("second"))
        trace.append(("parent", loop.events_processed))
        yield first
        yield second

    def plain_callback():
        Process(loop, child("top-level"))
        trace.append(("callback", loop.events_processed))

    Process(loop, parent())
    loop.call_at(5.0, plain_callback)
    loop.run()
    # Both children run inside the parent's first event; the process a
    # plain callback (event 6) constructs waits for its own kick-off.
    assert trace == [
        ("first", 1), ("second", 1), ("parent", 1),
        ("callback", 6), ("top-level", 7),
    ]


def test_several_waiters_resume_in_registration_order():
    loop = EventLoop()
    sig = Signal(loop)
    woke = []

    def waiter(tag):
        yield sig
        woke.append(tag)

    for tag in ("c", "a", "b"):
        Process(loop, waiter(tag))
    loop.call_at(1.0, sig.fire)
    loop.run()
    assert woke == ["c", "a", "b"]


def test_labels_are_joined_when_read():
    loop = EventLoop()

    def body():
        yield Delay(1.0)

    proc = Process(loop, body(), ("svc", ".", "stat", "@", "h1"))
    assert proc.name == "svc.stat@h1"
    assert proc.done_signal.name == "done:svc.stat@h1"
    loop.run()
    with pytest.raises(SimulationError, match=r"^signal 'done:svc.stat@h1' fired twice$"):
        proc.done_signal.fire()
