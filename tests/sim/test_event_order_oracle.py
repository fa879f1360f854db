"""The event loop fires in the order a naive reference loop does.

The reference keeps every scheduled event in a plain list and, at each
step, fires the live event with the smallest ``(time, seq)``, where
``seq`` counts scheduling calls; cancelled events are skipped.  Generated
programs drive both loops through the same ``call_at`` / ``call_in``
calls: equal timestamps and zero delays, events that schedule and cancel
others from inside their callbacks, cancels of pending, fired and
already-cancelled handles, ``run(until=)`` splits, and interleaved
``step()`` calls and ``peek_time()`` / ``pending_events`` probes.  Every
fired ``(label, now)`` and every probe result must agree.

The scheduler seam is held to the same reference: an always-0 scheduler
fires in exactly the reference's order, and an always-last scheduler is
offered the same ready sets, in the same order and under the ``seq`` each
event was scheduled with, as the reference offers.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import EventLoop


class RefHandle:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq = time, seq
        self.callback, self.args = callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceLoop:
    """A plain list of events; fire the minimum ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events = []
        self.scheduled = 0
        self.scheduler = None

    def set_scheduler(self, scheduler):
        self.scheduler = scheduler

    def call_at(self, when, callback, *args):
        handle = RefHandle(when, self.scheduled, callback, args)
        self.scheduled += 1
        self.events.append(handle)
        return handle

    def call_in(self, delay, callback, *args):
        return self.call_at(self.now + delay, callback, *args)

    def _live(self):
        live = [ev for ev in self.events if not ev.cancelled]
        return sorted(live, key=lambda ev: (ev.time, ev.seq))

    @property
    def pending_events(self):
        return len(self._live())

    def peek_time(self):
        live = self._live()
        return live[0].time if live else None

    def step(self):
        live = self._live()
        if not live:
            return False
        ready = [ev for ev in live if ev.time == live[0].time]
        index = 0
        if self.scheduler is not None and len(ready) > 1:
            index = self.scheduler(ready[0].time, ready)
        chosen = ready[index]
        self.events.remove(chosen)
        self.now = chosen.time
        chosen.callback(*chosen.args)
        return True

    def run(self, until=None):
        while True:
            next_time = self.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until


def execute(loop, program):
    """Run ``program`` on ``loop``, then drain it; return what was seen."""
    seen = []
    handles = []

    def fire(label, actions):
        seen.append((label, loop.now))
        for action in actions:
            apply(action)

    def apply(action):
        op, arg = action
        if op == "at":
            when, actions = arg
            # Clamped, so an absolute time never lies in the simulated past.
            handle = loop.call_at(max(when, loop.now), fire, len(handles), actions)
            handles.append(handle)
        elif op == "in":
            delay, actions = arg
            handles.append(loop.call_in(delay, fire, len(handles), actions))
        elif op == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif op == "peek":
            seen.append(("peek", loop.peek_time(), loop.pending_events))
        elif op == "step":
            seen.append(("step", loop.step(), loop.now))
        elif op == "run":
            loop.run(until=arg)
            seen.append(("run", arg, loop.now))

    for action in program:
        apply(action)
    loop.run()
    seen.append(("end", loop.now))
    return seen


#: Few distinct instants, so ties are common; 0.0 is a zero delay.
TIMES = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))
CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63))
PEEK = st.just(("peek", None))


def scheduling(actions):
    return st.tuples(st.sampled_from(("at", "in")), st.tuples(TIMES, actions))


#: What an event does when it fires: schedule more, cancel, probe.
callback_actions = st.recursive(
    st.lists(st.one_of(CANCEL, PEEK), max_size=2),
    lambda inner: st.lists(st.one_of(scheduling(inner), CANCEL, PEEK), max_size=3),
    max_leaves=8,
)

programs = st.lists(
    st.one_of(
        scheduling(callback_actions),
        CANCEL,
        PEEK,
        st.just(("step", None)),
        st.tuples(st.just("run"), st.sampled_from((0.0, 0.5, 1.0, 1.75, 3.0))),
    ),
    max_size=30,
)

TIES = [("at", (1.0, [])), ("in", (1.0, [])), ("at", (1.0, []))]
#: A cancelled event at the head of the queue, then probes and a split.
CANCELLED_HEAD = [
    ("at", (0.5, [])), ("at", (2.0, [])), ("cancel", 0), ("peek", None),
    ("run", 1.0), ("peek", None),
]
#: Three ready at once; after the first choice a new event joins the tie.
REQUEUE = [
    ("at", (1.0, [])), ("at", (1.0, [])), ("at", (1.0, [])), ("step", None),
    ("at", (1.0, [("in", (0.0, []))])), ("peek", None),
]
#: The first of two tied events schedules a zero-delay event and cancels
#: the second one before it fires.
CANCEL_FROM_CALLBACK = [
    ("at", (1.0, [("in", (0.0, [])), ("cancel", 1)])), ("at", (1.0, [])),
]


@settings(max_examples=300, deadline=None)
@given(programs)
@example(TIES)
@example(CANCELLED_HEAD)
@example(CANCEL_FROM_CALLBACK)
def test_fires_in_reference_order(program):
    assert execute(EventLoop(), program) == execute(ReferenceLoop(), program)


@settings(max_examples=100, deadline=None)
@given(programs)
@example(TIES)
@example(REQUEUE)
def test_always_first_scheduler_fires_in_unscheduled_order(program):
    loop = EventLoop()
    loop.set_scheduler(lambda time, events: 0)
    assert execute(loop, program) == execute(ReferenceLoop(), program)


def always_last(offers):
    def scheduler(time, events):
        offers.append((time, [(ev.args[0], ev.seq) for ev in events]))
        return len(events) - 1

    return scheduler


@settings(max_examples=100, deadline=None)
@given(programs)
@example(REQUEUE)
def test_always_last_scheduler_keeps_unchosen_events_in_order(program):
    offers, reference_offers = [], []
    loop, reference = EventLoop(), ReferenceLoop()
    loop.set_scheduler(always_last(offers))
    reference.set_scheduler(always_last(reference_offers))
    assert execute(loop, program) == execute(reference, program)
    assert offers == reference_offers
