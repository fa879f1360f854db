"""Specification of the retry engine: ``RetryBudget.run`` on a bare loop.

Hypothesis generates the policy (attempts, delays, jitter, an optional
deadline), how long one attempt takes and what each attempt does — return,
fail transiently, fail fatally — and the properties below say what the
engine owes its callers whatever the four client phases put in it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.errors import OperationTimeoutError
from repro.fs.retry import RetryBudget, RetryPolicy
from repro.sim import EventLoop, Process
from repro.sim.process import Delay
from repro.sim.randomness import seeded_rng

MAX_ATTEMPTS = 6


class Transient(Exception):
    pass


class Fatal(Exception):
    pass


class Exhausted(Exception):
    pass


policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, MAX_ATTEMPTS),
    base_delay=st.floats(0.0, 1.0),
    multiplier=st.floats(1.0, 3.0),
    max_delay=st.floats(0.0, 2.0),
    jitter=st.sampled_from([0.0, 0.5, 1.0]),
    operation_deadline=st.none() | st.floats(0.0, 6.0),
)
outcome_lists = st.lists(
    st.sampled_from(["ok", "transient", "fatal"]),
    min_size=MAX_ATTEMPTS, max_size=MAX_ATTEMPTS,
)


def drive(policy, outcomes, cost, seed):
    """Run one phase; returns everything an observer can see of it."""
    loop = EventLoop()
    rng = seeded_rng(seed)
    starts, ends, errors, retried, refreshed = [], [], [], [], []

    def attempt():
        index = len(starts)
        starts.append(loop.now)
        if cost > 0:
            yield Delay(cost)
        ends.append(loop.now)
        if outcomes[index] == "ok":
            return index
        errors.append(Transient() if outcomes[index] == "transient" else Fatal())
        raise errors[-1]

    budget = RetryBudget(
        policy, loop, rng, "op", "f",
        lambda op, name, error: retried.append((loop.now, op, name, error)),
    )
    def refresh():
        refreshed.append(loop.now)
        yield from ()

    proc = Process(
        loop,
        budget.run(
            attempt,
            lambda err: isinstance(err, Transient),
            Exhausted,
            refresh,
        ),
    )
    loop.run()
    assert proc.finished
    # refresh() runs once per retry, after the sleep, right before the attempt
    assert refreshed == starts[1:]
    return loop, rng, proc, starts, ends, errors, retried


@settings(max_examples=300, deadline=None)
@given(
    policy=policies,
    outcomes=outcome_lists,
    cost=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_retry_engine_specification(policy, outcomes, cost, seed):
    loop, rng, proc, starts, ends, errors, retried = drive(
        policy, outcomes, cost, seed
    )
    deadline = policy.operation_deadline
    timed_out = isinstance(proc.exception, OperationTimeoutError)
    settling = next(
        (i for i, o in enumerate(outcomes) if o != "transient"), MAX_ATTEMPTS
    )
    owed = min(settling + 1, policy.max_attempts)

    # Attempts: up to the first one that settles the phase, at most
    # max_attempts — fewer only when the deadline cut in.
    assert len(starts) == len(ends)
    if timed_out:
        assert deadline is not None and len(starts) < owed
    else:
        assert len(starts) == owed

    # Sleeps: exactly backoff(0), backoff(1), ... from the budget's own
    # stream, one before each retry; each retry is booked once, before
    # its sleep, with the error that caused it.
    twin = seeded_rng(seed)
    backoffs = [policy.backoff(i, twin) for i in range(len(starts) - 1)]
    assert [when for when, *_ in retried] == ends[:-1]
    assert [booked[1:] for booked in retried] == [
        ("op", "f", err) for err in errors[: len(retried)]
    ]
    assert starts[1:] == [ended + delay for ended, delay in zip(ends, backoffs)]

    # How it ends.
    if timed_out:
        # The next attempt could not have started by the deadline ...
        assert loop.now + policy.backoff(len(starts) - 1, twin) > deadline
    elif outcomes[owed - 1] == "ok":
        assert proc.exception is None and proc.result == owed - 1
    elif outcomes[owed - 1] == "fatal":
        assert proc.exception is errors[-1]  # the same object, unwrapped
    else:
        assert isinstance(proc.exception, Exhausted)
        assert proc.exception.args == (errors[-1],)
    # ... nothing follows the last attempt, no attempt starts past the
    # deadline, and the jitter stream is consumed by backoffs alone.
    assert loop.now == ends[-1]
    if deadline is not None:
        assert all(started <= deadline for started in starts)
        assert loop.now <= deadline + cost
    assert rng.draws == twin.draws


@settings(max_examples=50, deadline=None)
@given(policy=policies, cost=st.floats(0.0, 1.0))
def test_first_attempt_success_draws_and_books_nothing(policy, cost):
    loop, rng, proc, starts, _ends, _errors, retried = drive(
        policy, ["ok"] * MAX_ATTEMPTS, cost, seed=1
    )
    assert proc.exception is None and proc.result == 0 and len(starts) == 1
    assert rng.draws == 0 and retried == []


def test_a_failing_refresh_fails_the_phase_and_is_not_retried():
    loop = EventLoop()
    attempts, broken = [], Transient("while refreshing")

    def attempt():
        attempts.append(loop.now)
        raise Transient()
        yield  # pragma: no cover

    def refresh():
        raise broken
        yield  # pragma: no cover

    budget = RetryBudget(
        RetryPolicy(max_attempts=5, jitter=0.0), loop, None, "op", "f",
        lambda op, name, error: None,
    )
    proc = Process(
        loop,
        budget.run(attempt, lambda err: isinstance(err, Transient), Exhausted, refresh),
    )
    loop.run()
    assert proc.exception is broken and len(attempts) == 1
