"""Client-side retries: the policy (a value) and the one engine that runs it.

Retries are how the client survives the fault classes the injection
subsystem (:mod:`repro.faults`) produces — downed dataservers, failed
links aborting transfers mid-flight, control-plane timeouts.  A
:class:`RetryPolicy` says how often and how patiently; a
:class:`RetryBudget` applies it to one logical operation.  Both are
inert when nothing fails: the success path schedules no event and
consumes no RNG state, so fault-free timelines do not depend on the
policy in force.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.fs.errors import OperationTimeoutError
from repro.sim.engine import EventLoop
from repro.sim.process import Delay


@dataclass(frozen=True)
class RetryPolicy:
    """How a client paces retries of a failed operation.

    Parameters
    ----------
    max_attempts:
        Total tries *per phase* of an operation, first attempt included:
        each nameserver call, each planner request, each byte range of
        a read and each push/commit of an append counts its own.
    base_delay:
        Backoff before the first retry, in simulated seconds.
    multiplier:
        Exponential growth factor between consecutive retries.
    max_delay:
        Ceiling on a single backoff interval.
    jitter:
        Fraction of each interval randomized (0 = deterministic,
        1 = "full jitter").  The delay for retry ``n`` is drawn from
        ``[d*(1-jitter), d]`` where ``d = min(max_delay, base*mult**n)``.
    operation_deadline:
        Overall budget for one *logical operation* — a read, an append
        or one bare namespace call, across all of its phases, attempts
        and backoff — in simulated seconds; ``None`` disables it.
    rpc_timeout:
        Per-call deadline applied to nameserver calls; ``None``
        disables it.  A call that moves file bytes (serving a
        read, pushing or committing an append) is never bounded by
        this — its failure signal is
        :class:`~repro.net.simulator.FlowAborted`.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    operation_deadline: Optional[float] = None
    rpc_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, retry_index: int, rng: Optional[Random] = None) -> float:
        """Delay before retry ``retry_index`` (0 = first retry)."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if raw <= 0 or self.jitter <= 0 or rng is None:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


#: The paper's client (§5): a failed attempt fails over at once — three
#: attempts, no backoff, no deadlines.
IMMEDIATE_FAILOVER = RetryPolicy(
    max_attempts=3, base_delay=0.0, multiplier=1.0, max_delay=0.0, jitter=0.0
)


@dataclass
class RetryBudget:
    """What one logical operation may spend on retries.

    Opened once where the operation starts (a read, an append, one bare
    namespace call) and handed to every phase it runs, so all of them
    share the deadline fixed at that instant and one jitter stream, and
    book their retries — ``on_retry(op, name, error)``, where the owner
    counts and traces them — under the operation that owns them.
    Attempts are counted per phase: each :meth:`run` starts from zero.
    """

    policy: RetryPolicy
    loop: EventLoop
    rng: Optional[Random]
    op: str
    name: str
    on_retry: Callable[[str, str, Exception], None]
    deadline: Optional[float] = field(init=False)

    def __post_init__(self) -> None:
        limit = self.policy.operation_deadline
        self.deadline = None if limit is None else self.loop.now + limit

    def run(
        self,
        attempt: Callable[[], Generator],
        transient: Callable[[Exception], bool],
        exhausted: Optional[Callable[[Exception], Exception]] = None,
        refresh: Optional[Callable[[], Generator]] = None,
    ) -> Generator:
        """Run one phase: ``attempt()`` until it returns, at most
        ``max_attempts`` times.

        An error ``transient`` rejects propagates untouched.  A
        transient one is booked, slept off (``policy.backoff``) and
        followed by ``refresh()`` — what the phase must redo before
        trying again, itself not retried — and the next attempt; after
        the last allowed attempt ``exhausted(error)`` is raised instead,
        or the error itself when ``exhausted`` is None.
        No attempt starts, and no backoff ends, past the deadline:
        :class:`OperationTimeoutError` is raised at that point.
        """
        last_error: Optional[Exception] = None
        for index in range(self.policy.max_attempts):
            delay = self.policy.backoff(index - 1, self.rng) if index else 0.0
            if self.deadline is not None and self.loop.now + delay > self.deadline:
                raise OperationTimeoutError(
                    f"{self.op} of {self.name!r} exceeded its "
                    f"{self.policy.operation_deadline:.6g}s deadline: {last_error}"
                )
            if last_error is not None:
                self.on_retry(self.op, self.name, last_error)
                if delay > 0:
                    yield Delay(delay)
                if refresh is not None:
                    yield from refresh()
            try:
                return (yield from attempt())
            except Exception as err:
                if not transient(err):
                    raise
                last_error = err
        assert last_error is not None  # max_attempts >= 1
        raise last_error if exhausted is None else exhausted(last_error)
