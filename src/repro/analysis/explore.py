"""Bounded systematic interleaving exploration of the write protocol.

SimSanitizer re-checks invariants on whichever interleaving a seeded
run happens to visit; this module *enumerates* interleavings.  The
:class:`~repro.sim.engine.EventLoop` exposes an opt-in scheduler seam
(:meth:`EventLoop.set_scheduler`): whenever two or more events are
ready at the same simulated timestamp, the installed scheduler picks
which fires first.  A :class:`RecordingScheduler` replays a *choice
prefix* and defaults to choice 0 beyond it, recording every decision
(timestamp, ready-event labels, arity).  :func:`explore` then walks the
schedule tree: each completed run spawns one new prefix per untaken
branch at every decision past its own prefix, so every enumerated
schedule is explored exactly once (prefixes never end in choice 0,
which makes the run -> choice-tuple map injective).

This is DPOR-flavored rather than full DPOR: instead of computing
happens-before races we optionally prune decisions whose ready events
all carry the same label (symmetric choices), and bound the walk by
``max_schedules``/``max_depth``.  The point is systematic coverage of
the *same-timestamp* nondeterminism the protocol must tolerate — RPC
deliveries, process wakeups, and lease-table mutations racing at one
instant — not exhaustive model checking.

A violating schedule is reproducible: its choice tuple (plus the
scenario config) *is* the counterexample, serialized by
:func:`write_trace` and replayed bit-for-bit by :func:`replay_trace`.

The built-in :class:`FailoverScenario` is the 2-dataserver primary
failover from DESIGN.md §10: an acknowledged append at epoch 1, then a
stale-primary writer, an explicit promotion sequence (expire, revoke,
promote, replica-set rewrite — each its own event), and a new-primary
writer all racing at the same instant.  Invariants checked after every
schedule: per-replica ledger contiguity, exactly-once placement of
every *acknowledged* append across the current replica set, and a
single append per (epoch, offset) across all replicas (the split-brain
detector).  ``bug="drop-epoch-check"`` removes both fencing sides —
the dataserver's ``_ensure_lease`` and the lease manager's
``validate`` — which is exactly the bug class FENCE001 exists to stop;
the explorer must find a schedule where an acknowledged append is lost
or two appends share an (epoch, offset) slot.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.engine import EventHandle

#: A schedule runner: takes the scheduler to install, returns
#: ``(violations, outcome)``.
ScheduleRunner = Callable[["RecordingScheduler"], Tuple[List[str], Dict[str, Any]]]


# ----------------------------------------------------------------------
# Scheduling and recording
# ----------------------------------------------------------------------


def event_label(handle: EventHandle) -> str:
    """Human-readable label of a pending event (for traces)."""
    callback = handle.callback
    if callback is None:
        return "<cancelled>"
    name = getattr(
        callback, "__qualname__", getattr(callback, "__name__", None)
    ) or repr(callback)
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        tag = getattr(owner, "name", None) or type(owner).__name__
        return f"{name}[{tag}]"
    return str(name)


@dataclass(frozen=True)
class Decision:
    """One branch point: which of the same-time ready events fired."""

    index: int
    time: float
    ready: Tuple[str, ...]
    chosen: int


class RecordingScheduler:
    """Replays a choice prefix, defaults to 0 beyond it, records all.

    The event loop only consults the scheduler when two or more events
    share the earliest timestamp, so every recorded decision is a real
    branch point (arity >= 2).
    """

    def __init__(self, prefix: Tuple[int, ...] = ()) -> None:
        self.prefix = tuple(prefix)
        self.decisions: List[Decision] = []

    def __call__(self, time: float, events: List[EventHandle]) -> int:
        index = len(self.decisions)
        choice = self.prefix[index] if index < len(self.prefix) else 0
        if choice >= len(events):
            # A prefix from a differently-shaped run (should not happen
            # for deterministic scenarios); degrade to the default.
            choice = 0
        self.decisions.append(
            Decision(
                index=index,
                time=time,
                ready=tuple(event_label(ev) for ev in events),
                chosen=choice,
            )
        )
        return choice

    @property
    def choices(self) -> Tuple[int, ...]:
        return tuple(d.chosen for d in self.decisions)


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------


@dataclass
class ScheduleResult:
    """Outcome of one fully-run schedule."""

    choices: Tuple[int, ...]
    decisions: List[Decision]
    violations: List[str]
    outcome: Dict[str, Any]


@dataclass
class ExplorationReport:
    """Summary of a bounded exploration."""

    schedules_run: int
    distinct_schedules: int
    decisions_seen: int
    max_arity: int
    frontier_exhausted: bool
    violation: Optional[ScheduleResult]
    results: List[ScheduleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


def explore(
    run_schedule: ScheduleRunner,
    *,
    max_schedules: int = 200,
    max_depth: int = 120,
    stop_on_violation: bool = True,
    keep_results: bool = True,
) -> ExplorationReport:
    """Enumerate schedules breadth-first up to the given bounds."""
    frontier: deque[Tuple[int, ...]] = deque([()])
    seen_choice_tuples: set[Tuple[int, ...]] = set()
    results: List[ScheduleResult] = []
    schedules_run = 0
    decisions_seen = 0
    max_arity = 0
    violation: Optional[ScheduleResult] = None

    while frontier and schedules_run < max_schedules:
        prefix = frontier.popleft()
        scheduler = RecordingScheduler(prefix)
        violations, outcome = run_schedule(scheduler)
        schedules_run += 1
        decisions_seen += len(scheduler.decisions)
        result = ScheduleResult(
            choices=scheduler.choices,
            decisions=list(scheduler.decisions),
            violations=violations,
            outcome=outcome,
        )
        seen_choice_tuples.add(result.choices)
        if keep_results:
            results.append(result)
        for decision in scheduler.decisions:
            max_arity = max(max_arity, len(decision.ready))
        if violations and violation is None:
            violation = result
            if stop_on_violation:
                break
        base = result.choices
        for i in range(len(prefix), min(len(scheduler.decisions), max_depth)):
            decision = scheduler.decisions[i]
            for alternative in range(1, len(decision.ready)):
                frontier.append(base[:i] + (alternative,))

    return ExplorationReport(
        schedules_run=schedules_run,
        distinct_schedules=len(seen_choice_tuples),
        decisions_seen=decisions_seen,
        max_arity=max_arity,
        frontier_exhausted=not frontier,
        violation=violation,
        results=results,
    )


# ----------------------------------------------------------------------
# Counterexample traces
# ----------------------------------------------------------------------

TRACE_VERSION = 1


def counterexample_trace(
    scenario_name: str,
    result: ScheduleResult,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A replayable JSON trace of one (violating) schedule."""
    return {
        "version": TRACE_VERSION,
        "scenario": scenario_name,
        "config": dict(config or {}),
        "choices": list(result.choices),
        "violations": list(result.violations),
        "decisions": [
            {
                "index": d.index,
                "time": d.time,
                "ready": list(d.ready),
                "chosen": d.chosen,
            }
            for d in result.decisions
        ],
        "outcome": result.outcome,
    }


def write_trace(path: Path, trace: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")


def load_trace(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def replay_trace(
    run_schedule: ScheduleRunner, trace: Dict[str, Any]
) -> ScheduleResult:
    """Re-run the exact schedule a trace recorded."""
    scheduler = RecordingScheduler(tuple(trace["choices"]))
    violations, outcome = run_schedule(scheduler)
    return ScheduleResult(
        choices=scheduler.choices,
        decisions=list(scheduler.decisions),
        violations=violations,
        outcome=outcome,
    )


# ----------------------------------------------------------------------
# The failover scenario
# ----------------------------------------------------------------------

_FILE = "explored"
_APPEND_BYTES = 64
_CHUNK_BYTES = 1 << 20
_STALE_ID = "ap:explore:stale"
_NEW_ID = "ap:explore:new"


class FailoverScenario:
    """2-dataserver primary failover with racing writers.

    Every :meth:`run` builds a fresh 3-host cluster (replication 2, zero
    RPC latency so control messages collide at one timestamp), commits
    one append under epoch 1, then races:

    * a *stale* writer appending through whatever primary its lookup
      returns (usually the deposed one),
    * the promotion sequence, one event per step (lease expiry, cached
      grant revocation, epoch-bumping promote, nameserver replica
      rewrite, dataserver replica-set install),
    * a *new* writer appending through its own lookup.

    ``bug="drop-epoch-check"`` disables ``Dataserver._ensure_lease``
    (the commit fence) and ``LeaseManager.validate`` (the record fence)
    for the run, recreating the removed-epoch-check bug.
    """

    name = "failover-2ds"

    #: Failures the protocol is *supposed* to inflict on racing writers.
    _FENCING_ERRORS = ("LeaseExpiredError", "StaleEpochError", "NotPrimaryError")

    def __init__(self, *, bug: Optional[str] = None, seed: int = 11) -> None:
        if bug not in (None, "drop-epoch-check"):
            raise ValueError(f"unknown seeded bug {bug!r}")
        self.bug = bug
        self.seed = seed

    def config_dict(self) -> Dict[str, Any]:
        return {"bug": self.bug, "seed": self.seed}

    # -- harness -------------------------------------------------------

    def run(
        self, scheduler: "RecordingScheduler"
    ) -> Tuple[List[str], Dict[str, Any]]:
        from repro.cluster import Cluster, ClusterConfig

        cluster = Cluster(
            ClusterConfig(
                pods=1,
                racks_per_pod=1,
                hosts_per_rack=3,
                scheme="hdfs-ecmp",
                placement="hdfs-rack-aware",
                replication=2,
                store_payload=False,
                rpc_latency=0.0,
                seed=self.seed,
                fanout="chain",
                lease_duration=5.0,
            )
        )
        try:
            return self._run_in(cluster, scheduler)
        finally:
            cluster.loop.set_scheduler(None)
            cluster.shutdown()

    def _run_in(
        self, cluster: Any, scheduler: "RecordingScheduler"
    ) -> Tuple[List[str], Dict[str, Any]]:
        from repro.core.fanout import static_chain_plan
        from repro.sim.process import Delay

        hosts = sorted(cluster.topology.hosts)
        # Phase 1 (unexplored): create + one acknowledged epoch-1 append.
        setup_client = cluster.client(hosts[0])

        def setup() -> Generator[Any, Any, Any]:
            created = yield from setup_client.create(
                _FILE, replication=2, chunk_bytes=_CHUNK_BYTES
            )
            yield from setup_client.append(_FILE, _APPEND_BYTES, None)
            return created

        meta = cluster.run(setup(), name="explore-setup")
        old_primary = meta.primary
        new_primary = next(r for r in meta.replicas if r != old_primary)
        writer_host = next(h for h in hosts if h not in meta.replicas)
        file_id = meta.file_id
        baseline_acked = [
            entry.append_id
            for entry in cluster.dataservers[old_primary].append_ledger(file_id)
        ]

        if self.bug == "drop-epoch-check":
            self._apply_bug(cluster)

        # Phase 2 (explored): racing writers + promotion steps.
        results: Dict[str, Tuple[str, Any]] = {}
        fabric = cluster.fabric
        ns_host = cluster.nameserver_host

        def rpc_writer(
            append_id: str, view: Optional[List[str]] = None
        ) -> Generator[Any, Any, Any]:
            try:
                if view is not None:
                    # the new-primary writer: already saw the rewritten
                    # replica set (its lookup raced ahead of ours)
                    replicas = list(view)
                else:
                    raw = yield from fabric.invoke(
                        writer_host, ns_host, "nameserver", "lookup", _FILE
                    )
                    replicas = list(raw["replicas"])
                plan = static_chain_plan(writer_host, replicas[0], replicas[1:])
                yield from fabric.invoke(
                    writer_host,
                    plan.primary,
                    "dataserver",
                    "push_data",
                    file_id,
                    append_id,
                    _APPEND_BYTES,
                    writer_host,
                )
                new_size = yield from fabric.invoke(
                    writer_host,
                    plan.primary,
                    "dataserver",
                    "commit_append",
                    file_id,
                    append_id,
                    writer_host,
                    plan.children,
                )
                results[append_id] = ("acked", new_size)
            except Exception as err:  # noqa: BLE001 - classified below
                root = _root_error(err)
                if type(root).__name__ in self._FENCING_ERRORS:
                    results[append_id] = ("fenced", type(root).__name__)
                else:
                    results[append_id] = ("error", repr(err))

        def promoter() -> Generator[Any, Any, Any]:
            lease_manager = cluster.lease_manager
            yield Delay(0.0)
            lease_manager.expire_host(old_primary)
            yield Delay(0.0)
            cluster.dataservers[old_primary].revoke_leases()
            yield Delay(0.0)
            lease_manager.promote(file_id, new_primary)
            yield Delay(0.0)
            cluster.nameserver.update_replicas(
                _FILE, [new_primary, old_primary]
            )
            yield Delay(0.0)
            for host in (old_primary, new_primary):
                cluster.dataservers[host].update_replica_set(
                    file_id, [new_primary, old_primary]
                )

        cluster.loop.set_scheduler(scheduler)
        cluster.spawn(rpc_writer(_STALE_ID), name="stale-writer")
        cluster.spawn(promoter(), name="promoter")
        cluster.spawn(
            rpc_writer(_NEW_ID, view=[new_primary, old_primary]),
            name="new-writer",
        )
        cluster.run_loop()
        cluster.loop.set_scheduler(None)

        acked = list(baseline_acked) + [
            append_id
            for append_id, (status, _) in sorted(results.items())
            if status == "acked"
        ]
        violations = self._check_invariants(cluster, file_id, acked, results)
        outcome = {
            "results": {k: list(v) for k, v in sorted(results.items())},
            "acked": acked,
            "ledgers": self._ledger_summary(cluster, file_id),
        }
        return violations, outcome

    # -- seeded bug ----------------------------------------------------

    def _apply_bug(self, cluster: Any) -> None:
        """Remove the epoch check on both fencing sides."""
        for dataserver in cluster.dataservers.values():

            def unfenced_lease(stored: Any) -> Generator[Any, Any, int]:
                return max(stored.epoch, 1)
                yield  # pragma: no cover - generator shape only

            dataserver._ensure_lease = unfenced_lease

        def unfenced_validate(file_id: str, host: str, epoch: int) -> None:
            return None

        cluster.lease_manager.validate = unfenced_validate

    # -- invariants ----------------------------------------------------

    def _ledger_summary(
        self, cluster: Any, file_id: str
    ) -> Dict[str, List[List[Any]]]:
        summary: Dict[str, List[List[Any]]] = {}
        for host in sorted(cluster.dataservers):
            dataserver = cluster.dataservers[host]
            if not dataserver.has_file(file_id):
                continue
            summary[host] = [
                [e.append_id, e.offset, e.length, e.epoch]
                for e in dataserver.append_ledger(file_id)
            ]
        return summary

    def _check_invariants(
        self,
        cluster: Any,
        file_id: str,
        acked: List[str],
        results: Dict[str, Tuple[str, Any]],
    ) -> List[str]:
        violations: List[str] = []
        raw = cluster.nameserver.lookup(_FILE)
        replicas = list(raw["replicas"])
        ledgers = {
            host: list(cluster.dataservers[host].append_ledger(file_id))
            for host in sorted(cluster.dataservers)
            if cluster.dataservers[host].has_file(file_id)
        }

        # 1. per-replica ledger contiguity + unique append ids
        for host, ledger in ledgers.items():
            expected_offset = 0
            for entry in ledger:
                if entry.offset != expected_offset:
                    violations.append(
                        f"ledger gap on {host}: entry {entry.append_id} at "
                        f"offset {entry.offset}, expected {expected_offset}"
                    )
                    break
                expected_offset += entry.length
            ids = [e.append_id for e in ledger]
            if len(ids) != len(set(ids)):
                violations.append(f"duplicate append ids in ledger on {host}")

        # 2. every acknowledged append present exactly once on every
        #    current replica, at one agreed offset
        for append_id in acked:
            offsets = []
            for host in replicas:
                matches = [
                    e for e in ledgers.get(host, []) if e.append_id == append_id
                ]
                if len(matches) != 1:
                    violations.append(
                        f"acked append {append_id} appears {len(matches)} "
                        f"times on replica {host} (exactly-once violated)"
                    )
                else:
                    offsets.append(matches[0].offset)
            if len(set(offsets)) > 1:
                violations.append(
                    f"acked append {append_id} at conflicting offsets "
                    f"{sorted(set(offsets))} across replicas"
                )

        # 3. single append per (epoch, offset) across all replicas —
        #    two ids in one slot means two primaries shared an epoch
        claims: Dict[Tuple[int, int], str] = {}
        for host, ledger in sorted(ledgers.items()):
            for entry in ledger:
                slot = (entry.epoch, entry.offset)
                claimed = claims.setdefault(slot, entry.append_id)
                if claimed != entry.append_id:
                    violations.append(
                        f"split brain: {claimed} and {entry.append_id} both "
                        f"committed at epoch {slot[0]} offset {slot[1]}"
                    )

        # 4. no unclassified errors (fencing rejections are expected;
        #    anything else is a protocol anomaly)
        for append_id, (status, detail) in sorted(results.items()):
            if status == "error":
                violations.append(
                    f"writer {append_id} failed outside the fencing "
                    f"protocol: {detail}"
                )
        return violations


def run_failover_exploration(
    *,
    bug: Optional[str] = None,
    seed: int = 11,
    max_schedules: int = 200,
    max_depth: int = 120,
    stop_on_violation: bool = True,
    keep_results: bool = False,
) -> Tuple[ExplorationReport, FailoverScenario]:
    """Convenience wrapper: explore the failover scenario."""
    scenario = FailoverScenario(bug=bug, seed=seed)
    report = explore(
        scenario.run,
        max_schedules=max_schedules,
        max_depth=max_depth,
        stop_on_violation=stop_on_violation,
        keep_results=keep_results,
    )
    return report, scenario


def _root_error(err: BaseException) -> BaseException:
    """Unwrap RPC invocation wrappers to the original remote error."""
    seen: set[int] = set()
    current = err
    while id(current) not in seen:
        seen.add(id(current))
        remote = getattr(current, "remote_error", None)
        if remote is None:
            break
        current = remote
    return current


__all__ = [
    "Decision",
    "ExplorationReport",
    "FailoverScenario",
    "RecordingScheduler",
    "ScheduleResult",
    "counterexample_trace",
    "event_label",
    "explore",
    "load_trace",
    "replay_trace",
    "run_failover_exploration",
    "write_trace",
]
