"""Static and runtime determinism/protocol analysis.

The reproduction's headline guarantee is bit-identical determinism and
a lease-fenced write protocol.  This package enforces both contracts
from three sides:

* :mod:`repro.analysis.simlint` — an AST-based linter (stdlib ``ast``
  only) with project-specific rules:

  - **DET001** wall-clock reads (``time.time``/``time.monotonic``/
    ``datetime.now``) outside the sanctioned clock seam;
  - **DET002** use of the shared ``random`` module, or RNG construction
    that bypasses :class:`repro.sim.randomness.RandomStreams`;
  - **DET003** iteration over unordered ``set`` objects where iteration
    order can leak into results;
  - **DET004** float ``==``/``!=`` on rates/costs/shares;
  - **RACE001** sim-process generators that cache shared mutable state
    before a ``yield`` and keep reading it after resuming.

* :mod:`repro.analysis.protocheck` — a cross-module call/effect-graph
  checker for the write-path fencing discipline (DESIGN.md §11):

  - **FENCE001** unfenced mutation of epoch-fenced state reachable
    from an RPC entry point;
  - **FENCE002** an epoch captured before a ``yield`` and used after
    (the stale-epoch-capture bug shape);
  - **PROTO001** acknowledgement recorded before the ledger write it
    acknowledges.

  Escapes live in :mod:`repro.fs.annotations`
  (``@protocheck.fenced``/``entrypoint``/``exempt`` — runtime no-ops)
  and inline ``# protocheck: ignore[RULE]`` comments.

* :mod:`repro.analysis.explore` — a bounded systematic interleaving
  explorer driving :meth:`repro.sim.engine.EventLoop.set_scheduler`,
  with a 2-dataserver failover scenario, protocol invariants checked
  per schedule, and replayable JSON counterexample traces.

* :mod:`repro.analysis.simsan` — **SimSanitizer**, an opt-in runtime
  invariant checker (``REPRO_SIMSAN=1`` or ``pytest --simsan``) that
  asserts cross-layer invariants after every engine event.

Run the linters with ``python -m repro.analysis src`` and ``python -m
repro.analysis protocheck src/repro`` (exit code 1 on any finding);
run the explorer with ``python -m repro.analysis explore``.  See
DESIGN.md §"Determinism contract" and §11.
"""

from __future__ import annotations

from repro.analysis import explore, protocheck
from repro.analysis.config import SimlintConfig
from repro.analysis.explore import (
    ExplorationReport,
    FailoverScenario,
    RecordingScheduler,
    ScheduleResult,
    counterexample_trace,
    replay_trace,
    run_failover_exploration,
)
from repro.analysis.protocheck import (
    ProtocolGraph,
    analyze_sources,
    build_graph,
)
from repro.analysis.simlint import Finding, lint_paths, lint_source
from repro.analysis.simsan import SimSanError, SimSanitizer, arm, disarm, get_active

__all__ = [
    "ExplorationReport",
    "FailoverScenario",
    "Finding",
    "ProtocolGraph",
    "RecordingScheduler",
    "ScheduleResult",
    "SimSanError",
    "SimSanitizer",
    "SimlintConfig",
    "analyze_sources",
    "arm",
    "build_graph",
    "counterexample_trace",
    "disarm",
    "explore",
    "get_active",
    "lint_paths",
    "lint_source",
    "protocheck",
    "replay_trace",
    "run_failover_exploration",
]
