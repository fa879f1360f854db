"""§4.3 — Reading from multiple replicas in parallel.

A read job is split into two subflows only when the combined estimated
bandwidth of the subflows beats the single best flow.  The procedure
mirrors the paper exactly:

1. pick ``p1`` with the standard replica–path selection (share ``b1``);
2. *tentatively* commit ``f1`` and run the selection again for a second
   subflow ``f2``, restricted to **different replicas** (share ``b2``);
   committing ``f2`` may squeeze ``f1`` down to ``b1'``;
3. if ``b1' + b2 > b1`` keep both and split the read so the subflows finish
   together (``S_i = d * b_i / b``); otherwise roll the tentative state
   back and use ``p1`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.cost import LinkShareCache
from repro.core.flow_state import FlowStateTable
from repro.core.selection import PathChoice, best_candidate, commit_choice
from repro.net.routing import Path


@dataclass(frozen=True)
class SubflowPlan:
    """One subflow of a (possibly split) read: where from, how much, how fast."""

    flow_id: str
    choice: PathChoice
    size_bits: float
    est_bw_bps: float

    @property
    def replica(self) -> str:
        return self.choice.replica


class MultiReplicaPlanner:
    """Plans single- or dual-replica reads against a flow state table.

    A split is kept only when the combined subflow bandwidth strictly
    exceeds the single-flow estimate: b1' + b2 > b1 (§4.3).
    """

    def plan(
        self,
        candidate_paths: Sequence[Path],
        flow_ids: Tuple[str, str],
        flow_size_bits: float,
        link_capacity_bps: Mapping[str, float],
        state: FlowStateTable,
        now: float,
        include_existing_flows: bool = True,
        job_id: Optional[str] = None,
        cache: Optional[LinkShareCache] = None,
    ) -> List[SubflowPlan]:
        """Return one or two committed subflow plans for the read.

        ``flow_ids`` supplies (pre-allocated) ids for the up-to-two
        subflows.  On return the state table already tracks the chosen
        flows with their final sizes and freezes applied.

        The same ``cache`` serves both searches: committing ``f1`` drops
        the memo of exactly the links ``f1`` and the flows it squeezed
        cross, so the second search recomputes those links and replays
        every other link warm from the first.
        """
        fid1, fid2 = flow_ids
        first = best_candidate(
            candidate_paths,
            flow_size_bits,
            link_capacity_bps,
            state,
            include_existing_flows=include_existing_flows,
            cache=cache,
        )
        b1 = first.cost.est_bw_bps
        if b1 <= 0:
            raise ValueError("best candidate path has zero estimated bandwidth")

        # Commit f1: it is the chosen flow in both the split and non-split
        # outcomes, so its squeeze of existing flows stands either way.
        # Scoring f2 below never mutates state, so rejecting the split
        # needs no rollback beyond simply not committing f2.
        commit_choice(first, fid1, flow_size_bits, state, now, job_id=job_id)

        first_replica = first.replica
        second_candidates = [p for p in candidate_paths if p.src != first_replica]
        if not second_candidates:
            return [SubflowPlan(fid1, first, flow_size_bits, b1)]

        second = best_candidate(
            second_candidates,
            flow_size_bits,
            link_capacity_bps,
            state,
            include_existing_flows=include_existing_flows,
            cache=cache,
        )
        b2 = second.cost.est_bw_bps
        # f2 joining may squeeze f1 down to b1'.
        b1_prime = second.cost.new_bw_of_existing.get(fid1, b1)

        combined = b1_prime + b2
        if b2 <= 0 or combined <= b1:
            # Roll back nothing for f1 (it stays the committed single flow).
            return [SubflowPlan(fid1, first, flow_size_bits, b1)]

        commit_choice(second, fid2, flow_size_bits, state, now, job_id=job_id)

        # Split sizes so subflows finish together: S_i = d * b_i / b.
        size1 = flow_size_bits * b1_prime / combined
        size2 = flow_size_bits - size1

        flow1 = state.flows[fid1]
        flow1.size_bits = size1
        flow1.remaining_bits = size1
        state.set_bw(fid1, b1_prime, now)

        flow2 = state.flows[fid2]
        flow2.size_bits = size2
        flow2.remaining_bits = size2
        state.set_bw(fid2, b2, now)

        return [
            SubflowPlan(fid1, first, size1, b1_prime),
            SubflowPlan(fid2, second, size2, b2),
        ]
