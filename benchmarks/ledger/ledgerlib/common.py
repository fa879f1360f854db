"""Pieces shared by the ledger's workload modules.

Nothing here imports ``repro``: the child interpreter stamps the start of
``setup_s`` before the first ``import repro`` and this module is loaded
ahead of that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

MIB = 1024 * 1024

#: Seed of everything that belongs to the modelled cluster rather than to
#: the offered load: replica placement of the catalogue, file ids, ECMP
#: salts, RPC jitter.  ``--seed`` keys the request trace only (arrivals,
#: popularity, clients), so two seeds offer different load to the *same*
#: cluster and the program under test never sees the benchmark's seed.
CLUSTER_SEED = 0


def build(cls: type, **wanted: Any) -> Tuple[Any, List[str]]:
    """Instantiate dataclass ``cls`` from the knobs it still declares.

    Returns the instance and the names that were dropped because a later
    change removed the field — deleting a knob changes what is measured,
    never whether the ledger runs.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    dropped = sorted(set(wanted) - known)
    return cls(**{k: v for k, v in wanted.items() if k in known}), dropped


def dig(root: Any, path: str) -> Optional[Any]:
    """Follow a dotted public attribute path; ``None`` when a hop is gone."""
    value = root
    for name in path.split("."):
        if name.startswith("_"):
            raise ValueError(f"the ledger reads public attributes only: {path!r}")
        try:
            value = getattr(value, name)
        except AttributeError:
            return None
    return value() if callable(value) else value


def op_digest(rows: Iterable[Sequence[Any]]) -> str:
    """sha256 over ``(op id, repr(sim completion time), choice)`` rows."""
    sha = hashlib.sha256()
    for row in rows:
        sha.update("\x1f".join(map(repr, row)).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, so it repeats exactly)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class Outcome:
    """What one rep of a workload hands back to the child driver."""

    #: Simulated latency of every primary op, in arrival order.
    latencies: List[float]
    attempted: int
    failed: int
    digest: str
    #: Named correctness checks: True/False, or None when the layer the
    #: check inspects is not part of this workload.
    checks: Dict[str, Optional[bool]]
    #: Live objects the public counters are read from, by root name.
    roots: Dict[str, Any]
    #: Simulated append latencies (``dfs_mixed_64`` only).
    append_latencies: Optional[List[float]] = None
    dropped_knobs: List[str] = dataclasses.field(default_factory=list)
    #: Problems worth printing next to a failed check.
    notes: List[str] = dataclasses.field(default_factory=list)
