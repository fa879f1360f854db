"""Per-switch flow tables.

Each switch keeps an exact-match table from flow id to output link.  The
controller programs entries with FlowMod messages when the Flowserver
assigns a path (§3.3: "the Flowserver will also install the flow path for
this request in the OpenFlow switches").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class FlowTableEntry:
    """One exact-match forwarding rule."""

    flow_id: str
    out_link_id: str
    installed_at: float


class FlowTable:
    """Exact-match flow table for one switch."""

    def __init__(self, switch_id: str):
        self.switch_id = switch_id
        self._entries: Dict[str, FlowTableEntry] = {}

    def install(self, flow_id: str, out_link_id: str, now: float) -> None:
        """Add (or overwrite) the rule for ``flow_id``."""
        self._entries[flow_id] = FlowTableEntry(flow_id, out_link_id, now)

    def remove(self, flow_id: str) -> bool:
        """Delete the rule; returns whether it existed."""
        return self._entries.pop(flow_id, None) is not None

    def lookup(self, flow_id: str) -> Optional[str]:
        """Output link for ``flow_id``, or ``None`` on a table miss."""
        entry = self._entries.get(flow_id)
        return entry.out_link_id if entry else None

    def entries(self) -> List[FlowTableEntry]:
        """All rules, sorted by flow id (deterministic)."""
        return [self._entries[fid] for fid in sorted(self._entries)]
