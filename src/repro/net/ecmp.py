"""Equal-cost multi-path (ECMP) selection.

ECMP (RFC 2992) pins each flow to one of the equal-cost shortest paths by
hashing flow-identifying header fields.  It is the baseline path selector in
the paper's "Nearest ECMP", "Sinbad-R ECMP" and "HDFS-ECMP" configurations:
oblivious to load, so elephant flows can collide on one uplink while a
parallel uplink idles.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.net.routing import Path


class EcmpHasher:
    """Deterministic hash-based path picker.

    Parameters
    ----------
    salt:
        Per-experiment salt so that independent replications hash flows
        differently (real ECMP implementations differ per switch vendor and
        boot; the salt models that without losing reproducibility).
    """

    def __init__(self, salt: int = 0):
        self._salt = int(salt)

    def pick(self, paths: Sequence[Path], src_port: int, dst_port: int) -> Path:
        """Choose one path for the 5-tuple (src, dst, ports are explicit).

        The same 5-tuple always maps to the same path, as with a real
        hash-based ECMP implementation.
        """
        if not paths:
            raise ValueError("ECMP requires at least one candidate path")
        src, dst = paths[0].src, paths[0].dst
        for p in paths:
            if (p.src, p.dst) != (src, dst):
                raise ValueError("ECMP candidates must share endpoints")
        key = f"{self._salt}|{src}|{dst}|{src_port}|{dst_port}".encode("utf-8")
        digest = hashlib.sha256(key).digest()
        index = int.from_bytes(digest[:8], "big") % len(paths)
        return paths[index]

    def pick_for_flow(self, paths: Sequence[Path], flow_seq: int) -> Path:
        """Convenience wrapper deriving pseudo port numbers from a sequence.

        Successive flows between the same endpoints get fresh ephemeral
        "source ports", matching how distinct TCP connections spread over
        ECMP buckets.
        """
        return self.pick(paths, src_port=32768 + (flow_seq % 28232), dst_port=9000)
