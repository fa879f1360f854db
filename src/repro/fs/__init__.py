"""The Mayflower distributed filesystem.

Standard GFS/HDFS-shaped components (§3.3):

* :mod:`repro.fs.nameserver` — file→chunks and file→dataservers mappings
  held in memory, replica placement at creation,
  rebuild-from-dataservers recovery;
* :mod:`repro.fs.dataserver` — chunk storage with append-only semantics;
  each file has a primary dataserver that orders appends and relays them
  to the other replica hosts;
* :mod:`repro.fs.client` — the client library (create/read/append/delete)
  with metadata caching and Flowserver-driven replica selection on reads;
* :mod:`repro.fs.placement` — replica placement policies (the paper's
  evaluation placement and HDFS-style rack-aware placement);
* :mod:`repro.fs.chunks` — file/chunk metadata structures;
* :mod:`repro.fs.consistency` — sequential vs strong consistency (§3.4);
* :mod:`repro.fs.leases` — nameserver-granted primary leases with epoch
  fencing, the authority substrate of the two-phase write pipeline.
"""

from repro.fs.chunks import FileMetadata, chunk_count
from repro.fs.client import MayflowerClient, ReadResult
from repro.fs.consistency import ConsistencyMode
from repro.fs.dataserver import Dataserver, LedgerEntry
from repro.fs.errors import (
    FileAlreadyExistsError,
    FileNotFoundFsError,
    FsError,
    LeaseExpiredError,
    NotPrimaryError,
    ReplicaUnavailableError,
    StaleEpochError,
)
from repro.fs.leases import LeaseGrant, LeaseManager
from repro.fs.membership import (
    HeartbeatSender,
    MembershipTracker,
    ReplicaManager,
)
from repro.fs.nameserver import Nameserver
from repro.fs.placement import HdfsRackAwarePlacement, PaperEvalPlacement

__all__ = [
    "ConsistencyMode",
    "Dataserver",
    "FileAlreadyExistsError",
    "FileMetadata",
    "FileNotFoundFsError",
    "FsError",
    "HdfsRackAwarePlacement",
    "HeartbeatSender",
    "LeaseExpiredError",
    "LeaseGrant",
    "LeaseManager",
    "LedgerEntry",
    "MayflowerClient",
    "MembershipTracker",
    "Nameserver",
    "NotPrimaryError",
    "ReplicaManager",
    "PaperEvalPlacement",
    "ReadResult",
    "ReplicaUnavailableError",
    "StaleEpochError",
    "chunk_count",
]
