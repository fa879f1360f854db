"""Sorted-table building blocks left over from the nameserver's old store.

The nameserver keeps its namespace in a dict (durability is not
modelled), so no run calls this package.  What remains is two
self-contained LSM pieces, each with its own unit tests:

* :mod:`repro.kvstore.memtable` — the in-memory sorted buffer with
  tombstones;
* :mod:`repro.kvstore.sstable` — immutable sorted string tables with an
  embedded sparse index, and the newest-wins merge over them.

They are listed in ``tools/REACHABILITY.txt`` and are due for deletion.
"""

from repro.kvstore.memtable import MemTable
from repro.kvstore.sstable import SSTable, write_sstable

__all__ = ["MemTable", "SSTable", "write_sstable"]
