"""Byte-level pins of the paper's behaviour.

Each pin digests a reduced-scale run of the default configuration.  A
pin that moves means the default behaviour changed: that is a
regression to find, not a digest to update.
"""

import hashlib

from repro.cluster import Cluster, ClusterConfig, run_cluster_workload
from repro.experiments import figures

# Pinned on the monolithic tree immediately before the sharding refactor
# (verified bit-identical against that HEAD).  If either digest moves,
# the default configuration's behaviour changed — that is a regression,
# not a test to update.
FIG4_FINGERPRINT = (
    "6e09064b5e4616ca0774c494b632766ae3d99462c92e4f78d8a8f89305afa668"
)
FIG8_FINGERPRINT = (
    "7c4d84a31dcd8f1c3c18b11e6450f56a54ec085c51041b01e96d1056ff956d04"
)
# Pinned on the single-server nameserver: the default deployment's
# metadata and append timeline, which FIG8 (reads of pre-loaded files)
# does not exercise.
METADATA_FINGERPRINT = (
    "7a0ca0db19f7b4ae1d5069208c5d6ca39b783d2125dc1e7c928bc773891207de"
)

MB = 1024 * 1024


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_fig4_fingerprint_is_bit_identical_to_monolithic():
    fig4 = figures.figure4(seed=3, num_jobs=25, num_files=12)
    payload = {s: fig4["schemes"][s]["raw"] for s in sorted(fig4["schemes"])}
    assert _digest(sorted(payload.items())) == FIG4_FINGERPRINT


def test_fig8_fingerprint_is_bit_identical_to_monolithic():
    durations = run_cluster_workload(
        "mayflower", num_jobs=15, num_files=8, seed=6
    )
    assert _digest(durations) == FIG8_FINGERPRINT


def test_default_cluster_metadata_timeline_is_pinned():
    """Two clients on the 64-host default cluster each run create → two
    appends → stat → move → read → delete, concurrently.  Every step's
    (op, sim end time, file id, size), plus the RPCs sent, is pinned."""
    cluster = Cluster(ClusterConfig())
    hosts = sorted(cluster.topology.hosts)
    assert len(hosts) == 64
    events = []

    def note(op, file_id, size):
        events.append((op, cluster.loop.now, file_id, size))

    def session(host, tag):
        client = cluster.client(host)
        name, moved_name = f"/pin/{tag}", f"/pin/{tag}.moved"
        meta = yield from client.create(name)
        note("create", meta.file_id, meta.size_bytes)
        for size in (3 * MB, 5 * MB):
            note("append", meta.file_id, (yield from client.append(name, size)))
        fresh = yield from client.stat(name)
        note("stat", fresh.file_id, fresh.size_bytes)
        moved = yield from client.move(name, moved_name)
        note("move", moved.file_id, moved.size_bytes)
        result = yield from client.read(moved_name)
        note("read", meta.file_id, result.file_size)
        gone = yield from client.delete(moved_name)
        note("delete", gone.file_id, gone.size_bytes)

    cluster.spawn(session(hosts[5], "a"), name="pin-a")
    cluster.spawn(session(hosts[42], "b"), name="pin-b")
    cluster.run_loop()
    cluster.shutdown()
    assert len(events) == 14
    assert _digest((events, cluster.fabric.calls_sent)) == METADATA_FINGERPRINT
    # Events per metadata op are pinned on their own: a change that cuts
    # them must declare it here even when the timeline does not move.
    # 302 → 201 when a reply began resuming its caller in place and a
    # process spawned inside a step began starting at once.
    assert cluster.loop.events_processed == 201
