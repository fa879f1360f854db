"""Full-stack concurrency stress: many clients, mixed operations."""

import random

from repro.cluster import Cluster, ClusterConfig
from repro.sim import Delay

MB = 1024 * 1024


def test_mixed_operations_under_concurrency():
    """Interleaved creates, appends, reads, moves and deletes from many
    clients leave the filesystem consistent: every surviving file's
    replicas agree byte-for-byte and match the nameserver's size."""
    cluster = Cluster(
        ClusterConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=2,
            scheme="mayflower", store_payload=True,
            seed=23,
        )
    )
    hosts = sorted(cluster.topology.hosts)
    rng = random.Random(99)
    errors = []

    def writer_client(index, host):
        client = cluster.client(host)
        name = f"file-{index}"
        body = bytes([index]) * (256 * 1024)
        try:
            yield from client.create(name, chunk_bytes=1 * MB)
            for _ in range(rng.randrange(1, 4)):
                yield from client.append(name, len(body), body)
                yield Delay(rng.uniform(0, 0.5))
            if rng.random() < 0.3:
                yield from client.move(name, f"renamed-{index}")
                name = f"renamed-{index}"
            if rng.random() < 0.2:
                yield from client.delete(name)
        except Exception as err:  # noqa: BLE001 - surfaced at the end
            errors.append((name, err))

    def reader_client(host, names):
        client = cluster.client(host)
        from repro.rpc.errors import RemoteInvocationError
        from repro.fs.errors import FsError

        for name in names:
            try:
                result = yield from client.read(name)
                assert len(result.data) == result.length
            except (RemoteInvocationError, FsError):
                pass  # racing a delete/move is legitimate
            yield Delay(rng.uniform(0, 0.3))

    procs = []
    for i, host in enumerate(hosts):
        procs.append(cluster.spawn(writer_client(i, host), name=f"writer{i}"))
    cluster.loop.run(until=2.0)
    names = cluster.nameserver.list_files()
    for host in hosts[:4]:
        procs.append(cluster.spawn(reader_client(host, list(names))))
    cluster.loop.run()

    assert errors == []
    for proc in procs:
        assert proc.exception is None, proc.exception

    # Consistency audit: replicas agree with each other and the namespace.
    for name in cluster.nameserver.list_files():
        meta = cluster.nameserver.lookup(name)
        sizes = set()
        bodies = set()
        for replica in meta["replicas"]:
            ds = cluster.dataservers[replica]
            sizes.add(ds.file_size(meta["file_id"]))
            bodies.add(bytes(ds._files[meta["file_id"]].payload))
        assert len(sizes) == 1
        assert len(bodies) == 1
        assert sizes.pop() == meta["size_bytes"]
    cluster.shutdown()
