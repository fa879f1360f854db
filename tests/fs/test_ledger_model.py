"""Model-based check of the per-file append ledger.

The specification is :class:`LedgerModel`: one file's ledger as a plain
sequential list of ``(append_id, offset, length)``.  A hypothesis state
machine drives a default-config :class:`Cluster` with batches of
*concurrent* operations — whole client appends from several clients,
mixed with the duplicates a retrying or misbehaving client can inject
(repeat ``commit_append``, repeat ``push_data``, commit-without-push,
push-without-commit, late commit of an earlier push) — each started at a
random offset inside the batch so they interleave differently every
example.

Concurrent appends have no order until the primary gives them one, so a
batch is linearized by the sizes the primary returned, replayed through
the model in that order, and every reply is checked against the model's.
After every batch each replica's ``append_ledger()`` must *be* the
model's ledger: same ids, same order, same offsets, each acknowledged
append exactly once, sizes agreeing with the nameserver.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import Cluster, ClusterConfig
from repro.core.fanout import static_chain_plan
from repro.fs.errors import InvalidRequestError
from repro.rpc.errors import RemoteInvocationError
from repro.sim.process import Delay

FILE = "/model/file"


class LedgerModel:
    """Sequential reference: what one file's ledger must look like."""

    def __init__(self):
        self.entries = []  # [(append_id, offset, length)], ledger order
        self.acked = {}  # append_id -> file size its commit returned
        self.staged = {}  # append_id -> length pushed, not yet committed

    @property
    def size(self):
        return sum(length for _, _, length in self.entries)

    def push(self, append_id, length):
        if append_id not in self.acked:
            self.staged[append_id] = length

    def commit(self, append_id):
        """The size a commit of ``append_id`` returns; ``None`` = rejected."""
        if append_id in self.acked:
            return self.acked[append_id]
        length = self.staged.pop(append_id, None)
        if length is None:
            return None
        self.entries.append((append_id, self.size, length))
        self.acked[append_id] = self.size
        return self.size


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(ClusterConfig())
        hosts = sorted(self.cluster.topology.hosts)
        # two clients share a host: their append ids must still differ
        self.clients = [
            self.cluster.client(h) for h in (hosts[5], hosts[5], hosts[40])
        ]
        self.issued = [0] * len(self.clients)  # appends started, per client
        self.raw_ids = 0
        self.model = LedgerModel()
        self.meta = self.cluster.run(self.clients[0].create(FILE, replication=3))

    def teardown(self):
        self.cluster.shutdown()

    # -- the operations a batch is made of ------------------------------

    def _raw(self, method, append_id, *args):
        writer = self.clients[0].host_id
        return self.cluster.fabric.invoke(
            writer, self.meta.primary, "dataserver", method,
            self.meta.file_id, append_id, *args,
        )

    def _push(self, append_id, length):
        return self._raw("push_data", append_id, length, self.clients[0].host_id)

    def _commit(self, append_id):
        writer = self.clients[0].host_id
        plan = static_chain_plan(writer, self.meta.primary, self.meta.replicas[1:])
        return self._raw("commit_append", append_id, writer, plan.children)

    def _op(self, kind, arg, length):
        """(generator to run, model transition returning the expected reply)."""
        model = self.model
        if kind == "append":
            index = arg % len(self.clients)
            client = self.clients[index]
            append_id = f"{client._append_prefix}:{self.issued[index]}"
            self.issued[index] += 1

            def expect():
                model.push(append_id, length)
                return model.commit(append_id)

            return client.append(FILE, length), expect
        if kind in ("dup_commit", "dup_push") and model.acked:
            append_id = sorted(model.acked)[arg % len(model.acked)]
            if kind == "dup_commit":
                return self._commit(append_id), lambda: model.commit(append_id)
            # a repeated push of a committed append stages nothing
            return self._push(append_id, length), lambda: "ignored"
        if kind == "late_commit" and model.staged:
            append_id = sorted(model.staged)[arg % len(model.staged)]
            return self._commit(append_id), lambda: model.commit(append_id)
        self.raw_ids += 1
        append_id = f"ap:raw:{self.raw_ids}"
        if kind == "push_only":
            def expect():
                model.push(append_id, length)
                return "ignored"

            return self._push(append_id, length), expect
        # commit_without_push (and dup/late ops with nothing to aim at)
        return self._commit(append_id), lambda: model.commit(append_id)

    @rule(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["append", "append", "append", "dup_commit", "dup_push",
                     "late_commit", "push_only", "commit_without_push"]
                ),
                st.integers(0, 5),  # which client / which earlier append
                st.integers(1, 3 * 1024 * 1024),  # bytes
                st.integers(0, 40),  # start offset within the batch, ms
            ),
            min_size=1, max_size=6,
        )
    )
    def concurrent_batch(self, ops):
        replies = {}

        def run_one(slot, delay_ms, body):
            yield Delay(delay_ms / 1000.0)
            try:
                replies[slot] = yield from body
            except RemoteInvocationError as err:
                assert isinstance(err.remote_error, InvalidRequestError), err
                replies[slot] = None

        # In start order, because a client numbers its appends as they start.
        ops = sorted(ops, key=lambda op: op[3])
        expectations = []
        for slot, (kind, arg, length, delay_ms) in enumerate(ops):
            body, expect = self._op(kind, arg, length)
            expectations.append((kind, expect))
            self.cluster.spawn(run_one(slot, delay_ms, body))
        self.cluster.run_loop()
        assert sorted(replies) == list(range(len(ops))), "an operation hung"

        # Linearize: commits that can add an entry go in the order the
        # primary sized them; the rest do not depend on this batch's order.
        order = sorted(
            range(len(ops)),
            key=lambda s: (
                expectations[s][0] not in ("append", "late_commit"),
                replies[s] or 0,
                s,
            ),
        )
        for slot in order:
            expected = expectations[slot][1]()
            if expected != "ignored":
                assert replies[slot] == expected, (ops[slot], replies[slot])

    @invariant()
    def every_replica_holds_the_model_ledger(self):
        for replica in self.meta.replicas:
            ledger = self.cluster.dataservers[replica].append_ledger(
                self.meta.file_id
            )
            assert [
                (e.append_id, e.offset, e.length) for e in ledger
            ] == self.model.entries, replica
            assert self.cluster.dataservers[replica].file_size(
                self.meta.file_id
            ) == self.model.size

    @invariant()
    def nameserver_agrees_on_size(self):
        assert self.cluster.nameserver.lookup(FILE)["size_bytes"] == self.model.size

    @invariant()
    def only_uncommitted_pushes_stay_staged(self):
        primary = self.cluster.dataservers[self.meta.primary]
        staged = primary._files[self.meta.file_id].staged
        assert {k: v[0] for k, v in staged.items()} == self.model.staged


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=10, deadline=None
)
TestLedgerAgainstModel = LedgerMachine.TestCase


def test_duplicate_commit_racing_its_original_returns_the_recorded_size():
    """The falsifying example hypothesis used to find about one fresh run
    in six, as an explicit rule sequence: the second commit of one append
    id arrives while the first is still relaying, waits on the append
    lock, and must then return the size the first one recorded — not the
    file's current size — without acknowledging the append again.
    """
    machine = LedgerMachine()
    try:
        machine.concurrent_batch([("push_only", 0, 1, 0)])  # stages ap:raw:1
        machine.concurrent_batch([
            ("append", 0, 1, 0),
            ("late_commit", 0, 1, 0),  # commit_append(ap:raw:1) ...
            ("late_commit", 0, 1, 3),  # ... and again 3 ms later
        ])
        machine.every_replica_holds_the_model_ledger()
        machine.nameserver_agrees_on_size()
        machine.only_uncommitted_pushes_stay_staged()
        primary = machine.cluster.dataservers[machine.meta.primary]
        stored = primary._files[machine.meta.file_id]
        assert stored.acked_ids == machine.model.acked
        assert primary.appends_served == 2  # two appends, one duplicate
        assert primary.appends_deduplicated == 1
    finally:
        machine.teardown()
