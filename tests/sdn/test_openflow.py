"""Unit tests for the OpenFlow-style message types."""

import dataclasses

import pytest

from repro.sdn import FlowModAdd, FlowModDelete, FlowRemoved
from repro.sdn.openflow import FlowStatsReply


def test_messages_are_immutable():
    msg = FlowModAdd(switch_id="s1", flow_id="f1", out_link_id="s1->s2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.flow_id = "other"


def test_flow_removed_fields():
    msg = FlowRemoved(flow_id="f", src="a", dst="b", bytes_sent=100.0, duration=2.0)
    assert msg.flow_id == "f"
    assert msg.duration == 2.0


def test_flow_mod_delete_equality():
    a = FlowModDelete(switch_id="s1", flow_id="f1")
    b = FlowModDelete(switch_id="s1", flow_id="f1")
    assert a == b
    assert hash(a) == hash(b)


def test_stats_replies_hold_tuples():
    flow_reply = FlowStatsReply(switch_id="s1", timestamp=1.0, flows=())
    assert flow_reply.flows == ()
