"""Unit tests for the OpenFlow-style message types."""

import dataclasses

import pytest

from repro.sdn import FlowRemoved
from repro.sdn.openflow import FlowStatsReply


def test_messages_are_immutable():
    msg = FlowRemoved(flow_id="f1", src="a", dst="b", bytes_sent=1.0, duration=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.flow_id = "other"


def test_flow_removed_fields():
    msg = FlowRemoved(flow_id="f", src="a", dst="b", bytes_sent=100.0, duration=2.0)
    assert msg.flow_id == "f"
    assert msg.duration == 2.0


def test_stats_replies_hold_tuples():
    flow_reply = FlowStatsReply(switch_id="s1", timestamp=1.0, flows=())
    assert flow_reply.flows == ()
