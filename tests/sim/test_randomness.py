"""Unit and property tests for named random streams."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(42).stream("arrivals")
    b = RandomStreams(42).stream("arrivals")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(42)
    a = [streams.stream("arrivals").random() for _ in range(5)]
    b = [streams.stream("placement").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("x") is streams.stream("x")


def test_draw_order_does_not_couple_streams():
    """Adding draws to one stream must not shift another stream."""
    fam1 = RandomStreams(7)
    fam1.stream("a").random()  # extra draw on stream a
    seq1 = [fam1.stream("b").random() for _ in range(5)]

    fam2 = RandomStreams(7)
    seq2 = [fam2.stream("b").random() for _ in range(5)]
    assert seq1 == seq2


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_streams_deterministic_property(seed, name):
    s1 = RandomStreams(seed).stream(name)
    s2 = RandomStreams(seed).stream(name)
    assert s1.random() == s2.random()


@given(st.integers(min_value=0, max_value=2**31))
def test_distinct_seeds_give_distinct_draws(seed):
    a = RandomStreams(seed).stream("s").random()
    b = RandomStreams(seed + 1).stream("s").random()
    assert a != b
