"""Unit and property tests for the Zipf sampler."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload.zipf import ZipfSampler


def zipf_probabilities(n, skew):
    sampler = ZipfSampler(n, skew)
    return [sampler.probability(k) for k in range(n)]


def test_probabilities_sum_to_one():
    probs = zipf_probabilities(100, 1.1)
    assert sum(probs) == pytest.approx(1.0)


def test_rank_ordering():
    probs = zipf_probabilities(50, 1.1)
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_skew_zero_is_uniform():
    probs = zipf_probabilities(10, 0.0)
    for p in probs:
        assert p == pytest.approx(0.1)


def test_exact_ratio_between_ranks():
    """P(rank 1) / P(rank 2) = 2^s for Zipf with skew s."""
    sampler = ZipfSampler(100, 1.1)
    ratio = sampler.probability(0) / sampler.probability(1)
    assert ratio == pytest.approx(2 ** 1.1)


def test_sampling_matches_distribution():
    sampler = ZipfSampler(20, 1.1)
    rng = random.Random(7)
    counts = Counter(sampler.sample(rng) for _ in range(20000))
    # head rank should appear roughly with its true probability
    expected = sampler.probability(0)
    observed = counts[0] / 20000
    assert observed == pytest.approx(expected, rel=0.1)
    # and far more often than the tail
    assert counts[0] > counts.get(19, 0) * 5


def test_single_item_catalogue():
    sampler = ZipfSampler(1)
    assert sampler.sample(random.Random(1)) == 0
    assert sampler.probability(0) == pytest.approx(1.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, skew=-1)
    with pytest.raises(IndexError):
        ZipfSampler(10).probability(10)


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0, max_value=3))
def test_property_samples_in_range(n, skew):
    sampler = ZipfSampler(n, skew)
    rng = random.Random(0)
    for _ in range(50):
        assert 0 <= sampler.sample(rng) < n
