"""Unit tests for the shared exponential-backoff curve.

The supervisor's restart delays follow this curve, so these tests pin
the deterministic core, the hard cap, and the seeded-jitter contract
that the chaos suite relies on for reproducible schedules.
"""

from __future__ import annotations

import random

import pytest

from repro.parallel import expo_backoff


def test_deterministic_doubling_until_cap():
    delays = [expo_backoff(0.05, 2.0, attempt) for attempt in range(1, 9)]
    assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]


def test_cap_is_a_hard_ceiling_even_with_jitter():
    rng = random.Random(1)
    for attempt in range(1, 80):
        delay = expo_backoff(0.05, 2.0, attempt, jitter=1.0, rng=rng)
        assert 0.0 <= delay <= 2.0


def test_huge_attempt_does_not_overflow():
    assert expo_backoff(0.05, 2.0, 10_000_000) == 2.0


def test_seeded_rng_reproduces_the_schedule():
    first = [expo_backoff(0.1, 5.0, a, jitter=0.25, rng=random.Random(42))
             for a in range(1, 6)]
    second = [expo_backoff(0.1, 5.0, a, jitter=0.25, rng=random.Random(42))
              for a in range(1, 6)]
    assert first == second


def test_jitter_spreads_within_the_symmetric_band():
    rng = random.Random(7)
    base_delay = expo_backoff(0.2, 10.0, 3)  # 0.8, uncapped
    draws = [expo_backoff(0.2, 10.0, 3, jitter=0.5, rng=rng)
             for _ in range(200)]
    assert all(0.4 <= d <= 1.2 for d in draws)
    assert min(draws) < base_delay < max(draws)


def test_zero_jitter_never_touches_the_rng():
    class Exploding(random.Random):
        def random(self):  # pragma: no cover - defensive
            raise AssertionError("rng consulted without jitter")

    assert expo_backoff(0.05, 2.0, 3, rng=Exploding()) == 0.2


@pytest.mark.parametrize("attempt", [0, -1])
def test_attempt_is_one_based(attempt):
    with pytest.raises(ValueError):
        expo_backoff(0.05, 2.0, attempt)


@pytest.mark.parametrize("jitter", [-0.1, 1.5])
def test_jitter_fraction_validated(jitter):
    with pytest.raises(ValueError):
        expo_backoff(0.05, 2.0, 1, jitter=jitter)


def test_negative_base_or_cap_rejected():
    with pytest.raises(ValueError):
        expo_backoff(-0.05, 2.0, 1)
    with pytest.raises(ValueError):
        expo_backoff(0.05, -2.0, 1)
