from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from spotbatch.errors import ValidationError
from spotbatch.orchestrator.routing import Router, RoutingPolicy

STUDY_WEIGHTS = {
    "us-east-1": 6,
    "us-east-2": 6,
    "us-west-2": 3,
    "ap-southeast-1": 1,
    "ap-northeast-2": 1,
    "eu-west-1": 4,
}


def test_single_region_always_chosen():
    router = Router(RoutingPolicy({"only": 1.0}), random.Random(0))
    assert all(router.route() == "only" for _ in range(50))


def test_all_zero_weights_rejected():
    with pytest.raises(ValidationError):
        RoutingPolicy({"a": 0.0, "b": 0.0})


def test_zero_weight_region_never_chosen():
    router = Router(RoutingPolicy({"a": 1.0, "b": 0.0}), random.Random(1))
    assert all(router.route() == "a" for _ in range(100))


def test_roundrobin_exact_split():
    router = Router(
        RoutingPolicy({"a": 2, "b": 1}, mode="proportional_roundrobin"), random.Random(0)
    )
    counts = Counter(router.route() for _ in range(300))
    assert counts == {"a": 200, "b": 100}


def test_roundrobin_deterministic_sequence():
    policy = RoutingPolicy({"r1": 1, "r2": 1}, mode="proportional_roundrobin")
    router = Router(policy, random.Random(0))
    assert [router.route() for _ in range(5)] == ["r1", "r2", "r1", "r2", "r1"]


def test_roundrobin_long_run_shares():
    policy = RoutingPolicy(STUDY_WEIGHTS, mode="proportional_roundrobin")
    router = Router(policy, random.Random(0))
    n = 21 * 100  # whole cycles of the integer weights
    counts = Counter(router.route() for _ in range(n))
    for region, weight in STUDY_WEIGHTS.items():
        assert counts[region] == n * weight // 21


def test_weighted_random_within_four_sigma():
    router = Router(RoutingPolicy(STUDY_WEIGHTS), random.Random(42))
    n = 10_000
    counts = Counter(router.route() for _ in range(n))
    total_weight = sum(STUDY_WEIGHTS.values())
    for region, weight in STUDY_WEIGHTS.items():
        p = weight / total_weight
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[region] - n * p) <= 4 * sigma, (region, counts[region], n * p)


def test_weighted_random_seed_reproducible():
    a = Router(RoutingPolicy(STUDY_WEIGHTS), random.Random(7))
    b = Router(RoutingPolicy(STUDY_WEIGHTS), random.Random(7))
    assert [a.route() for _ in range(500)] == [b.route() for _ in range(500)]
