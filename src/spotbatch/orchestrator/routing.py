"""Weighted routing of jobs to regions.

Two modes: ``weighted_random`` draws a region with probability
proportional to its weight from the supplied RNG; ``proportional_roundrobin``
is a deterministic smooth round-robin whose long-run shares equal the
normalized weights exactly (every sum-of-weights picks, for integer
weights).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from ..errors import ValidationError, finite_number

WEIGHTED_RANDOM = "weighted_random"
PROPORTIONAL_ROUNDROBIN = "proportional_roundrobin"
ROUTING_MODES = (WEIGHTED_RANDOM, PROPORTIONAL_ROUNDROBIN)


@dataclass(frozen=True)
class RoutingPolicy:
    weights: Mapping[str, float]
    mode: str = WEIGHTED_RANDOM

    def __post_init__(self):
        if self.mode not in ROUTING_MODES:
            raise ValidationError(f"unknown routing mode {self.mode!r}")
        if not self.weights:
            raise ValidationError("routing policy needs at least one region weight")
        for region, weight in self.weights.items():
            finite_number(f"routing.weights.{region}", weight, 0)
        if not any(w > 0 for w in self.weights.values()):
            raise ValidationError("routing policy needs at least one positive weight")


class Router:
    """Mutable routing state: either an RNG cursor or round-robin credits."""

    def __init__(self, policy: RoutingPolicy, rng: random.Random):
        self.policy = policy
        self.rng = rng
        self._regions = [r for r, w in policy.weights.items() if w > 0]
        self._weights = [policy.weights[r] for r in self._regions]
        self._total = float(sum(self._weights))
        self._credits = [0.0] * len(self._regions)

    def route(self) -> str:
        if self.policy.mode == WEIGHTED_RANDOM:
            x = self.rng.random() * self._total
            acc = 0.0
            for region, weight in zip(self._regions, self._weights):
                acc += weight
                if x < acc:
                    return region
            return self._regions[-1]
        # Smooth weighted round-robin: raise every credit by its weight,
        # pick the largest, then charge it the full weight sum.
        best = 0
        for i in range(len(self._regions)):
            self._credits[i] += self._weights[i]
            if self._credits[i] > self._credits[best]:
                best = i
        self._credits[best] -= self._total
        return self._regions[best]
