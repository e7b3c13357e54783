"""Spot-capacity reclaim model.

Preemption is a per-instance Poisson process with a hazard rate per
instance-hour that may vary by (region, instance family).  Rates default
to zero (deterministic runs); measured reclaim statistics are not public,
so any nonzero rate is a scenario assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ValidationError, finite_number


@dataclass(frozen=True)
class PreemptionModel:
    """Hazard lookup keyed by ``"region/family"`` with ``*`` wildcards.

    Resolution order: exact ``region/family``, then ``region/*``, then
    ``*/family``, then ``*/*``, else 0.
    """

    rates_per_instance_hour: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for key, rate in self.rates_per_instance_hour.items():
            finite_number(f"preemption_hazards.{key}", rate, 0)
            if key.count("/") != 1:
                raise ValidationError(f"preemption hazard key {key!r} must look like 'region/family'")

    def hazard(self, region: str, family: str) -> float:
        rates = self.rates_per_instance_hour
        for key in (f"{region}/{family}", f"{region}/*", f"*/{family}", "*/*"):
            if key in rates:
                return rates[key]
        return 0.0

    def draw_seconds_until_preemption(self, rng: random.Random, region: str, family: str):
        """Exponential draw in seconds, or None when the hazard is zero."""
        rate = self.hazard(region, family)
        if rate <= 0:
            return None
        return rng.expovariate(rate) * 3600.0
