"""Total-cost arithmetic: owned nodes versus rented cloud instances.

Covers the recurring per-node overheads of operating an in-house cluster
(rack space, staff, room, management software), the resulting cost of one
microsecond of trajectory on owned hardware, the equivalent cloud cost at
a given hourly rate, and the cost of a complete free-energy difference
(replicas x directions x two simulation legs).

All functions are linear in their rate arguments and inversely linear in
performance arguments; nothing here rounds internally.  Use
``round_currency`` only when rendering report values.  Every rate, runtime,
throughput, cost and utilization must be a finite number in its range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Dict

from .errors import ValidationError, finite_number

DAYS_PER_YEAR = 365.0
NS_PER_MICROSECOND = 1000.0


@dataclass(frozen=True)
class OnPremNodeSpec:
    """An owned compute node: purchase cost, lifetime, energy, size, throughput."""

    hardware_cost: float
    lifetime_years: float
    energy_cost_per_year: float
    rack_u: int
    ns_per_day: float

    def __post_init__(self):
        for name in ("hardware_cost", "lifetime_years", "energy_cost_per_year", "ns_per_day"):
            finite_number(name, getattr(self, name), 0, low_open=True)
        if self.rack_u < 1:
            raise ValidationError("on-prem node: rack_u must be >= 1")


@dataclass(frozen=True)
class OverheadSpec:
    """Recurring yearly costs of operating one node, beyond the node itself."""

    rack_per_u_year: float = 100.0
    staff_per_node_year: float = 200.0
    room_per_node_year: float = 60.0
    mgmt_per_node_year: float = 40.0

    def __post_init__(self):
        for name in ("rack_per_u_year", "staff_per_node_year", "room_per_node_year", "mgmt_per_node_year"):
            finite_number(name, getattr(self, name), 0)


@dataclass(frozen=True)
class CostReportEntry:
    """A labeled cost with its component breakdown; components must sum to the total."""

    label: str
    cost: float
    basis: Dict[str, float] = field(default_factory=dict)
    currency: str = "USD"

    def __post_init__(self):
        if self.basis:
            total = sum(self.basis.values())
            if abs(total - self.cost) > 0.005 + 1e-9 * max(abs(total), abs(self.cost)):
                raise ValidationError(
                    f"report entry {self.label!r}: basis sums to {total}, cost is {self.cost}"
                )


def round_currency(amount: float) -> float:
    """Round half-up to 2 decimals, for report rendering only."""
    return float(Decimal(repr(amount)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def node_overhead_per_year(overheads: OverheadSpec, rack_u: int = 1) -> float:
    """Yearly operating overhead of one node occupying ``rack_u`` rack units."""
    if rack_u < 1:
        raise ValidationError("rack_u must be >= 1")
    return (
        overheads.rack_per_u_year * rack_u
        + overheads.staff_per_node_year
        + overheads.room_per_node_year
        + overheads.mgmt_per_node_year
    )


def _overhead_per_microsecond(
    node: OnPremNodeSpec, overheads: OverheadSpec, base_cost_per_us: float, utilization: float
) -> float:
    """Operating overhead per microsecond of trajectory, before dividing by ``utilization``.

    Also checks the base cost and the utilization, which both on-prem costs use.
    """
    finite_number("base_cost_per_us", base_cost_per_us, 0)
    finite_number("utilization", utilization, 0, 1, low_open=True)
    days_per_us = NS_PER_MICROSECOND / node.ns_per_day
    return days_per_us / DAYS_PER_YEAR * node_overhead_per_year(overheads, node.rack_u)


def onprem_cost_per_microsecond(
    node: OnPremNodeSpec,
    overheads: OverheadSpec,
    base_cost_per_us: float,
    utilization: float = 1.0,
) -> float:
    """Cost of one microsecond of trajectory on an owned node.

    ``base_cost_per_us`` covers the node itself plus energy and cooling;
    the operating overheads are prorated over the days the node needs to
    produce a microsecond.  A utilization below 1 inflates both parts,
    since idle time is paid for either way.
    """
    overhead = _overhead_per_microsecond(node, overheads, base_cost_per_us, utilization)
    return (base_cost_per_us + overhead) / utilization


def make_entry(label: str, basis: Dict[str, float], currency: str = "USD") -> CostReportEntry:
    """Build a report entry whose rounded components sum exactly to its cost."""
    rounded = {k: round_currency(v) for k, v in basis.items()}
    return CostReportEntry(
        label=label, cost=round_currency(sum(rounded.values())), basis=rounded, currency=currency
    )


def onprem_cost_entry(
    node: OnPremNodeSpec,
    overheads: OverheadSpec,
    base_cost_per_us: float,
    utilization: float = 1.0,
    currency: str = "EUR",
) -> CostReportEntry:
    """Same as onprem_cost_per_microsecond, with the breakdown attached."""
    overhead = _overhead_per_microsecond(node, overheads, base_cost_per_us, utilization)
    return make_entry(
        "onprem_per_microsecond",
        {
            "node_and_energy": base_cost_per_us / utilization,
            "operating_overhead": overhead / utilization,
        },
        currency=currency,
    )


def cloud_cost_per_microsecond(rate_per_hour: float, ns_per_day: float) -> float:
    """Cost of one microsecond of trajectory on an instance billed hourly."""
    finite_number("rate_per_hour", rate_per_hour, 0, low_open=True)
    finite_number("ns_per_day", ns_per_day, 0, low_open=True)
    return NS_PER_MICROSECOND / ns_per_day * 24.0 * rate_per_hour


def cost_per_fe(
    complex_runtime_h: float,
    complex_rate: float,
    ligand_runtime_h: float,
    ligand_rate: float,
    replicas: int = 3,
    directions: int = 2,
) -> float:
    """Cost of one free-energy difference.

    Each difference needs ``replicas * directions`` runs of the solvated
    protein-ligand complex plus the same number of ligand-in-water runs.
    """
    if replicas < 1 or directions < 1:
        raise ValidationError("replicas and directions must be >= 1")
    finite_number("complex_runtime_h", complex_runtime_h, 0)
    finite_number("complex_rate", complex_rate, 0)
    finite_number("ligand_runtime_h", ligand_runtime_h, 0)
    finite_number("ligand_rate", ligand_rate, 0)
    per_run = complex_runtime_h * complex_rate + ligand_runtime_h * ligand_rate
    return replicas * directions * per_run
