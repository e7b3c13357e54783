"""Instance catalog: hardware specs, regions, and pricing.

A catalog describes which instance types can be rented, in which regions,
and at what rate under each of the three payment models (on-demand, Spot,
reserved-with-upfront).  Spot pricing is modeled as a fixed fraction of the
on-demand rate; availability zones are collapsed into regions.  All rates
are kept in dollars internally; ``currency_per_dollar`` is only applied
when rendering reports.

Catalogs are immutable after load and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import MissingRecordError, ParseError, ValidationError
from .jsonfile import read_json

ON_DEMAND = "on_demand"
SPOT = "spot"
RESERVED_UPFRONT = "reserved_upfront"
PAYMENT_MODELS = (ON_DEMAND, SPOT, RESERVED_UPFRONT)

DEFAULT_SPOT_FRACTION = 0.30
DEFAULT_CURRENCY_PER_DOLLAR = 1.20


@dataclass(frozen=True)
class InstanceTypeSpec:
    """Hardware and network descriptor for one rentable instance type."""

    name: str
    vcpus: int
    gpus: int = 0
    gpu_model: Optional[str] = None
    clock_ghz: float = 0.0
    network_gbps: float = 10.0
    efa: bool = False
    family: str = ""

    def __post_init__(self):
        if self.vcpus < 1:
            raise ValidationError(f"instance {self.name}: vcpus must be >= 1")
        if self.gpus < 0:
            raise ValidationError(f"instance {self.name}: gpus must be >= 0")
        if self.network_gbps <= 0:
            raise ValidationError(f"instance {self.name}: network_gbps must be > 0")
        if not self.family:
            object.__setattr__(self, "family", self.name.split(".", 1)[0])


@dataclass(frozen=True)
class PriceEntry:
    """Hourly pricing for one (instance, region) pair.

    The effective Spot rate is ``on_demand_per_hour * spot_fraction``;
    ``reserved_upfront_per_hour`` is optional because only some types were
    ever quoted with an upfront-reserved rate.
    """

    instance: str
    region: str
    on_demand_per_hour: float
    spot_fraction: float = DEFAULT_SPOT_FRACTION
    reserved_upfront_per_hour: Optional[float] = None

    def __post_init__(self):
        where = f"price ({self.instance}, {self.region})"
        if self.on_demand_per_hour <= 0:
            raise ValidationError(f"{where}: on_demand_per_hour must be > 0")
        if not 0 < self.spot_fraction <= 1:
            raise ValidationError(f"{where}: spot_fraction must be in (0, 1]")
        if self.reserved_upfront_per_hour is not None and self.reserved_upfront_per_hour <= 0:
            raise ValidationError(f"{where}: reserved_upfront_per_hour must be > 0")


@dataclass(frozen=True)
class RegionSpec:
    """One geographic region with per-family Spot pool capacities.

    ``spot_pool`` maps an instance family (e.g. ``"g4dn"``) to the maximum
    number of simultaneously acquirable instances of that family; the key
    ``"*"`` provides a default for families not listed explicitly.
    """

    name: str
    spot_pool: Mapping[str, int] = field(default_factory=dict)
    weight: Optional[float] = None

    def __post_init__(self):
        for family, cap in self.spot_pool.items():
            if cap < 0:
                raise ValidationError(f"region {self.name}: pool capacity for {family!r} must be >= 0")
        if self.weight is not None and self.weight < 0:
            raise ValidationError(f"region {self.name}: weight must be >= 0")

    def pool_capacity(self, family: str) -> int:
        if family in self.spot_pool:
            return self.spot_pool[family]
        return self.spot_pool.get("*", 0)


@dataclass(frozen=True)
class Catalog:
    """Immutable container for instance types, regions, and prices."""

    instances: Mapping[str, InstanceTypeSpec]
    regions: Mapping[str, RegionSpec]
    prices: Mapping[tuple, PriceEntry]
    currency_per_dollar: float = DEFAULT_CURRENCY_PER_DOLLAR

    def instance(self, name: str) -> InstanceTypeSpec:
        try:
            return self.instances[name]
        except KeyError:
            raise MissingRecordError(f"unknown instance type {name!r}") from None

    def region(self, name: str) -> RegionSpec:
        try:
            return self.regions[name]
        except KeyError:
            raise MissingRecordError(f"unknown region {name!r}") from None

    def price(self, instance: str, region: str) -> PriceEntry:
        try:
            return self.prices[(instance, region)]
        except KeyError:
            raise MissingRecordError(f"no price entry for ({instance}, {region})") from None

    def has_price(self, instance: str, region: str) -> bool:
        return (instance, region) in self.prices


def lookup_rate(catalog: Catalog, instance: str, region: str, model: str) -> float:
    """Return the hourly rate for an instance in a region under a payment model.

    Raises MissingRecordError when no price entry exists, or when the
    reserved rate is requested but was never quoted for the entry.
    """
    entry = catalog.price(instance, region)
    if model == ON_DEMAND:
        return entry.on_demand_per_hour
    if model == SPOT:
        return entry.on_demand_per_hour * entry.spot_fraction
    if model == RESERVED_UPFRONT:
        if entry.reserved_upfront_per_hour is None:
            raise MissingRecordError(f"no reserved rate quoted for ({instance}, {region})")
        return entry.reserved_upfront_per_hour
    raise ValueError(f"unknown payment model {model!r}; expected one of {PAYMENT_MODELS}")


def validate_catalog_dict(data: dict) -> list:
    """Collect every invariant violation in a parsed catalog document.

    Returns a list of human-readable problem strings (empty when valid).
    Unlike build_catalog, which stops at the first violation, this checks
    each instance, region, and price entry independently so the CLI
    ``validate`` command can report all problems at once.
    """
    problems = []
    if not isinstance(data, dict):
        return ["catalog document must be a JSON object"]
    for key in ("instances", "regions", "prices"):
        if key not in data:
            problems.append(f"catalog document is missing the {key!r} key")
    if problems:
        return problems

    instance_names = set()
    for i, raw in enumerate(data["instances"]):
        try:
            spec = InstanceTypeSpec(
                name=raw["name"],
                vcpus=int(raw["vcpus"]),
                gpus=int(raw.get("gpus", 0)),
                network_gbps=float(raw.get("network_gbps", 10.0)),
            )
            if spec.name in instance_names:
                problems.append(f"instances[{i}]: duplicate instance name {spec.name!r}")
            instance_names.add(spec.name)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"instances[{i}]: {exc}")

    region_names = set()
    for i, raw in enumerate(data["regions"]):
        try:
            spec = RegionSpec(
                name=raw["name"],
                spot_pool={str(k): int(v) for k, v in raw.get("spot_pool", {}).items()},
                weight=raw.get("weight"),
            )
            if spec.name in region_names:
                problems.append(f"regions[{i}]: duplicate region name {spec.name!r}")
            region_names.add(spec.name)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"regions[{i}]: {exc}")
    if not region_names:
        problems.append("catalog must declare at least one region")

    price_keys = set()
    for i, raw in enumerate(data["prices"]):
        try:
            entry = PriceEntry(
                instance=raw["instance"],
                region=raw["region"],
                on_demand_per_hour=float(raw["on_demand_per_hour"]),
                spot_fraction=float(raw.get("spot_fraction", DEFAULT_SPOT_FRACTION)),
                reserved_upfront_per_hour=(
                    float(raw["reserved_upfront_per_hour"])
                    if raw.get("reserved_upfront_per_hour") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"prices[{i}]: {exc}")
            continue
        where = f"prices[{i}] ({entry.instance}, {entry.region})"
        if entry.instance not in instance_names:
            problems.append(f"{where}: references unknown instance {entry.instance!r}")
        if entry.region not in region_names:
            problems.append(f"{where}: references unknown region {entry.region!r}")
        key = (entry.instance, entry.region)
        if key in price_keys:
            problems.append(f"{where}: duplicate price entry")
        price_keys.add(key)
    return problems


def build_catalog(data: dict) -> Catalog:
    """Construct and validate a Catalog from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ParseError("catalog document must be a JSON object")
    for key in ("instances", "regions", "prices"):
        if key not in data:
            raise ParseError(f"catalog document is missing the {key!r} key")

    instances = {}
    for raw in data["instances"]:
        spec = InstanceTypeSpec(
            name=raw["name"],
            vcpus=int(raw["vcpus"]),
            gpus=int(raw.get("gpus", 0)),
            gpu_model=raw.get("gpu_model"),
            clock_ghz=float(raw.get("clock_ghz", 0.0)),
            network_gbps=float(raw.get("network_gbps", 10.0)),
            efa=bool(raw.get("efa", False)),
            family=raw.get("family", ""),
        )
        if spec.name in instances:
            raise ValidationError(f"duplicate instance name {spec.name!r}")
        instances[spec.name] = spec

    regions = {}
    for raw in data["regions"]:
        spec = RegionSpec(
            name=raw["name"],
            spot_pool={str(k): int(v) for k, v in raw.get("spot_pool", {}).items()},
            weight=raw.get("weight"),
        )
        if spec.name in regions:
            raise ValidationError(f"duplicate region name {spec.name!r}")
        regions[spec.name] = spec
    if not regions:
        raise ValidationError("catalog must declare at least one region")

    prices = {}
    for raw in data["prices"]:
        entry = PriceEntry(
            instance=raw["instance"],
            region=raw["region"],
            on_demand_per_hour=float(raw["on_demand_per_hour"]),
            spot_fraction=float(raw.get("spot_fraction", DEFAULT_SPOT_FRACTION)),
            reserved_upfront_per_hour=(
                float(raw["reserved_upfront_per_hour"])
                if raw.get("reserved_upfront_per_hour") is not None
                else None
            ),
        )
        if entry.instance not in instances:
            raise ValidationError(
                f"price ({entry.instance}, {entry.region}) references unknown instance {entry.instance!r}"
            )
        if entry.region not in regions:
            raise ValidationError(
                f"price ({entry.instance}, {entry.region}) references unknown region {entry.region!r}"
            )
        key = (entry.instance, entry.region)
        if key in prices:
            raise ValidationError(f"duplicate price entry for {key}")
        prices[key] = entry

    return Catalog(
        instances=instances,
        regions=regions,
        prices=prices,
        currency_per_dollar=float(data.get("currency_per_dollar", DEFAULT_CURRENCY_PER_DOLLAR)),
    )


def load_catalog(path) -> Catalog:
    """Load and validate a catalog JSON file."""
    return build_catalog(read_json(path))
