"""Instance catalog: hardware specs, regions, and pricing.

A catalog describes which instance types can be rented, in which regions,
and at what rate under each of the three payment models (on-demand, Spot,
reserved-with-upfront).  Spot pricing is modeled as a fixed fraction of the
on-demand rate; availability zones are collapsed into regions.  All rates
are in dollars.

``Catalog.hourly_rates`` gives one table per (region, payment model): the
hourly rate of every instance priced in the region, in catalog order.  It
is the one place the payment-model arithmetic is written; ``lookup_rate``,
``recommend`` and ``spotbatch bench`` read it.  Each table is made on first
use and kept on its catalog, so a query reads one prepared table rather
than one price entry per instance.  Catalogs are immutable after load
apart from those kept tables, which are made from the immutable entries
and never changed, so a catalog stays safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .errors import MissingRecordError, ParseError, ValidationError, finite_number
from .jsonfile import Keys, load, number, numbers, shaped, within

ON_DEMAND = "on_demand"
SPOT = "spot"
RESERVED_UPFRONT = "reserved_upfront"
PAYMENT_MODELS = (ON_DEMAND, SPOT, RESERVED_UPFRONT)

DEFAULT_SPOT_FRACTION = 0.30


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
        finite_number("vcpus", self.vcpus, 1)
        finite_number("gpus", self.gpus, 0)
        finite_number("clock_ghz", self.clock_ghz, 0)
        finite_number("network_gbps", self.network_gbps, 0, low_open=True)
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
        finite_number("on_demand_per_hour", self.on_demand_per_hour, 0, low_open=True)
        finite_number("spot_fraction", self.spot_fraction, 0, 1, low_open=True)
        if self.reserved_upfront_per_hour is not None:
            finite_number("reserved_upfront_per_hour", self.reserved_upfront_per_hour, 0, low_open=True)


@dataclass(frozen=True)
class RegionSpec:
    """One geographic region with per-family Spot pool capacities.

    ``spot_pool`` maps an instance family (e.g. ``"g4dn"``) to the maximum
    number of simultaneously acquirable instances of that family; the key
    ``"*"`` provides a default for families not listed explicitly.
    """

    name: str
    spot_pool: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for family, cap in self.spot_pool.items():
            finite_number(f"spot_pool.{family}", cap, 0)

    def pool_capacity(self, family: str) -> int:
        if family in self.spot_pool:
            return self.spot_pool[family]
        return self.spot_pool.get("*", 0)


# Each payment model's hourly rate from a price entry; None where it was never quoted.
_RATE = {
    ON_DEMAND: lambda entry: entry.on_demand_per_hour,
    SPOT: lambda entry: entry.on_demand_per_hour * entry.spot_fraction,
    RESERVED_UPFRONT: lambda entry: entry.reserved_upfront_per_hour,
}


@dataclass(frozen=True)
class Catalog:
    """Immutable container for instance types, regions, and prices."""

    instances: Mapping[str, InstanceTypeSpec]
    regions: Mapping[str, RegionSpec]
    prices: Mapping[tuple, PriceEntry]
    # Per (region, payment model): the table hourly_rates has made.
    _rates: Dict[Tuple[str, str], Dict[str, Optional[float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def hourly_rates(self, region: str, payment: str) -> Dict[str, Optional[float]]:
        """Hourly rate under ``payment`` of every instance priced in ``region``, in catalog order.

        The rate is None where the reserved rate was never quoted; a region
        with no price entry gives an empty table.  An unknown payment model
        raises ValueError.  The table is made the first time (region,
        payment) is asked for, and every later call returns the same dict,
        so callers must not change it.
        """
        key = (region, payment)
        table = self._rates.get(key)
        if table is None:
            rate = _RATE.get(payment)
            if rate is None:
                raise ValueError(f"unknown payment model {payment!r}; expected one of {PAYMENT_MODELS}")
            prices = self.prices
            table = {name: rate(prices[(name, region)]) for name in self.instances if (name, region) in prices}
            table = self._rates.setdefault(key, table)
        return table


def lookup_rate(catalog: Catalog, instance: str, region: str, model: str) -> float:
    """Return the hourly rate for an instance in a region under a payment model.

    Raises MissingRecordError when no price entry exists, or when the
    reserved rate is requested but was never quoted for the entry, and
    ValueError for an unknown payment model.
    """
    rate = catalog.hourly_rates(region, model).get(instance)
    if rate is None:
        catalog.price(instance, region)  # raises when there is no entry at all
        raise MissingRecordError(f"no reserved rate quoted for ({instance}, {region})")
    return rate


def _instance(raw: dict) -> InstanceTypeSpec:
    gpu_model = raw.get("gpu_model")
    return InstanceTypeSpec(
        name=shaped(raw["name"], str, "name"),
        vcpus=number("vcpus", raw["vcpus"], whole=True),
        gpus=number("gpus", raw.get("gpus", 0), whole=True),
        gpu_model=None if gpu_model is None else shaped(gpu_model, str, "gpu_model"),
        clock_ghz=number("clock_ghz", raw.get("clock_ghz", 0.0)),
        network_gbps=number("network_gbps", raw.get("network_gbps", 10.0)),
        efa=shaped(raw.get("efa", False), bool, "efa"),
        family=shaped(raw.get("family", ""), str, "family"),
    )


def _region(raw: dict) -> RegionSpec:
    return RegionSpec(
        name=shaped(raw["name"], str, "name"),
        spot_pool=numbers(raw.get("spot_pool", {}), "spot_pool", whole=True),
    )


def _price(raw: dict) -> PriceEntry:
    reserved = raw.get("reserved_upfront_per_hour")
    return PriceEntry(
        instance=shaped(raw["instance"], str, "instance"),
        region=shaped(raw["region"], str, "region"),
        on_demand_per_hour=number("on_demand_per_hour", raw["on_demand_per_hour"]),
        spot_fraction=number("spot_fraction", raw.get("spot_fraction", DEFAULT_SPOT_FRACTION)),
        reserved_upfront_per_hour=None if reserved is None else number("reserved_upfront_per_hour", reserved),
    )


# The keys each kind of catalog entry must hold, and those it may hold.
_INSTANCE_KEYS = (("name", "vcpus"), ("gpus", "gpu_model", "clock_ghz", "network_gbps", "efa", "family"))
_REGION_KEYS = (("name",), ("spot_pool",))
_PRICE_KEYS = (("instance", "region", "on_demand_per_hour"), ("spot_fraction", "reserved_upfront_per_hour"))


def _each(data: dict, key: str, keys: Tuple[Keys, Keys], parse, problems: List[str]):
    """``(key[i], parse(entry))`` per entry under ``key`` that parses; the rest add their problem to ``problems``.

    ``keys`` is the (required, optional) pair of keys an entry may hold.
    """
    for i, raw in enumerate(shaped(data[key], list, key)):
        where = f"{key}[{i}]"
        try:
            item = within(where, parse, shaped(raw, dict, where, *keys))
        except (ParseError, ValidationError) as exc:
            problems.append(str(exc))
        else:
            yield where, item


def _names(data: dict, key: str) -> Set[str]:
    """The names the entries under ``key`` declare, whether or not each entry parses."""
    return {raw["name"] for raw in data[key] if isinstance(raw, dict) and isinstance(raw.get("name"), str)}


def build_catalog(data) -> Catalog:
    """Construct a Catalog from a parsed JSON document, checking every entry.

    A document that is not an object, lacks ``instances``, ``regions`` or
    ``prices``, or holds another top-level key, raises ParseError at once.
    Otherwise each entry is parsed on its own, and the problems of all of
    them (an unknown key in an entry among them) raise one ValidationError
    that lists them one per line, each naming its key path.  Entries keep
    their order: ``recommend`` ranks instances in catalog order, and the
    first region is the default one.
    """
    shaped(data, dict, "catalog", ("instances", "regions", "prices"), ())
    problems: List[str] = []

    instances = {}
    for where, spec in _each(data, "instances", _INSTANCE_KEYS, _instance, problems):
        if spec.name in instances:
            problems.append(f"{where}: duplicate instance name {spec.name!r}")
        instances.setdefault(spec.name, spec)

    regions = {}
    for where, spec in _each(data, "regions", _REGION_KEYS, _region, problems):
        if spec.name in regions:
            problems.append(f"{where}: duplicate region name {spec.name!r}")
        regions.setdefault(spec.name, spec)
    if not regions:
        problems.append("regions must list at least one region")

    # A price naming a bad entry is not dangling: that entry's own problem is reported above.
    instance_names, region_names = _names(data, "instances"), _names(data, "regions")
    prices = {}
    for where, entry in _each(data, "prices", _PRICE_KEYS, _price, problems):
        if entry.instance not in instance_names:
            problems.append(f"{where}.instance references unknown instance {entry.instance!r}")
        if entry.region not in region_names:
            problems.append(f"{where}.region references unknown region {entry.region!r}")
        key = (entry.instance, entry.region)
        if key in prices:
            problems.append(f"{where}: duplicate price entry for {key}")
        prices.setdefault(key, entry)

    if problems:
        raise ValidationError("\n".join(problems))
    return Catalog(
        instances=instances,
        regions=regions,
        prices=prices,
    )


def load_catalog(path) -> Catalog:
    """Load and check a catalog JSON file; each problem names the file and its key path."""
    return load(path, build_catalog)
