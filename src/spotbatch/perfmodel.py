"""Benchmark ingestion and performance/price analytics.

Works on measured simulation throughput (ns of trajectory per day) for
(system, instance) pairs.  Provides performance-to-price ratios, strong
scaling efficiency, Pareto frontiers over (price, performance) points,
and constrained instance recommendation with job runtimes from per-phase
throughput.

All operations are pure functions over immutable records.  The loaders
return a ``BenchmarkSet``: the records in file order, as a tuple whose
``rates`` method gives a system's rate table, the one place the
transition-rate fallback is applied.  ``recommend`` and the engine read
only that table; the set keeps each table once made, so it scans the
records once per (system, transition slowdown) rather than once per
query.  ``recommend`` walks the catalog's hourly-rate table for the
region and payment model (``Catalog.hourly_rates``), so it meets the
priced instances in catalog order and reads each one's rate from it; it
returns ``Recommendation`` rows, which are named tuples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import catalog as cat
from .errors import MissingRecordError, ParseError, ValidationError, finite_number

HOURS_PER_DAY = 24.0

PHASE_PLAIN = "plain"
PHASE_EQUILIBRATION = "equilibration"
PHASE_TRANSITION = "transition"
PHASES = (PHASE_PLAIN, PHASE_EQUILIBRATION, PHASE_TRANSITION)

BENCH_CSV_HEADER = ["system", "instance", "ranks", "threads", "pme_ranks", "phase", "ns_per_day"]
SCALING_CSV_HEADER = ["system", "instance", "n_instances", "ns_per_day"]

OBJECTIVES = ("min_cost", "min_time")


@dataclass(frozen=True)
class BenchmarkRecord:
    """A single measured throughput for (system, instance, run configuration)."""

    system: str
    instance: str
    ranks: int
    threads: int
    pme_ranks: int
    phase: str
    ns_per_day: float

    def __post_init__(self):
        try:
            finite_number("ns_per_day", self.ns_per_day, 0, low_open=True)
            finite_number("ranks", self.ranks, 1)
            finite_number("threads", self.threads, 1)
            finite_number("pme_ranks", self.pme_ranks, 0)
            if self.phase not in PHASES:
                raise ValidationError(f"unknown phase {self.phase!r}")
        except ValidationError as exc:
            where = f"benchmark ({self.system}, {self.instance}, {self.ranks}x{self.threads})"
            raise ValidationError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ScalingSeries:
    """Throughput of one system on 1..n instances of the same type.

    Points are (instance count, ns/day), strictly increasing in count,
    and the first point must be the single-instance baseline.
    """

    system: str
    instance: str
    points: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        where = f"scaling series ({self.system}, {self.instance})"
        if not self.points:
            raise ValidationError(f"{where}: empty")
        if self.points[0][0] != 1:
            raise ValidationError(f"{where}: first point must have n = 1")
        last_n = 0
        for n, perf in self.points:
            if finite_number(f"{where}: n", n) <= last_n:
                raise ValidationError(f"{where}: instance counts must be strictly increasing")
            finite_number(f"{where}: ns_per_day at n={n}", perf, 0, low_open=True)
            last_n = n

    def performance_at(self, n: int) -> float:
        for count, perf in self.points:
            if count == n:
                return perf
        raise MissingRecordError(f"scaling series ({self.system}, {self.instance}) has no point at n={n}")


@dataclass(frozen=True)
class PerfPoint:
    """A labeled (hourly price, throughput) point for frontier analysis."""

    label: str
    price_per_hour: float
    ns_per_day: float

    def __post_init__(self):
        try:
            finite_number("price_per_hour", self.price_per_hour, 0, low_open=True)
            finite_number("ns_per_day", self.ns_per_day, 0, low_open=True)
        except ValidationError as exc:
            raise ValidationError(f"perf point {self.label}: {exc}") from None


class Recommendation(NamedTuple):
    """One ranked entry produced by recommend()."""

    instance: str
    ranks: int
    threads: int
    runtime_h: float
    cost: float


def pp_ratio(ns_per_day: float, price_per_hour: float) -> float:
    """Performance-to-price ratio: ns of trajectory per currency unit.

    Uses a 24 h/day conversion so the value matches spreadsheet-style
    ``ns_per_day / (24 * hourly_price)`` columns.
    """
    finite_number("ns_per_day", ns_per_day, 0, low_open=True)
    finite_number("price_per_hour", price_per_hour, 0, low_open=True)
    return ns_per_day / (HOURS_PER_DAY * price_per_hour)


def parallel_efficiency(series: ScalingSeries) -> List[Tuple[int, float]]:
    """Efficiency at each point of a scaling series: perf(n) / (n * perf(1)).

    The single-instance point yields exactly 1.0.  Values above 1 (superlinear
    scaling) are returned as measured, never clamped.
    """
    base = series.points[0][1]
    out = []
    for n, perf in series.points:
        out.append((n, 1.0 if n == 1 else perf / (n * base)))
    return out


def speedup(series: ScalingSeries, n: int) -> float:
    """Throughput gain at n instances relative to one instance."""
    return series.performance_at(n) / series.points[0][1]


def _config_key(r: BenchmarkRecord):
    """Fastest first; ties toward fewer ranks, then fewer PME ranks."""
    return (-r.ns_per_day, r.ranks, r.pme_ranks)


def best_config(
    records: Iterable[BenchmarkRecord],
    system: str,
    instance: str,
    phase: Optional[str] = None,
) -> BenchmarkRecord:
    """Pick the fastest measured run configuration for (system, instance).

    Ties on throughput are broken toward fewer ranks, then fewer PME ranks,
    so repeated calls are deterministic.
    """
    candidates = [
        r
        for r in records
        if r.system == system and r.instance == instance and (phase is None or r.phase == phase)
    ]
    if not candidates:
        raise MissingRecordError(f"no benchmark record for ({system}, {instance}, phase={phase})")
    return min(candidates, key=_config_key)


def best_configs(records: Iterable[BenchmarkRecord], system: str) -> Dict[Tuple[str, str], BenchmarkRecord]:
    """``best_config`` of ``system`` for every measured (instance, phase), in one pass.

    On a full tie the first record in input order wins, as with ``min``.
    """
    best: Dict[Tuple[str, str], BenchmarkRecord] = {}
    for r in records:
        if r.system != system:
            continue
        key = (r.instance, r.phase)
        current = best.get(key)
        if current is None or _config_key(r) < _config_key(current):
            best[key] = r
    return best


# A system's best equilibration record on one instance type, and its
# (equilibration, transition) ns/day.
PhaseRates = Tuple[BenchmarkRecord, float, float]


class BenchmarkSet(tuple):
    """Benchmark records in load order, with each rate table it has made kept.

    ``BenchmarkSet(records)`` reads any iterable once; given a set, it
    returns that set, so the tables it has made are kept.
    """

    def __new__(cls, records: Iterable[BenchmarkRecord]):
        if isinstance(records, BenchmarkSet):
            return records
        self = super().__new__(cls, records)
        self._rates = {}
        return self

    def rates(self, system: str, transition_slowdown: float) -> Dict[str, PhaseRates]:
        """``PhaseRates`` of ``system`` per instance with an equilibration record, in record order.

        The transition rate is the best transition record's when there is
        one, else the equilibration rate times ``transition_slowdown``.  A
        system with no record of any phase raises MissingRecordError.  The
        table is made the first time (system, slowdown) is asked for, and
        every later call returns the same dict, so callers must not change it.
        """
        key = (system, transition_slowdown)
        table = self._rates.get(key)
        if table is None:
            best = best_configs(self, system)
            if not best:
                raise MissingRecordError(f"no benchmark record for system {system!r}")
            table = self._rates[key] = {}
            for (instance, phase), equil in best.items():
                if phase == PHASE_EQUILIBRATION:
                    trans = best.get((instance, PHASE_TRANSITION))
                    rate = equil.ns_per_day
                    transition = rate * transition_slowdown if trans is None else trans.ns_per_day
                    table[instance] = (equil, rate, transition)
        return table


def pareto_frontier(points: Iterable[PerfPoint]) -> List[PerfPoint]:
    """Return the non-dominated subset, ordered by ascending price.

    A point is dominated when some other point is at least as fast and at
    most as expensive, with at least one of the two strictly better.
    """
    pts = list(points)
    if not pts:
        raise ValueError("pareto_frontier requires a nonempty set of points")
    frontier = []
    for p in pts:
        dominated = False
        for q in pts:
            if q is p:
                continue
            if (
                q.ns_per_day >= p.ns_per_day
                and q.price_per_hour <= p.price_per_hour
                and (q.ns_per_day > p.ns_per_day or q.price_per_hour < p.price_per_hour)
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(p)
    frontier.sort(key=lambda p: (p.price_per_hour, -p.ns_per_day, p.label))
    return frontier


def recommend(
    records: Iterable[BenchmarkRecord],
    catalog: cat.Catalog,
    system: str,
    max_runtime_h: Optional[float] = None,
    objective: str = "min_cost",
    payment: str = cat.SPOT,
    region: Optional[str] = None,
    equil_ns: float = 6.0,
    transition_ns: float = 4.0,
    transition_slowdown: float = 1.0,
) -> List[Recommendation]:
    """Rank priced, benchmarked instance types for a system under constraints.

    Candidates are all catalog instances with an equilibration benchmark for
    the system and a price in the chosen region (default: the catalog's
    first region; a region the catalog does not list raises
    MissingRecordError).  Instances whose predicted runtime exceeds
    ``max_runtime_h`` are dropped.  An empty list means no instance
    satisfies the constraints; that is a result, not an error.  A system
    with no record of any phase raises MissingRecordError, and so does the
    first instance in catalog order that meets the deadline but has no
    reserved rate quoted, when ``payment`` is reserved.  The job's
    durations must be finite numbers >= 0, and the deadline (unless ``None``)
    and ``transition_slowdown`` finite numbers > 0.  Every argument is
    checked before any record is read.

    ``records`` may be any iterable, read once; a ``BenchmarkSet`` keeps
    the system's rate table for later queries.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if payment not in cat.PAYMENT_MODELS:
        raise ValidationError(f"unknown payment model {payment!r}; expected one of {cat.PAYMENT_MODELS}")
    finite_number("equil_ns", equil_ns, 0)
    finite_number("transition_ns", transition_ns, 0)
    if max_runtime_h is not None:
        finite_number("max_runtime_h", max_runtime_h, 0, low_open=True)
    finite_number("transition_slowdown", transition_slowdown, 0, low_open=True)
    region = next(iter(catalog.regions)) if region is None else catalog.region(region).name
    table = BenchmarkSet(records).rates(system, transition_slowdown)
    out = []
    for name, rate in catalog.hourly_rates(region, payment).items():
        rates = table.get(name)
        if rates is None:
            continue
        config, equil_rate, trans_rate = rates
        runtime = equil_ns / equil_rate * HOURS_PER_DAY
        if transition_ns > 0:
            runtime += transition_ns / trans_rate * HOURS_PER_DAY
        if max_runtime_h is not None and runtime > max_runtime_h:
            continue
        if rate is None:
            cat.lookup_rate(catalog, name, region, payment)  # raises: the reserved rate was never quoted
        out.append(Recommendation(name, config.ranks, config.threads, runtime, runtime * rate))
    if objective == "min_cost":
        out.sort(key=lambda r: (r.cost, r.instance))
    else:
        out.sort(key=lambda r: (r.runtime_h, r.instance))
    return out


def _read_csv(path, expected_header: List[str]) -> List[Tuple[str, Dict[str, str]]]:
    """``(path:line, row)`` per data row of the CSV at ``path``; its header must be ``expected_header``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected_header:
            raise ParseError(
                f"{path}: expected header {','.join(expected_header)!r}, got {reader.fieldnames}"
            )
        rows = [(f"{path}:{reader.line_num}", row) for row in reader]
    for where, row in rows:
        if None in row or None in row.values():  # more or fewer cells than the header
            raise ParseError(f"{where}: expected {len(expected_header)} cells")
    return rows


def _cell(where: str, row: Dict[str, str], column: str, kind=float):
    """The finite number in ``row[column]``, read by ``kind``; any other cell is a ParseError naming both."""
    text = row[column]
    try:
        value = kind(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
    rule = "a whole number" if kind is int else "a finite number"
    raise ParseError(f"{where}: {column} must be {rule}, got {text!r}")


def load_benchmarks(path) -> BenchmarkSet:
    """Load benchmark records from CSV (header: system,instance,ranks,threads,pme_ranks,phase,ns_per_day)."""
    records = []
    for where, row in _read_csv(path, BENCH_CSV_HEADER):
        try:
            records.append(
                BenchmarkRecord(
                    system=row["system"].strip(),
                    instance=row["instance"].strip(),
                    ranks=_cell(where, row, "ranks", int),
                    threads=_cell(where, row, "threads", int),
                    pme_ranks=_cell(where, row, "pme_ranks", int),
                    phase=row["phase"].strip(),
                    ns_per_day=_cell(where, row, "ns_per_day"),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return BenchmarkSet(records)


def load_many_benchmarks(paths) -> BenchmarkSet:
    """The records of every CSV in ``paths``, in order, as one set."""
    return BenchmarkSet(r for p in paths for r in load_benchmarks(p))


def load_scaling(path) -> List[ScalingSeries]:
    """Load scaling series from CSV (header: system,instance,n_instances,ns_per_day).

    A series' error is prefixed with the ``path:line`` of its first row.
    """
    grouped = {}  # (system, instance) -> (path:line of its first row, points)
    for where, row in _read_csv(path, SCALING_CSV_HEADER):
        key = (row["system"].strip(), row["instance"].strip())
        point = (_cell(where, row, "n_instances", int), _cell(where, row, "ns_per_day"))
        grouped.setdefault(key, (where, []))[1].append(point)
    series = []
    for (system, instance), (where, points) in grouped.items():
        points.sort(key=lambda p: p[0])
        try:
            series.append(ScalingSeries(system=system, instance=instance, points=tuple(points)))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return series
