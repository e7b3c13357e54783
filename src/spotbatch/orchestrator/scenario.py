"""Scenario files: one JSON document describing a complete simulation run.

A scenario references a catalog, a workload, and the benchmark CSVs that
provide per-phase throughput, and sets the run knobs: routing policy,
allowed instance types per job kind, payment model, preemption hazards,
idle grace period, seed, metrics cadence, optional submission waves, pool
overrides, and scripted preemptions.  Relative paths are resolved against
the scenario file's directory.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import catalog as cat
from .. import perfmodel
from ..errors import ParseError, ValidationError
from ..jsonfile import read_json
from ..workload import load_workload, n_fe_differences
from .engine import Engine, EngineConfig, MetricsSample, SummaryReport
from .preemption import PreemptionModel
from .routing import RoutingPolicy


@dataclass
class Scenario:
    catalog_path: Path
    workload_path: Path
    benchmark_paths: List[Path]
    routing: RoutingPolicy
    allowed_types: Dict[str, List[str]]
    payment: str = cat.SPOT
    hazards: Dict[str, float] = field(default_factory=dict)
    grace_period_s: Optional[float] = 120.0
    seed: int = 0
    metrics_interval_s: float = 60.0
    transition_slowdown: float = 1.0
    acquisition_latency_s: float = 0.0
    acquisitions_per_region_minute: Optional[float] = None
    scripted_preemptions: Dict[str, float] = field(default_factory=dict)
    waves: List[Tuple[float, Tuple[str, ...]]] = field(default_factory=list)
    pool_overrides: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _number(path: Path, key: str, value, whole: bool = False):
    """``value`` as a float, or as an int when ``whole``; anything else names ``key`` in a ValidationError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if whole:
            if isinstance(value, int) or value.is_integer():
                return int(value)
        elif abs(value) <= sys.float_info.max:  # a JSON integer literal may exceed every float
            return float(value)
    kind = "a whole number" if whole else "a number"
    raise ValidationError(f"{path}: {key} must be {kind}, got {value!r}")


def _positive(path: Path, key: str, value) -> float:
    value = _number(path, key, value)
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{path}: {key} must be a finite number > 0, got {value!r}")
    return value


def _pool_count(path: Path, region: str, family: str, value) -> int:
    key = f"pool_overrides.{region}.{family}"
    count = _number(path, key, value, whole=True)
    if count < 0:
        raise ValidationError(f"{path}: {key} must be >= 0, got {value!r}")
    return count


def load_scenario(path) -> Scenario:
    path = Path(path)
    data = read_json(path)
    base = path.parent
    for key in ("catalog", "workload", "benchmarks", "routing", "allowed_types"):
        if key not in data:
            raise ParseError(f"{path}: scenario is missing the {key!r} key")
    routing_raw = data["routing"]
    if "weights" not in routing_raw:
        raise ParseError(f"{path}: routing is missing the 'weights' key")
    routing = RoutingPolicy(
        weights={str(k): _number(path, f"routing.weights.{k}", v) for k, v in routing_raw["weights"].items()},
        mode=routing_raw.get("mode", "weighted_random"),
    )
    waves = []
    for i, wave in enumerate(data.get("waves", [])):
        for key in ("time_s", "kinds"):
            if key not in wave:
                raise ParseError(f"{path}: wave {i} is missing the {key!r} key")
        waves.append((_number(path, f"waves[{i}].time_s", wave["time_s"]), tuple(wave["kinds"])))
    grace = data.get("grace_period_s", 120.0)
    per_minute = data.get("acquisitions_per_region_minute")
    return Scenario(
        catalog_path=base / data["catalog"],
        workload_path=base / data["workload"],
        benchmark_paths=[base / p for p in data["benchmarks"]],
        routing=routing,
        allowed_types={k: list(v) for k, v in data["allowed_types"].items()},
        payment=data.get("payment", cat.SPOT),
        hazards={
            str(k): _number(path, f"preemption_hazards.{k}", v)
            for k, v in data.get("preemption_hazards", {}).items()
        },
        grace_period_s=None if grace is None else _number(path, "grace_period_s", grace),
        seed=_number(path, "seed", data.get("seed", 0), whole=True),
        metrics_interval_s=_number(path, "metrics_interval_s", data.get("metrics_interval_s", 60.0)),
        transition_slowdown=_positive(path, "transition_slowdown", data.get("transition_slowdown", 1.0)),
        acquisition_latency_s=_number(path, "acquisition_latency_s", data.get("acquisition_latency_s", 0.0)),
        acquisitions_per_region_minute=(
            None if per_minute is None else _positive(path, "acquisitions_per_region_minute", per_minute)
        ),
        scripted_preemptions={
            str(p["instance_id"]): _number(path, f"scripted_preemptions[{i}].time_s", p["time_s"])
            for i, p in enumerate(data.get("scripted_preemptions", []))
        },
        waves=waves,
        pool_overrides={
            str(r): {str(f): _pool_count(path, r, f, c) for f, c in fams.items()}
            for r, fams in data.get("pool_overrides", {}).items()
        },
    )


def build_engine(
    scenario: Scenario,
    seed: Optional[int] = None,
    record_events: bool = False,
    strict_checks: bool = False,
) -> Engine:
    """Wire catalog, workload, and benchmarks into a ready-to-run engine."""
    catalog = cat.load_catalog(scenario.catalog_path)
    workload = load_workload(scenario.workload_path)
    jobs = workload.expand()
    records = perfmodel.load_many_benchmarks(scenario.benchmark_paths)
    config = EngineConfig(
        routing=scenario.routing,
        allowed_types=scenario.allowed_types,
        payment=scenario.payment,
        preemption=PreemptionModel(scenario.hazards),
        grace_period_s=scenario.grace_period_s,
        seed=scenario.seed if seed is None else seed,
        metrics_interval_s=scenario.metrics_interval_s,
        transition_slowdown=scenario.transition_slowdown,
        acquisition_latency_s=scenario.acquisition_latency_s,
        acquisitions_per_region_minute=scenario.acquisitions_per_region_minute,
        scripted_preemptions=scenario.scripted_preemptions,
        waves=scenario.waves,
        pool_overrides=scenario.pool_overrides,
        n_fe_differences=n_fe_differences(workload.spec),
        record_events=record_events,
        strict_checks=strict_checks,
    )
    return Engine(catalog, jobs, records, config)


def run_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    record_events: bool = False,
    strict_checks: bool = False,
) -> Tuple[Engine, SummaryReport]:
    engine = build_engine(scenario, seed=seed, record_events=record_events, strict_checks=strict_checks)
    report = engine.run()
    return engine, report


METRICS_HEADER = ["time_s", "region", "instance_type", "active_instances", "vcpus_in_use", "gpus_in_use"]


def write_metrics_csv(samples: List[MetricsSample], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for s in samples:
            writer.writerow(
                [f"{s.time_s:g}", s.region, s.instance_type, s.active_instances, s.vcpus_in_use, s.gpus_in_use]
            )


def write_event_log(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("time_s,seq,kind,job_id,instance_id\n")
        for time_s, seq, kind, job_id, instance_id in rows:
            fh.write(f"{time_s:g},{seq},{kind},{job_id},{instance_id}\n")


def write_summary_json(report: SummaryReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
