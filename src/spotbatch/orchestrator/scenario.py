"""Scenario files: one JSON document describing a complete simulation run.

A scenario references a catalog, a workload, and the benchmark CSVs that
provide per-phase throughput, and sets the run knobs: routing policy,
allowed instance types per job kind, payment model, preemption hazards,
idle grace period, seed, metrics cadence, optional submission waves, pool
overrides, and scripted preemptions.  Relative paths are resolved against
the scenario file's directory.

The writers here hold the output formats of a run: ``metrics.csv``,
``summary.json`` and, through a streaming recorder, ``events.log``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .. import catalog as cat
from .. import perfmodel
from ..errors import ParseError, ValidationError
from ..jsonfile import read_json
from ..workload import load_workload
from .engine import Engine, EngineConfig, MetricsSample, SummaryReport
from .preemption import PreemptionModel
from .recorder import EventRow, MemoryRecorder, RunRecorder
from .routing import WEIGHTED_RANDOM, RoutingPolicy


@dataclass(frozen=True)
class Scenario:
    catalog_path: Path
    workload_path: Path
    benchmark_paths: List[Path]
    config: EngineConfig


_SHAPES = {dict: "a JSON object", list: "a list", str: "a string"}


def _shaped(value, kind: type, key: str, required: Tuple[str, ...] = ()):
    """``value`` when it is a ``kind`` holding every ``required`` key; otherwise a ParseError naming ``key``."""
    if not isinstance(value, kind):
        raise ParseError(f"{key} must be {_SHAPES[kind]}, got {value!r}")
    for name in required:
        if name not in value:
            raise ParseError(f"{key} is missing the {name!r} key")
    return value


def _number(key: str, value, whole: bool = False):
    """``value`` as a float, or as an int when ``whole``; anything else names ``key`` in a ValidationError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if whole:
            if isinstance(value, int) or value.is_integer():
                return int(value)
        elif abs(value) <= sys.float_info.max:  # a JSON integer literal may exceed every float
            return float(value)
    kind = "a whole number" if whole else "a number"
    raise ValidationError(f"{key} must be {kind}, got {value!r}")


def _numbers(value, key: str, whole: bool = False) -> Dict[str, float]:
    return {k: _number(f"{key}.{k}", v, whole) for k, v in _shaped(value, dict, key).items()}


def _strings(value, key: str) -> List[str]:
    return [_shaped(s, str, f"{key}[{i}]") for i, s in enumerate(_shaped(value, list, key))]


def _file(base: Path, value, key: str) -> Path:
    path = base / _shaped(value, str, key)
    if not path.is_file():
        raise ParseError(f"{key} names no file: {path}")
    return path


def _entries(data: dict, key: str, required: Tuple[str, ...]):
    """``(key[i], entry)`` for each object listed under the optional ``key``."""
    for i, entry in enumerate(_shaped(data.get(key, []), list, key)):
        yield f"{key}[{i}]", _shaped(entry, dict, f"{key}[{i}]", required)


# The numeric knobs a scenario may set; their defaults live in EngineConfig.  For the
# nullable ones null is a setting: no idle termination, no acquisition rate limit.
_NULLABLE_KNOBS = ("grace_period_s", "acquisitions_per_region_minute")
_NUMBER_KNOBS = ("seed", "metrics_interval_s", "transition_slowdown", "acquisition_latency_s") + _NULLABLE_KNOBS


def _scenario(data, base: Path) -> Scenario:
    _shaped(data, dict, "scenario", ("catalog", "workload", "benchmarks", "routing", "allowed_types"))
    routing = _shaped(data["routing"], dict, "routing", ("weights",))
    knobs = {
        key: None if value is None and key in _NULLABLE_KNOBS else _number(key, value, whole=key == "seed")
        for key, value in data.items()
        if key in _NUMBER_KNOBS
    }
    if "payment" in data:
        knobs["payment"] = data["payment"]
    config = EngineConfig(
        routing=RoutingPolicy(
            weights=_numbers(routing["weights"], "routing.weights"),
            mode=routing.get("mode", WEIGHTED_RANDOM),
        ),
        allowed_types={
            kind: _strings(names, f"allowed_types.{kind}")
            for kind, names in _shaped(data["allowed_types"], dict, "allowed_types").items()
        },
        preemption=PreemptionModel(_numbers(data.get("preemption_hazards", {}), "preemption_hazards")),
        scripted_preemptions={
            _shaped(p["instance_id"], str, f"{where}.instance_id"): _number(f"{where}.time_s", p["time_s"])
            for where, p in _entries(data, "scripted_preemptions", ("instance_id", "time_s"))
        },
        waves=[
            (_number(f"{where}.time_s", wave["time_s"]), tuple(_strings(wave["kinds"], f"{where}.kinds")))
            for where, wave in _entries(data, "waves", ("time_s", "kinds"))
        ],
        pool_overrides={
            region: _numbers(families, f"pool_overrides.{region}", whole=True)
            for region, families in _shaped(data.get("pool_overrides", {}), dict, "pool_overrides").items()
        },
        **knobs,
    )
    return Scenario(
        catalog_path=_file(base, data["catalog"], "catalog"),
        workload_path=_file(base, data["workload"], "workload"),
        benchmark_paths=[_file(base, p, "benchmarks") for p in _strings(data["benchmarks"], "benchmarks")],
        config=config,
    )


def load_scenario(path) -> Scenario:
    """Read a scenario file; a bad input raises ParseError or ValidationError naming the file and the key."""
    path = Path(path)
    data = read_json(path)
    try:
        return _scenario(data, path.parent)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def build_engine(
    scenario: Scenario,
    seed: Optional[int] = None,
    record_events: bool = False,
    strict_checks: bool = False,
) -> Engine:
    """Wire catalog, workload, and benchmarks into a ready-to-run engine.

    With ``record_events`` the engine's recorder is a ``MemoryRecorder``;
    otherwise it has none, and builds no rows.
    """
    catalog = cat.load_catalog(scenario.catalog_path)
    jobs = load_workload(scenario.workload_path).expand()
    records = perfmodel.load_many_benchmarks(scenario.benchmark_paths)
    config = replace(
        scenario.config,
        seed=scenario.config.seed if seed is None else seed,
        strict_checks=strict_checks,
    )
    return Engine(catalog, jobs, records, config, MemoryRecorder() if record_events else None)


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


class _EventLogWriter(RunRecorder):
    """Writes each event row to an open text file as it comes; drops bills and waste."""

    def __init__(self, fh):
        self._write = fh.write

    def record_event(self, row: EventRow) -> None:
        time_s, seq, kind, job_id, instance_id = row
        self._write(f"{time_s:g},{seq},{kind},{job_id},{instance_id}\n")


@contextlib.contextmanager
def write_event_log(path) -> Iterator[RunRecorder]:
    """A recorder that streams a run's event rows to ``path`` while the ``with`` block runs.

    The rows go to ``<path>.partial``, which replaces ``path`` only when the
    block ends without an exception; otherwise it is removed, and a file
    already at ``path`` stays as it was.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w") as fh:
            fh.write("time_s,seq,kind,job_id,instance_id\n")
            yield _EventLogWriter(fh)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


def write_summary_json(report: SummaryReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
