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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .. import catalog as cat
from .. import perfmodel
from ..errors import ParseError, ValidationError
from ..jsonfile import entries, load, number, numbers, shaped, strings
from ..workload import JOB_KINDS, load_workload
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


def _file(base: Path, value, key: str) -> Path:
    path = base / shaped(value, str, key)
    if not path.is_file():
        raise ParseError(f"{key} names no file: {path}")
    return path


# The numeric knobs a scenario may set; their defaults live in EngineConfig.  For the
# nullable ones null is a setting: no idle termination, no metrics sampling, no
# acquisition rate limit.
_NULLABLE_KNOBS = ("grace_period_s", "metrics_interval_s", "acquisitions_per_region_minute")
_NUMBER_KNOBS = ("seed", "transition_slowdown", "acquisition_latency_s") + _NULLABLE_KNOBS
# The keys a scenario must hold, and the others it may hold.
_REQUIRED = ("catalog", "workload", "benchmarks", "routing", "allowed_types")
_OPTIONAL = ("payment", "preemption_hazards", "scripted_preemptions", "waves", "pool_overrides")


def _scripted_preemptions(data) -> Dict[str, float]:
    """Per instance id, its scripted reclaim time; an id listed twice is an error, not a second reclaim."""
    times: Dict[str, float] = {}
    for where, entry in entries(data, "scripted_preemptions", ("instance_id", "time_s")):
        instance_id = shaped(entry["instance_id"], str, f"{where}.instance_id")
        if instance_id in times:
            raise ValidationError(f"{where}.instance_id repeats {instance_id!r}")
        times[instance_id] = number(f"{where}.time_s", entry["time_s"])
    return times


def _scenario(data, base: Path) -> Scenario:
    shaped(data, dict, "scenario", _REQUIRED, _OPTIONAL + _NUMBER_KNOBS)
    routing = shaped(data["routing"], dict, "routing", ("weights",), ("mode",))
    knobs = {
        key: None if value is None and key in _NULLABLE_KNOBS else number(key, value, whole=key == "seed")
        for key, value in data.items()
        if key in _NUMBER_KNOBS
    }
    if "payment" in data:
        knobs["payment"] = data["payment"]
    config = EngineConfig(
        routing=RoutingPolicy(
            weights=numbers(routing["weights"], "routing.weights"),
            mode=routing.get("mode", WEIGHTED_RANDOM),
        ),
        allowed_types={
            kind: strings(names, f"allowed_types.{kind}")
            for kind, names in shaped(data["allowed_types"], dict, "allowed_types", (), JOB_KINDS).items()
        },
        preemption=PreemptionModel(numbers(data.get("preemption_hazards", {}), "preemption_hazards")),
        scripted_preemptions=_scripted_preemptions(data),
        waves=[
            (number(f"{where}.time_s", wave["time_s"]), tuple(strings(wave["kinds"], f"{where}.kinds")))
            for where, wave in entries(data, "waves", ("time_s", "kinds"))
        ],
        pool_overrides={
            region: numbers(families, f"pool_overrides.{region}", whole=True)
            for region, families in shaped(data.get("pool_overrides", {}), dict, "pool_overrides").items()
        },
        **knobs,
    )
    return Scenario(
        catalog_path=_file(base, data["catalog"], "catalog"),
        workload_path=_file(base, data["workload"], "workload"),
        benchmark_paths=[_file(base, p, "benchmarks") for p in strings(data["benchmarks"], "benchmarks")],
        config=config,
    )


def load_scenario(path) -> Scenario:
    """Read a scenario file; a bad input raises ParseError or ValidationError naming the file and the key."""
    path = Path(path)
    return load(path, lambda data: _scenario(data, path.parent))


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
    """Writes each block of event rows to an open text file with one ``write``; drops bills and waste.

    A row's time is formatted only when it differs from the row before, but
    always when it is zero: ``0.0`` and ``-0.0`` compare equal and print
    differently.
    """

    def __init__(self, fh):
        self._write = fh.write

    def record_events(self, rows: List[EventRow]) -> None:
        lines = []
        last_time = text = None
        for time_s, seq, kind, job_id, instance_id in rows:
            if time_s != last_time or not time_s:
                last_time = time_s
                text = f"{time_s:g}"
            lines.append(f"{text},{seq},{kind},{job_id},{instance_id}\n")
        self._write("".join(lines))


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
