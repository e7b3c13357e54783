"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A simulate workload is one ``spotbatch simulate`` invocation on a bundled
scenario, made in-process through ``cli.main`` so that its outputs are the
CLI's own.  ``plan_sweep`` is a grid of ``perfmodel.recommend`` queries
over the bundled catalog and benchmark tables, plus the Pareto frontiers
and cost-per-FE figures derived from them; it never builds an engine.

Every workload takes its seed as an argument.  At the seeds listed in
``reference.json`` the output files must match the stored SHA-256
digests; at every seed the invariants in ``check`` must hold.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from spotbatch import catalog as cat
from spotbatch import cli, costmodel, data_path, perfmodel
from spotbatch.errors import MissingRecordError
from spotbatch.orchestrator import scenario as scen

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_digests(workload: str, seed: int) -> Optional[dict]:
    """Stored output digests for (workload, seed), or None for a seed without them."""
    refs = json.loads(REFERENCE_FILE.read_text())
    return refs.get(workload, {}).get(str(seed))


def compare_digests(workload: str, seed: int, out_dir: Path) -> List[str]:
    expected = reference_digests(workload, seed) or {}
    actual = {name: file_digest(out_dir / name) for name in expected}
    return [
        f"{name}: digest {actual[name]} differs from the reference {digest}"
        for name, digest in sorted(expected.items())
        if actual[name] != digest
    ]


@dataclass(frozen=True)
class Simulate:
    """``spotbatch simulate`` on one bundled scenario; one pass is one run."""

    name: str
    scenario: str
    default_seed: int
    n_jobs: int
    event_log: bool
    work_unit = "jobs"
    op_unit = "runs"

    @property
    def scenario_path(self) -> Path:
        return data_path(f"scenarios/{self.scenario}.json")

    def outputs(self) -> List[str]:
        return ["metrics.csv", "summary.json"] + (["events.log"] if self.event_log else [])

    def setup(self, seed: int):
        """Everything ``simulate`` does before the event loop: returns the built engine."""
        scenario = scen.load_scenario(self.scenario_path)
        return scen.build_engine(scenario, seed=seed, record_events=self.event_log)

    def run_pass(self, seed: int, out_dir: Path):
        argv = ["simulate", "--scenario", str(self.scenario_path), "--out", str(out_dir), "--seed", str(seed)]
        if self.event_log:
            argv.append("--event-log")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code

    def work_per_pass(self) -> int:
        return self.n_jobs

    def ops_per_pass(self) -> int:
        return 1

    def check(self, seed: int, out_dir: Path, exit_code) -> List[str]:
        """Problems with one pass; any problem fails the pass's single operation."""
        if exit_code != cli.EXIT_OK:
            return [f"simulate exited with code {exit_code}"]
        missing = [n for n in self.outputs() if not (out_dir / n).is_file()]
        if missing:
            return [f"missing output {n}" for n in missing]
        problems = compare_digests(self.name, seed, out_dir)
        s = json.loads((out_dir / "summary.json").read_text())
        if s["seed"] != seed:
            problems.append(f"summary seed {s['seed']} != {seed}")
        if s["n_jobs"] != self.n_jobs:
            problems.append(f"n_jobs {s['n_jobs']} != {self.n_jobs}")
        if s["n_completed"] + s["n_failed"] != s["n_jobs"]:
            problems.append("n_completed + n_failed != n_jobs")
        if not math.isfinite(s["total_cost"]):
            problems.append(f"total_cost is not finite: {s['total_cost']}")
        used = s["productive_core_hours"] + s["wasted_core_hours"]
        if used > s["billed_core_hours"] * (1 + 1e-12):
            problems.append(f"productive + wasted {used} > billed {s['billed_core_hours']} core-hours")
        if self.event_log:
            problems += _check_event_times(out_dir / "events.log")
        return problems

    def engine_counts(self, out_dir: Path) -> dict:
        s = json.loads((out_dir / "summary.json").read_text())
        with open(out_dir / "metrics.csv", newline="") as fh:
            samples = sum(1 for _ in csv.reader(fh)) - 1
        return {
            "events": s["n_events"],
            "jobs": s["n_jobs"],
            "submissions": s["n_submissions"],
            "instances": s["n_instances"],
            "preemptions": s["n_preemptions"],
            "samples": samples,
            "bytes_written": sum((out_dir / n).stat().st_size for n in self.outputs()),
        }


def no_engine_counts() -> dict:
    return dict.fromkeys(("events", "jobs", "submissions", "instances", "preemptions", "samples", "bytes_written"), 0)


def _check_event_times(path: Path) -> List[str]:
    last = -math.inf
    with open(path) as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            t = float(line.split(",", 1)[0])
            if t < last:
                return [f"events.log:{lineno}: time {t} is before {last}"]
            last = t
    return []


# -- plan_sweep ---------------------------------------------------------------

BENCH_FILES = ("bench_fe_cpu.csv", "bench_fe_gpu.csv", "bench_plain_cpu.csv", "bench_plain_gpu.csv")
PAYMENTS = (cat.ON_DEMAND, cat.SPOT, cat.RESERVED_UPFRONT)
OBJECTIVES = ("min_cost", "min_time")
DEADLINES_PER_CELL = 2
DEADLINE_RANGE_H = (2.0, 30.0)
EQUIL_NS = 6.0
TRANSITION_NS = 4.0
FE_PAIRS = (("cmet_complex", "cmet_ligand"),)
# 6 systems x 6 regions x 3 payment models x 2 deadlines x 2 objectives.
QUERIES_PER_PASS = 432


@dataclass
class Query:
    system: str
    region: str
    payment: str
    slot: int
    deadline_h: float
    objective: str
    result: object = None  # list of Recommendation, or the exception raised
    frontier: Optional[list] = None  # min_cost queries only
    cost_per_fe: Optional[float] = None  # min_cost queries of an FE pair's complex system


@dataclass(frozen=True)
class PlanSweep:
    """``recommend`` for every system x region x payment x objective at seeded deadlines."""

    name: str = "plan_sweep"
    default_seed: int = 20220118
    work_unit = "queries"
    op_unit = "queries"

    def setup(self, seed: int):
        """Load the catalog and all four benchmark tables."""
        catalog = cat.load_catalog(data_path("catalog_aws.json"))
        records = perfmodel.load_many_benchmarks([data_path(f) for f in BENCH_FILES])
        return catalog, records

    def run_pass(self, seed: int, out_dir: Path):
        catalog, records = self.setup(seed)
        queries = sweep(catalog, records, seed)
        (out_dir / "sweep.txt").write_text("".join(render(q) for q in queries))
        return catalog, queries

    def work_per_pass(self) -> int:
        return self.ops_per_pass()

    def ops_per_pass(self) -> int:
        return QUERIES_PER_PASS

    def check(self, seed: int, out_dir: Path, outcome) -> List[str]:
        """One problem string per failed query; a digest mismatch fails every query."""
        catalog, queries = outcome
        if len(queries) != QUERIES_PER_PASS:
            return [f"{len(queries)} queries instead of {QUERIES_PER_PASS}"] * QUERIES_PER_PASS
        if compare_digests(self.name, seed, out_dir):
            return ["sweep.txt differs from the reference"] * QUERIES_PER_PASS
        problems = []
        by_cell = {}
        for q in queries:
            by_cell.setdefault((q.system, q.region, q.payment, q.slot), {})[q.objective] = q
        for q in queries:
            problem = _query_problem(catalog, q, by_cell[(q.system, q.region, q.payment, q.slot)])
            if problem:
                problems.append(f"{render(q).strip()}: {problem}")
        return problems

    def engine_counts(self, out_dir: Path) -> dict:
        return no_engine_counts()


def sweep(catalog, records, seed: int) -> List[Query]:
    rng = random.Random(seed)
    systems = sorted({r.system for r in records})
    queries = []
    cells = {}
    for system in systems:
        for region in catalog.regions:
            for payment in PAYMENTS:
                for slot in range(DEADLINES_PER_CELL):
                    deadline = rng.uniform(*DEADLINE_RANGE_H)
                    for objective in OBJECTIVES:
                        q = Query(system, region, payment, slot, deadline, objective)
                        try:
                            q.result = perfmodel.recommend(
                                records, catalog, system, max_runtime_h=deadline, objective=objective,
                                payment=payment, region=region, equil_ns=EQUIL_NS, transition_ns=TRANSITION_NS,
                            )
                        except Exception as exc:  # counted and checked, never fatal to the sweep
                            q.result = exc
                        queries.append(q)
                        cells[(system, region, payment, slot, objective)] = q
    for q in queries:
        if q.objective == "min_cost" and _nonempty(q.result):
            points = [
                perfmodel.PerfPoint(r.instance, r.cost / r.runtime_h, (EQUIL_NS + TRANSITION_NS) / r.runtime_h * 24.0)
                for r in q.result
            ]
            q.frontier = perfmodel.pareto_frontier(points)
    for complex_system, ligand_system in FE_PAIRS:
        for (system, region, payment, slot, objective), q in cells.items():
            if system != complex_system or objective != "min_cost":
                continue
            ligand = cells.get((ligand_system, region, payment, slot, objective))
            if ligand is None or not _nonempty(q.result) or not _nonempty(ligand.result):
                continue
            c, lig = q.result[0], ligand.result[0]
            q.cost_per_fe = costmodel.cost_per_fe(
                c.runtime_h, c.cost / c.runtime_h, lig.runtime_h, lig.cost / lig.runtime_h
            )
    return queries


def _nonempty(result) -> bool:
    return isinstance(result, list) and bool(result)


def render(q: Query) -> str:
    head = f"{q.system} {q.region} {q.payment} {q.slot} {q.objective} {q.deadline_h!r}"
    if isinstance(q.result, Exception):
        body = f"raise {type(q.result).__name__}: {q.result}"
    else:
        body = " ".join(f"{r.instance}/{r.ranks}x{r.threads}/{r.runtime_h!r}/{r.cost!r}" for r in q.result)
    line = f"Q {head} -> {body}\n"
    if q.frontier is not None:
        line += "P " + " ".join(p.label for p in q.frontier) + "\n"
    if q.cost_per_fe is not None:
        line += f"F {q.cost_per_fe!r}\n"
    return line


def _query_problem(catalog, q: Query, cell: dict) -> Optional[str]:
    if isinstance(q.result, MissingRecordError):
        # Known catalog gap: a priced instance without a reserved quote makes
        # every reserved query that reaches it raise.
        unquoted = any(
            p.reserved_upfront_per_hour is None
            for (_, region), p in catalog.prices.items()
            if region == q.region
        )
        if q.payment == cat.RESERVED_UPFRONT and unquoted:
            return None
        return f"unexpected {q.result!r}"
    if isinstance(q.result, Exception):
        return f"raised {q.result!r}"
    key = (lambda r: (r.cost, r.instance)) if q.objective == "min_cost" else (lambda r: (r.runtime_h, r.instance))
    if [key(r) for r in q.result] != sorted(key(r) for r in q.result):
        return f"not sorted by {q.objective}"
    late = [r.instance for r in q.result if not r.runtime_h <= q.deadline_h]
    if late:
        return f"misses the deadline: {late}"
    other = cell["min_time" if q.objective == "min_cost" else "min_cost"].result
    if isinstance(other, list) and {r.instance for r in other} != {r.instance for r in q.result}:
        return "the two objectives rank different instance sets"
    if q.frontier is not None:
        prices = [p.price_per_hour for p in q.frontier]
        speeds = [p.ns_per_day for p in q.frontier]
        if prices != sorted(prices) or speeds != sorted(speeds):
            return "Pareto frontier is not ordered by price and speed together"
    if q.cost_per_fe is not None and not (math.isfinite(q.cost_per_fe) and q.cost_per_fe > 0):
        return f"cost per FE is {q.cost_per_fe}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Simulate("study2_full", "study2_full", 20211108, 6984, event_log=True),
        Simulate("study1_full", "study1_full", 20211101, 19872, event_log=False),
        PlanSweep(),
        # A 240-job input for the benchmark's own tests; not a benchmark workload.
        Simulate("study2_toy", "study2_toy", 42, 240, event_log=True),
    )
}
