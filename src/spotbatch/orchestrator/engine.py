"""Deterministic discrete-event engine for a global batch run.

Models the full lifecycle of an ensemble run on preemptible cloud
capacity: jobs are routed to regions by weight, packed first-fit onto
already-acquired instances or trigger a new acquisition from the region's
finite per-family pool, then execute their phase plan chunk by chunk.
Completed chunks and transitions are persisted; when an instance is
reclaimed, its resident jobs lose only the work since the last persisted
boundary and re-enter routing as fresh submissions.  Instances accrue
cost per second from activation to termination and idle instances
terminate after a grace period.

A job's candidate types are the types allowed for its kind that fit its
demand (vCPUs, GPUs) and have a rate for its system in the benchmark
set's rate table, worked out at construction once per distinct (kind,
system, vCPUs, GPUs).  A job packs onto and acquires only candidate types,
and one with no candidate fails as infeasible, so no rate is ever found
missing mid-run.

Queued jobs wait per region in arrival order.  Whenever capacity may have
freed, the region's queue is retried oldest first; capacity only shrinks
during one retry pass, so once a job of some demand and candidates stays
queued, the later jobs with both the same wait out the rest of the pass.
The queue is kept as one FIFO bucket per (demand, candidates) so that a
pass costs O(placements + buckets), not O(queue length).

A job's work is one table per (phase plan, system, timestep, instance
type): one entry of (completion event, duration, queue) per item, in the
order the items run.  Each equilibration chunk comes first, then each
transition, then the integration and the job's completion, both of zero
duration.  A job's progress is one count: the number of items it has
persisted, which is also the index in the table of the item that runs next.
The count only grows; a preemption loses the item in flight and leaves the
count as it is.  When a job boards an instance, it takes the table for that
instance's type and resumes at its count.

Work-item completions do not enter the event heap.  Every item is
scheduled at the clock plus its duration; the clock never goes back,
rounding a float sum is monotone and seq only grows, so the items that
share one duration are scheduled in (time, seq) order.  Each distinct
duration therefore has one FIFO queue of ``(time, seq, job, epoch,
queue)`` entries, and a small heap holds the head entry of every queue
that is not empty.  The jobs' completions, of zero duration, have a FIFO
of their own, so the loop knows a completion by the queue it came from.
The event loop takes whichever of that heap and the event heap has the
smaller (time, seq), so items and events run in exactly the order one
heap of both would give.  It handles consecutive work items in a tight
loop: credit the item, add one to the count and append the next item to
its duration's queue.  Each persisted item takes one seq, so the loop
counts its events from the seqs it took.  The event heap holds the
entries ``(time, seq, kind, subject, epoch)`` of every other event:
submissions, acquisitions, reclaims and idle timeouts, whose subject is
the job or instance the event is about.  The first submissions, one per
job in job order with consecutive seqs, enter it in one ``heapify``.

First-fit placement scans a region's open instances (those with a free
vCPU) in acquisition order; the list is kept in that order as instances
fill, free up and terminate, so a placement never sorts.  Metrics samples
read per-(region, type) usage counters that activation, boarding,
completion and termination keep up to date.

The engine keeps no row of its output (see ``recorder``).  It hands each
instance bill and preemption waste row to its recorder as the row happens.
Event rows wait in one pending block, which goes to the recorder when it
holds ``EVENT_BLOCK_ROWS`` rows and at the end of every ``advance``, also
one that raises.  Without a recorder it builds no rows at all; the ledger
keeps only running totals, and metrics samples stay in ``samples``.

Determinism: a single seeded RNG drives routing draws and preemption
draws; events are processed in (time, seq) order with seq assigned at
scheduling time, and scheduling an event before the clock is an error.
Each instance has at most one reclaim, planned when it activates.  Its
heap seq is ``_RECLAIM_SEQ`` plus the instance's acquisition number, above
every seq a run takes, so it sorts after every other event at its
instant, also those scheduled there later; it takes the next seq for its
row when it runs, and is dropped if its instance has terminated first.
So a completion and a reclaim falling on the same timestamp always
resolve in the job's favor, reclaims at one instant run in acquisition
order, and a second reclaim waits for the events the first one scheduled
there.  Equal inputs and seed reproduce the event log bit for bit.

The engine is strictly single-threaded; independent engines may run
concurrently but must never share state.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .. import catalog as cat
from .. import perfmodel
from ..errors import SimulationError, ValidationError, finite_number
from ..workload import JOB_KINDS, JobSpec, PhasePlan
from .preemption import PreemptionModel
from .recorder import BillRow, EventRow, RunRecorder
from .routing import Router, RoutingPolicy

EV_JOB_SUBMITTED = "job_submitted"
EV_INSTANCE_ACQUIRED = "instance_acquired"
EV_CHUNK_DONE = "chunk_done"
EV_TRANSITION_DONE = "transition_done"
EV_INTEGRATE_DONE = "integrate_done"
EV_PREEMPTION = "preemption"
EV_IDLE_TIMEOUT = "instance_idle_timeout"
EV_JOB_COMPLETED = "job_completed"

SECONDS_PER_DAY = 86400.0

# The most event rows the engine holds before it hands them to its recorder.
EVENT_BLOCK_ROWS = 512

# A planned reclaim's heap seq is this plus its instance's number: above every
# seq a run takes, so a reclaim sorts after every other event at its instant.
_RECLAIM_SEQ = 1 << 62

ST_PENDING = "pending"
ST_QUEUED = "queued"
ST_RUNNING = "running"
ST_DONE = "done"
ST_FAILED = "failed"


# The kind of work item each completion event ends, as waste rows name it.
_ITEM_KINDS = {
    EV_CHUNK_DONE: "chunk",
    EV_TRANSITION_DONE: "transition",
    EV_INTEGRATE_DONE: "integrate",
    EV_JOB_COMPLETED: "done",
}

# A work item's completion, queued in the FIFO of its duration:
# (time, seq, job, epoch, that FIFO).
ItemEntry = Tuple[float, int, "_Job", int, Deque]

# (event that completes it, duration in seconds, FIFO of that duration) for
# one item of a job's work on one instance type.
WorkEntry = Tuple[str, float, Deque[ItemEntry]]


@dataclass
class InstanceState:
    """One acquired (or requested) instance and its current occupancy."""

    id: str
    type_name: str
    region: str
    vcpus: int
    gpus: int
    rate: float
    acquired_at: float
    family: str
    active: bool = False
    terminated_at: Optional[float] = None
    resident_jobs: List[_Job] = field(default_factory=list)
    free_vcpus: int = 0
    free_gpus: int = 0
    idle_epoch: int = 0
    created_seq: int = 0

    @property
    def terminated(self) -> bool:
        return self.terminated_at is not None


@dataclass
class BillingLedger:
    """Running totals of billing and of the productive/wasted compute split.

    Core-seconds are counted in vCPU-seconds (the rentable unit).
    Productive time is work that reached a persisted boundary; wasted time
    is work discarded by a preemption.  Idle capacity is neither and shows
    up only in the billed totals.
    """

    total_cost: float = 0.0
    productive_core_seconds: float = 0.0
    wasted_core_seconds: float = 0.0
    billed_core_seconds: float = 0.0

    def bill(self, instance: InstanceState, until: float) -> BillRow:
        """Add the instance's bill up to ``until`` to the totals and return it as a row."""
        duration = until - instance.acquired_at
        cost = duration / 3600.0 * instance.rate
        self.total_cost += cost
        self.billed_core_seconds += duration * instance.vcpus
        return (instance.id, duration, instance.rate, cost)


@dataclass
class MetricsSample:
    time_s: float
    region: str
    instance_type: str
    active_instances: int
    vcpus_in_use: int
    gpus_in_use: int


def _invalid(key: str, rule: str, value) -> ValidationError:
    return ValidationError(f"{key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Everything that shapes one simulation besides catalog and jobs, checked once at construction.

    Every number must be finite.  ``None`` keeps its meaning where it has
    one: no idle termination, no metrics sampling, no acquisition rate
    limit.  Samples are at least 1 s apart, so their count is bounded by the
    makespan.  Negative delays and times pass here; the clock guard stops
    the run when one would schedule an event before the clock.
    """

    routing: RoutingPolicy
    allowed_types: Dict[str, List[str]]
    payment: str = cat.SPOT
    preemption: PreemptionModel = field(default_factory=PreemptionModel)
    grace_period_s: Optional[float] = 120.0
    seed: int = 0
    metrics_interval_s: Optional[float] = 60.0
    transition_slowdown: float = 1.0
    acquisition_latency_s: float = 0.0
    acquisitions_per_region_minute: Optional[float] = None
    scripted_preemptions: Dict[str, float] = field(default_factory=dict)
    waves: List[Tuple[float, Tuple[str, ...]]] = field(default_factory=list)
    pool_overrides: Dict[str, Dict[str, int]] = field(default_factory=dict)
    strict_checks: bool = False

    def __post_init__(self):
        if self.payment not in cat.PAYMENT_MODELS:
            raise _invalid("payment", f"one of {cat.PAYMENT_MODELS}", self.payment)
        finite_number("transition_slowdown", self.transition_slowdown, 0, low_open=True)
        per_minute = self.acquisitions_per_region_minute
        if per_minute is not None:
            finite_number("acquisitions_per_region_minute", per_minute, 0, low_open=True)
        if self.grace_period_s is not None:
            finite_number("grace_period_s", self.grace_period_s)
        if self.metrics_interval_s is not None:
            finite_number("metrics_interval_s", self.metrics_interval_s, 1)
        finite_number("acquisition_latency_s", self.acquisition_latency_s)
        for i, (time_s, kinds) in enumerate(self.waves):
            finite_number(f"waves[{i}].time_s", time_s)
            for j, kind in enumerate(kinds):
                if kind not in JOB_KINDS:
                    raise _invalid(f"waves[{i}].kinds[{j}]", f"one of {JOB_KINDS}", kind)
        for instance_id, time_s in self.scripted_preemptions.items():
            finite_number(f"scripted_preemptions.{instance_id}", time_s)
        for region, families in self.pool_overrides.items():
            for family, count in families.items():
                if not (isinstance(count, int) and count >= 0):
                    raise _invalid(f"pool_overrides.{region}.{family}", "a whole number >= 0", count)


@dataclass
class SummaryReport:
    seed: int
    makespan_s: float
    final_time_s: float
    total_cost: float
    cost_per_fe: Optional[float]
    n_fe_differences: int
    n_jobs: int
    n_completed: int
    n_failed: int
    n_submissions: int
    n_instances: int
    n_preemptions: int
    n_events: int
    productive_core_hours: float
    wasted_core_hours: float
    billed_core_hours: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True, slots=True, eq=False)
class _Candidates:
    """A job's candidate types: one object per (demand, candidates), whose identity keys a queue bucket."""

    names: FrozenSet[str]
    types: Tuple[Tuple[str, str], ...]  # (type, family), in allowed order


@dataclass(slots=True, eq=False)
class _Job:
    spec: JobSpec
    candidates: _Candidates
    status: str = ST_PENDING
    epoch: int = 0
    instance: Optional[InstanceState] = None
    region: Optional[str] = None
    work_started_at: float = 0.0
    # The current residency's work table, and the job's progress: the count of
    # items it has persisted, which indexes its next item in work order.
    work: Sequence[WorkEntry] = ()
    cursor: int = 0
    submissions: int = 0
    completed_at: Optional[float] = None


def _head_arrival(bucket: Deque[Tuple[int, _Job]]) -> int:
    return bucket[0][0]


_created_seq = attrgetter("created_seq")


def _clock_error(kind: str, time: float, clock: float) -> SimulationError:
    return SimulationError(f"cannot schedule {kind} at {time}: clock is already at {clock}")


class Engine:
    """Single-run simulation state plus the event loop."""

    def __init__(
        self,
        catalog: cat.Catalog,
        jobs: Sequence[JobSpec],
        records: Iterable[perfmodel.BenchmarkRecord],
        config: EngineConfig,
        recorder: Optional[RunRecorder] = None,
    ):
        self.config = config
        # Takes the run's rows as they happen; may be replaced before the run starts.
        self.recorder = recorder
        self.rng = random.Random(config.seed)
        self.router = Router(config.routing, self.rng)
        self.clock = 0.0
        self.ledger = BillingLedger()
        self.samples: List[MetricsSample] = []
        self.n_preemptions = 0
        self.n_submissions = 0
        self.n_events = 0

        # Entries are (time, seq, kind, subject, epoch), the subject being the
        # job or instance the event is about; seq is unique across this heap
        # and the item queues (a reclaim's is _RECLAIM_SEQ plus its instance's
        # number), so entries never compare past it.
        self._heap: List[tuple] = []
        # Work-item completions: one FIFO per distinct item duration, one more
        # for the jobs' completions, and a heap of the head entry of every
        # FIFO that is not empty.
        self._item_fifos: Dict[float, Deque[ItemEntry]] = {}
        self._completions: Deque[ItemEntry] = deque()
        self._item_heads: List[ItemEntry] = []
        # Event rows not yet handed to the recorder, at most one block.
        self._rows: List[EventRow] = []
        self._last_progress: Dict[str, int] = {}  # each job's count at the last strict check
        self._seq = 0
        self._arrivals = 0  # queue arrivals so far; orders the queue buckets
        # Without an interval no sample is ever due.
        self._next_sample = math.inf if config.metrics_interval_s is None else 0.0
        self._region_next_slot: Dict[str, float] = {}
        self._work_tables: Dict[Tuple[PhasePlan, str, float, str], Tuple[WorkEntry, ...]] = {}

        hazards = [key.split("/") for key in config.preemption.rates_per_instance_hour]
        pools = config.pool_overrides
        families = {spec.family for spec in catalog.instances.values()}
        nameable = families | {"*"}
        for what, names, known, noun in (
            ("routing weight", config.routing.weights, catalog.regions, "region"),
            ("pool override", pools, catalog.regions, "region"),
            ("preemption hazard", [r for r, _ in hazards if r != "*"], catalog.regions, "region"),
            ("pool override", [f for counts in pools.values() for f in counts], nameable, "instance family"),
            ("preemption hazard", [f for _, f in hazards], nameable, "instance family"),
        ):
            for name in names:
                if name not in known:
                    raise ValidationError(f"{what} references unknown {noun} {name!r}")
        routed = [r for r, w in config.routing.weights.items() if w > 0]
        # Per (allowed type, routed region): the instance spec and its hourly
        # rate.  An unknown type or a missing rate fails here, not mid-run.
        self._quotes: Dict[Tuple[str, str], Tuple[cat.InstanceTypeSpec, float]] = {
            (name, region): (catalog.instance(name), cat.lookup_rate(catalog, name, region, config.payment))
            for names in config.allowed_types.values()
            for name in names
            for region in routed
        }
        # Per (region, family): the instances its pool has left to lend, from
        # the region's override of the family, else of "*", else the catalog.
        self._pool: Dict[Tuple[str, str], int] = {}
        for region, spec in catalog.regions.items():
            override = pools.get(region, {})
            for family in families:
                self._pool[(region, family)] = override.get(family, override.get("*", spec.pool_capacity(family)))

        # Per system of the jobs, its rate table; a system with no record fails here.
        self._rates: Dict[str, Dict[str, perfmodel.PhaseRates]] = {}
        records = perfmodel.BenchmarkSet(records)
        by_need: Dict[Tuple[str, str, int, int], _Candidates] = {}  # per (kind, system, vCPUs, GPUs)
        shared: Dict[Tuple[int, int, tuple], _Candidates] = {}  # per (vCPUs, GPUs, candidates)
        self.jobs: Dict[str, _Job] = {}
        for spec in jobs:
            need = (spec.kind, spec.system, spec.vcpu_demand, spec.gpu_demand)
            candidates = by_need.get(need)
            if candidates is None:
                kind, system, vd, gd = need
                rates = self._rates[system] = records.rates(system, config.transition_slowdown)
                specs = [(name, catalog.instance(name)) for name in config.allowed_types.get(kind, [])]
                types = tuple((n, s.family) for n, s in specs if n in rates and s.vcpus >= vd and s.gpus >= gd)
                fresh = _Candidates(frozenset(n for n, _ in types), types)
                candidates = by_need[need] = shared.setdefault((vd, gd, types), fresh)
            self.jobs[spec.id] = _Job(spec, candidates)
        if len(self.jobs) < len(jobs):
            seen = set()
            for spec in jobs:
                if spec.id in seen:
                    raise ValidationError(f"duplicate job id {spec.id}")
                seen.add(spec.id)

        self.instances: Dict[str, InstanceState] = {}
        # Per (region, type): [active instances, vCPUs in use, GPUs in use].
        self._usage: Dict[Tuple[str, str], List[int]] = {}
        # Per region, the unterminated instances with a free vCPU, in acquisition order.
        self._region_free: Dict[str, List[InstanceState]] = {r: [] for r in catalog.regions}
        # Per region, one FIFO of (arrival, job) per shared candidates object.
        self._region_queue: Dict[str, Dict[_Candidates, Deque[Tuple[int, _Job]]]] = {
            r: {} for r in catalog.regions
        }

        self._submitted = False

    # -- scheduling primitives -------------------------------------------

    def _schedule(self, time: float, kind: str, subject: _Job | InstanceState, epoch: int = 0) -> None:
        if time < self.clock:
            raise _clock_error(kind, time, self.clock)
        heapq.heappush(self._heap, (time, self._seq, kind, subject, epoch))
        self._seq += 1

    def _work_table(self, spec: JobSpec, type_name: str) -> Tuple[WorkEntry, ...]:
        """Every work item of ``spec`` on ``type_name`` as (event, duration, FIFO), in work order.

        Chunks run at the equilibration rate and transitions at the
        transition rate; integration and completion take no time.
        ``type_name`` is one of the job's candidates, so it has both rates.
        """
        key = (spec.phase_plan, spec.system, spec.timestep_fs, type_name)
        table = self._work_tables.get(key)
        if table is None:
            plan = spec.phase_plan
            _, equil_rate, transition_rate = self._rates[spec.system][type_name]
            steps = [(EV_CHUNK_DONE, plan.chunk_length(i), equil_rate) for i in range(plan.equil_chunks)]
            steps += [(EV_TRANSITION_DONE, plan.transition_steps, transition_rate)] * plan.n_transitions
            work = [(event, n * spec.timestep_fs * 1e-6 / rate * SECONDS_PER_DAY) for event, n, rate in steps]
            work.append((EV_INTEGRATE_DONE, 0.0))
            fifos = self._item_fifos
            table = tuple((e, d, fifos.setdefault(d, deque())) for e, d in work)
            table += ((EV_JOB_COMPLETED, 0.0, self._completions),)
            self._work_tables[key] = table
        return table

    # -- submission -------------------------------------------------------

    def submit_all(self) -> None:
        """Schedule every job's submission, in job order with consecutive seqs, in one heapify."""
        if self._submitted:
            raise SimulationError("jobs were already submitted")
        self._submitted = True
        # The first wave that names a kind submits it; a kind no wave names starts at 0 s.
        start = {kind: time_s for time_s, kinds in reversed(self.config.waves) for kind in kinds}
        entries = [
            (start.get(job.spec.kind, 0.0), seq, EV_JOB_SUBMITTED, job, 0)
            for seq, job in enumerate(self.jobs.values(), self._seq)
        ]
        late = next((entry for entry in entries if entry[0] < self.clock), None)
        if late:
            raise _clock_error(EV_JOB_SUBMITTED, late[0], self.clock)
        self._seq += len(entries)
        self._heap += entries
        heapq.heapify(self._heap)

    # -- placement --------------------------------------------------------

    def _open_position(self, inst: InstanceState) -> Tuple[List[InstanceState], int, bool]:
        """The region's open list, where ``inst`` sits or would sit in it, and whether it is there."""
        open_list = self._region_free[inst.region]
        i = bisect_left(open_list, inst.created_seq, key=_created_seq)
        return open_list, i, i < len(open_list) and open_list[i] is inst

    def _close(self, inst: InstanceState) -> None:
        open_list, i, present = self._open_position(inst)
        if present:
            del open_list[i]

    def _board(self, job: _Job, inst: InstanceState, now: float) -> None:
        spec = job.spec
        inst.free_vcpus -= spec.vcpu_demand
        inst.free_gpus -= spec.gpu_demand
        inst.resident_jobs.append(job)
        inst.idle_epoch += 1  # cancels any pending idle timeout
        if inst.free_vcpus < 1:
            self._close(inst)
        job.instance = inst
        job.status = ST_RUNNING
        job.work = self._work_table(spec, inst.type_name)
        if inst.active:
            usage = self._usage[(inst.region, inst.type_name)]
            usage[1] += spec.vcpu_demand
            usage[2] += spec.gpu_demand
            self._start_next_item(job, now)

    def _acquire(self, job: _Job, type_name: str, region: str, now: float) -> InstanceState:
        spec, rate = self._quotes[(type_name, region)]
        self._pool[(region, spec.family)] -= 1
        activation = now + self.config.acquisition_latency_s
        per_minute = self.config.acquisitions_per_region_minute
        if per_minute:
            slot = max(self._region_next_slot.get(region, 0.0), now)
            activation = max(activation, slot)
            self._region_next_slot[region] = slot + 60.0 / per_minute
        number = len(self.instances) + 1
        inst = InstanceState(
            id=f"i{number:04d}",
            type_name=type_name,
            region=region,
            vcpus=spec.vcpus,
            gpus=spec.gpus,
            rate=rate,
            acquired_at=activation,
            family=spec.family,
            free_vcpus=spec.vcpus,
            free_gpus=spec.gpus,
            created_seq=number,
        )
        self.instances[inst.id] = inst
        self._region_free[region].append(inst)  # the newest instance sorts last
        self._schedule(activation, EV_INSTANCE_ACQUIRED, inst)
        self._board(job, inst, now)
        return inst

    def _place(self, job: _Job, now: float) -> str:
        """First-fit pack onto a candidate type, else acquire one, else queue; no candidate fails.

        Only instances with at least one free vCPU are scanned (full ones
        can never accept a job), in acquisition order.  The first candidate
        whose family has pool left is acquired.
        """
        candidates = job.candidates
        if not candidates.types:
            job.status = ST_FAILED
            return "infeasible"
        spec = job.spec
        vd, gd = spec.vcpu_demand, spec.gpu_demand
        names = candidates.names
        region = job.region
        for inst in self._region_free[region]:
            if inst.type_name in names and inst.free_vcpus >= vd and inst.free_gpus >= gd:
                self._board(job, inst, now)
                return "packed"
        for type_name, family in candidates.types:
            if self._pool[(region, family)] > 0:
                self._acquire(job, type_name, region, now)
                return "acquired"
        job.status = ST_QUEUED
        return "queued"

    def _enqueue(self, job: _Job) -> None:
        buckets = self._region_queue[job.region]
        bucket = buckets.get(job.candidates)
        if bucket is None:
            bucket = buckets[job.candidates] = deque()
        bucket.append((self._arrivals, job))
        self._arrivals += 1

    def _retry_queue(self, region: str, now: float) -> None:
        """Try to place the region's queued jobs, oldest arrival first.

        Capacity only shrinks during a pass, so a bucket whose oldest job
        stays queued would fail again for every later job in it (they have
        the same demand and candidates): it sits out the rest of the pass.
        """
        buckets = self._region_queue[region]
        if not buckets:
            return
        trying = list(buckets.values())
        while trying:
            bucket = min(trying, key=_head_arrival)
            if self._place(bucket[0][1], now) == "queued":
                trying.remove(bucket)
                continue
            bucket.popleft()
            if not bucket:
                trying.remove(bucket)
        for key in [key for key, bucket in buckets.items() if not bucket]:
            del buckets[key]

    # -- job execution ----------------------------------------------------

    def _start_next_item(self, job: _Job, now: float) -> None:
        """Queue the completion of the job's item at its cursor (the loop queues the rest)."""
        kind, duration, fifo = job.work[job.cursor]
        time = now + duration
        if time < self.clock:
            raise _clock_error(kind, time, self.clock)
        job.work_started_at = now
        entry = (time, self._seq, job, job.epoch, fifo)
        if not fifo:
            heapq.heappush(self._item_heads, entry)
        fifo.append(entry)
        self._seq += 1

    # -- event rows -----------------------------------------------------------

    def _record(self, row: EventRow) -> None:
        """Add an event row to the pending block, and hand the block over once it is full."""
        self._rows.append(row)
        if len(self._rows) >= EVENT_BLOCK_ROWS:
            self._hand_over()

    def _hand_over(self) -> List[EventRow]:
        """Give the pending rows to the recorder; returns the new, empty block."""
        rows, self._rows = self._rows, []
        self.recorder.record_events(rows)
        return self._rows

    # -- instance teardown --------------------------------------------------

    def _terminate_instance(self, inst: InstanceState, now: float) -> None:
        inst.terminated_at = now
        usage = self._usage[(inst.region, inst.type_name)]
        usage[0] -= 1
        usage[1] -= inst.vcpus - inst.free_vcpus
        usage[2] -= inst.gpus - inst.free_gpus
        self._close(inst)
        bill = self.ledger.bill(inst, now)
        if self.recorder is not None:
            self.recorder.record_bill(bill)
        self._pool[(inst.region, inst.family)] += 1

    # -- event handlers -----------------------------------------------------

    def _on_job_submitted(self, job: _Job, now: float) -> None:
        job.submissions += 1
        self.n_submissions += 1
        job.region = self.router.route()
        outcome = self._place(job, now)
        if outcome == "queued":
            self._enqueue(job)
        elif outcome == "acquired":
            # Leftover capacity on the fresh instance may fit queued jobs.
            self._retry_queue(job.region, now)

    def _on_instance_acquired(self, inst: InstanceState, now: float) -> None:
        inst.active = True
        usage = self._usage.setdefault((inst.region, inst.type_name), [0, 0, 0])
        usage[0] += 1
        usage[1] += inst.vcpus - inst.free_vcpus
        usage[2] += inst.gpus - inst.free_gpus
        planned = None
        if self.config.payment == cat.SPOT:  # only Spot capacity is reclaimed at random
            draw = self.config.preemption.draw_seconds_until_preemption(self.rng, inst.region, inst.family)
            if draw is not None:
                planned = now + draw
        scripted = self.config.scripted_preemptions.get(inst.id)
        if scripted is not None:
            scripted = max(scripted, now)
            planned = scripted if planned is None else min(planned, scripted)
        if planned is not None:
            heapq.heappush(self._heap, (planned, _RECLAIM_SEQ + inst.created_seq, EV_PREEMPTION, inst, 0))
        for job in inst.resident_jobs:
            self._start_next_item(job, now)

    def _on_job_completed(self, job: _Job, now: float) -> None:
        spec = job.spec
        inst = job.instance
        job.status = ST_DONE
        job.completed_at = now
        job.work = ()
        inst.resident_jobs.remove(job)
        inst.free_vcpus += spec.vcpu_demand
        inst.free_gpus += spec.gpu_demand
        usage = self._usage[(inst.region, inst.type_name)]
        usage[1] -= spec.vcpu_demand
        usage[2] -= spec.gpu_demand
        open_list, i, present = self._open_position(inst)
        if not present and inst.free_vcpus >= 1:
            open_list.insert(i, inst)
        job.instance = None
        inst.idle_epoch += 1
        if not inst.resident_jobs and self.config.grace_period_s is not None:
            self._schedule(now + self.config.grace_period_s, EV_IDLE_TIMEOUT, inst, inst.idle_epoch)
        self._retry_queue(inst.region, now)

    def _on_preemption(self, inst: InstanceState, now: float) -> None:
        self.n_preemptions += 1
        self._terminate_instance(inst, now)
        for job in inst.resident_jobs:
            wasted = now - job.work_started_at
            self.ledger.wasted_core_seconds += wasted * job.spec.vcpu_demand
            if self.recorder is not None:
                event, duration, _ = job.work[job.cursor]
                self.recorder.record_waste((inst.id, job.spec.id, wasted, _ITEM_KINDS[event], duration))
            job.epoch += 1  # invalidates the in-flight completion event
            job.instance = None
            job.work = ()
            job.status = ST_PENDING
            self._schedule(now, EV_JOB_SUBMITTED, job)
        inst.resident_jobs.clear()
        inst.free_vcpus = inst.vcpus
        inst.free_gpus = inst.gpus
        self._retry_queue(inst.region, now)

    def _on_idle_timeout(self, inst: InstanceState, now: float) -> None:
        self._terminate_instance(inst, now)
        self._retry_queue(inst.region, now)

    # -- metrics --------------------------------------------------------------

    def _take_sample(self, time_s: float) -> None:
        for (region, type_name), (count, vcpus, gpus) in sorted(self._usage.items()):
            if count:
                self.samples.append(MetricsSample(time_s, region, type_name, count, vcpus, gpus))

    def _flush_samples(self, until: float, inclusive: bool = False) -> None:
        """Take every sample due before ``until``, or also at it when ``inclusive``."""
        while self._next_sample < until or (inclusive and self._next_sample == until):
            self._take_sample(self._next_sample)
            self._next_sample += self.config.metrics_interval_s

    # -- main loop -------------------------------------------------------------

    def _run_items(self, stop: float, t_event: float, seq_event: int) -> Optional[_Job]:
        """Handle queued work items in (time, seq) order while they are due by ``stop``.

        ``stop`` is the earliest of the next sample time, the end of the
        advance and the time ``t_event`` of the event heap's head, whose seq
        is ``seq_event``.  An item at ``stop`` still runs before a sample at
        that instant, and before the heap's head if its seq is the smaller,
        as it always is against a reclaim.  Returns the job whose completion
        it reached (counted and recorded; its handler is left to the caller),
        else None.

        Every persisted item queues the job's next item and so takes one
        seq; the items handled are counted from the seqs taken.
        """
        heads, ledger, completions = self._item_heads, self.ledger, self._completions
        heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
        rows = None if self.recorder is None else self._rows
        block = EVENT_BLOCK_ROWS
        strict_checks = self.config.strict_checks
        clock, seq = self.clock, self._seq
        productive = ledger.productive_core_seconds
        try:
            while heads:
                time, item_seq, job, epoch, fifo = heads[0]
                if time >= stop and (
                    time > stop or time == math.inf or (time == t_event and item_seq > seq_event)
                ):
                    return None
                fifo.popleft()
                if fifo:
                    heapreplace(heads, fifo[0])
                else:
                    heappop(heads)
                if job.epoch != epoch:  # the job was preempted since
                    continue
                clock = time
                work, cursor = job.work, job.cursor
                if rows is not None:
                    rows.append((time, item_seq, work[cursor][0], job.spec.id, job.instance.id))
                    if len(rows) >= block:
                        rows = self._hand_over()
                if fifo is completions:
                    self.n_events += 1
                    return job
                # The item reached a persisted boundary: credit it, count it
                # and queue the next item behind the others of its duration.
                productive += (time - job.work_started_at) * job.spec.vcpu_demand
                cursor += 1
                job.cursor = cursor
                next_kind, duration, next_fifo = work[cursor]
                next_time = time + duration
                if next_time < time:
                    raise _clock_error(next_kind, next_time, time)
                job.work_started_at = time
                entry = (next_time, seq, job, epoch, next_fifo)
                if not next_fifo:
                    heappush(heads, entry)
                next_fifo.append(entry)
                seq += 1
                if strict_checks:
                    self.n_events += seq - self._seq
                    self.clock, self._seq = clock, seq
                    ledger.productive_core_seconds = productive
                    self._check_invariants()
            return None
        finally:
            self.n_events += seq - self._seq
            self.clock, self._seq = clock, seq
            ledger.productive_core_seconds = productive

    def advance(self, until: float = math.inf) -> None:
        """Process every event with time <= until, and take every metrics sample due before until.

        A sample at ``until`` itself waits: events may still be scheduled at
        that instant, and a sample is taken after the events at its time.
        The event rows still pending go to the recorder before it returns,
        also when it raises.
        """
        if until < self.clock:
            raise SimulationError(f"cannot advance to {until}: clock is already at {self.clock}")
        try:
            self._advance(until)
        finally:
            if self._rows:
                self._hand_over()

    def _advance(self, until: float) -> None:
        handlers = {
            EV_JOB_SUBMITTED: self._on_job_submitted,
            EV_INSTANCE_ACQUIRED: self._on_instance_acquired,
            EV_PREEMPTION: self._on_preemption,
            EV_IDLE_TIMEOUT: self._on_idle_timeout,
        }
        heap, heads = self._heap, self._item_heads
        heappop = heapq.heappop
        recording = self.recorder is not None
        strict_checks = self.config.strict_checks
        while True:
            entry = heap[0] if heap else None
            t_next = math.inf if entry is None else entry[0]
            item_next = bool(heads) and (entry is None or heads[0] < entry)
            if item_next:
                stop = min(self._next_sample, until, t_next)
                completed = self._run_items(stop, t_next, -1 if entry is None else entry[1])
                if completed is not None:
                    self._on_job_completed(completed, self.clock)
                    if strict_checks:
                        self._check_invariants()
                    continue
                item_next = bool(heads) and (entry is None or heads[0] < entry)
                if item_next:
                    t_next = heads[0][0]
            if t_next > until or t_next == math.inf:
                break
            if not item_next:
                _, seq, kind, subject, epoch = heappop(heap)
                # A reclaim or an idle timeout is stale once its instance has
                # terminated, an idle timeout also once its instance has been
                # boarded since (every boarding bumps idle_epoch).  A stale
                # event takes no sample: one planned long after the run's end
                # would otherwise sample all the way to it.
                if kind == EV_PREEMPTION:
                    if subject.terminated:
                        continue
                    seq = self._seq  # the heap seq only placed it; its row takes the next seq
                    self._seq = seq + 1
                elif kind == EV_IDLE_TIMEOUT and (subject.terminated or subject.idle_epoch != epoch):
                    continue
            if self._next_sample < t_next:
                self._flush_samples(t_next)
            if item_next:
                continue  # the samples due before it are taken; _run_items handles it next
            self.clock = t_next
            self.n_events += 1
            if recording:
                if isinstance(subject, _Job):
                    self._record((t_next, seq, kind, subject.spec.id, ""))
                else:
                    self._record((t_next, seq, kind, "", subject.id))
            handlers[kind](subject, t_next)
            if strict_checks:
                self._check_invariants()
        if until != math.inf:
            self._flush_samples(until)
            self.clock = max(self.clock, until)

    def run(self) -> SummaryReport:
        """Submit everything, drain the event queue, and close the books."""
        if not self._submitted:
            self.submit_all()
        self.advance(math.inf)
        unfinished = [j.spec.id for j in self.jobs.values() if j.status not in (ST_DONE, ST_FAILED)]
        if unfinished:
            raise SimulationError(
                f"run stalled with {len(unfinished)} unfinished job(s), e.g. {unfinished[:3]}; "
                "check pool capacities and allowed instance types"
            )
        for inst in self.instances.values():
            if not inst.terminated:
                # Grace period of None keeps instances up forever; close
                # them out at the final clock so billing is complete.
                self._terminate_instance(inst, self.clock)
        self._flush_samples(self.clock, inclusive=True)
        return self.summary()

    def summary(self) -> SummaryReport:
        done = [j for j in self.jobs.values() if j.status == ST_DONE]
        n_failed = sum(1 for j in self.jobs.values() if j.status == ST_FAILED)
        n_fe = len({j.spec.fe_label for j in self.jobs.values()})
        cost_per_fe = self.ledger.total_cost / n_fe if n_fe else None
        return SummaryReport(
            seed=self.config.seed,
            makespan_s=max((j.completed_at for j in done), default=0.0),
            final_time_s=self.clock,
            total_cost=self.ledger.total_cost,
            cost_per_fe=cost_per_fe,
            n_fe_differences=n_fe,
            n_jobs=len(self.jobs),
            n_completed=len(done),
            n_failed=n_failed,
            n_submissions=self.n_submissions,
            n_instances=len(self.instances),
            n_preemptions=self.n_preemptions,
            n_events=self.n_events,
            productive_core_hours=self.ledger.productive_core_seconds / 3600.0,
            wasted_core_hours=self.ledger.wasted_core_seconds / 3600.0,
            billed_core_hours=self.ledger.billed_core_seconds / 3600.0,
        )

    # -- strict checks -----------------------------------------------------------

    def _check_invariants(self) -> None:
        expected_open: Dict[str, List[str]] = {r: [] for r in self._region_free}
        for inst in self.instances.values():  # in acquisition order
            if inst.terminated:
                continue
            used_v = sum(job.spec.vcpu_demand for job in inst.resident_jobs)
            used_g = sum(job.spec.gpu_demand for job in inst.resident_jobs)
            if inst.free_vcpus != inst.vcpus - used_v or inst.free_vcpus < 0:
                raise SimulationError(f"instance {inst.id}: vcpu accounting broken")
            if inst.free_gpus != inst.gpus - used_g or inst.free_gpus < 0:
                raise SimulationError(f"instance {inst.id}: gpu accounting broken")
            if inst.free_vcpus >= 1:
                expected_open[inst.region].append(inst.id)
        for region, open_list in self._region_free.items():
            seqs = [inst.created_seq for inst in open_list]
            if any(a >= b for a, b in zip(seqs, seqs[1:])):
                raise SimulationError(f"region {region}: open instances out of acquisition order")
            if [inst.id for inst in open_list] != expected_open[region]:
                raise SimulationError(f"region {region}: open-capacity index out of date")
        recount: Dict[Tuple[str, str], List[int]] = {}
        for inst in self.instances.values():
            if not inst.active or inst.terminated:
                continue
            usage = recount.setdefault((inst.region, inst.type_name), [0, 0, 0])
            usage[0] += 1
            usage[1] += inst.vcpus - inst.free_vcpus
            usage[2] += inst.gpus - inst.free_gpus
        if {key: usage for key, usage in self._usage.items() if any(usage)} != recount:
            raise SimulationError("usage counters disagree with the active instances")
        for job_id, job in self.jobs.items():
            count = job.cursor
            plan = job.spec.phase_plan
            # The length of its work table: chunks, transitions, integration and completion.
            if not 0 <= count < plan.equil_chunks + plan.n_transitions + 2:
                raise SimulationError(f"job {job_id}: persisted item count {count} is out of range")
            if count < self._last_progress.get(job_id, 0):
                raise SimulationError(f"job {job_id}: persisted progress went backwards")
            self._last_progress[job_id] = count
