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

A job is its index in the job sequence the engine is built from; event
entries, resident tuples and queue buckets hold the index, and
flat sequences indexed by it (``job_status``, ``job_epoch``, ``job_instance``,
``job_arrival``, ``job_started``, ``job_work``, ``job_cursor`` and
``job_shape``) hold its state.  Jobs that agree on kind, system, demand
(vCPUs, GPUs), phase plan and timestep share one shape (``job_shape``),
built at construction: those fields, the candidate types and one work
table per candidate type.
The engine reads a job's id from the sequence only for a row or a message:
an expanded workload builds a ``JobSpec`` only when read, so an engine built
from one holds no ``JobSpec`` and no id string; a recorded run reads every
id once.

A shape's candidate types are the types allowed for its kind that fit its
demand and have a rate for its system in the benchmark set's rate table.
A job packs onto and acquires only candidate types, and one with no
candidate fails as infeasible, so no rate is ever found missing mid-run;
``no_candidates`` lists each (kind, system, vCPUs, GPUs) with no candidate
and the types listed for its kind.  Systems of the jobs with no benchmark
record at all stop construction, named together in one error.

Queued jobs wait per region in arrival order.  Whenever capacity may have
freed, the region's queue is retried oldest first; capacity only shrinks
during one retry pass, so once a job of some demand and candidates stays
queued, the later jobs with both the same wait out the rest of the pass.
The queue is kept as one FIFO bucket of jobs per (demand, candidates) so
that a pass costs O(placements + buckets), not O(queue length); a job's
arrival number (``job_arrival``) tells which bucket's head is the oldest.

A job's work (``job_work``) is its shape's table for its instance's type:
one entry of (completion event, duration, FIFO) per item, in the order
the items run.  Each equilibration chunk comes first, then each
transition, then the integration and the job's completion, both of zero
duration.  A job's progress (``job_cursor``) is the number of items it has
persisted, which is also the index in the table of the item that runs next.
The count only grows; a preemption loses the item in flight and leaves the
count as it is.  When a job boards an instance, it takes the table for that
instance's type and resumes at its count.

Every event but a reclaim waits in a FIFO, as an entry ``(time, seq,
subject, epoch, FIFO)`` whose subject is the job, instance or wave the
event is about.  Every FIFO but a work item's carries the handler that
runs its events; the loop runs work items itself.  Seq is a counter that
every scheduled event takes, so it only grows, and the clock never goes
back.  Each FIFO takes
its events at the clock plus one fixed delay, or at a time that never
decreases, so its entries arrive in (time, seq) order:

- resubmissions after a reclaim, at the clock;
- idle timeouts, at the clock plus the grace period;
- acquisitions, one FIFO per region, at the clock plus the latency, or at
  the region's next rate-limit slot, which never decreases;
- work items, one FIFO per distinct item duration, and the jobs'
  completions, of zero duration, at the clock plus the duration (rounding a
  float sum is monotone);
- waves: one entry per start time, in time order.

One heap holds the head entry of every FIFO that is not empty, so taking
its smallest entry gives the global (time, seq) order.  The loop handles
consecutive work items in a tight loop: credit the item, add one to the
count and append the next item to its duration's FIFO.  Each persisted item
takes one seq, so the loop counts its events from the seqs it took.  The
jobs' first submissions take one seq per job, consecutive in job order, in
``submit_all``.  The jobs that start at one time form a wave; its entry
takes the seq of its lowest job, and its handler submits the wave's jobs in
job order, each with its own seq and row.  Every other event at that time
took a seq before the wave's or takes one after the whole wave, so this is
the order one entry per job would give.
Reclaims sit in a sorted list of their own instead: the live instances
that have one, by (``reclaim_at``, ``created_seq``).  Activation inserts an
instance and termination, however the instance ends, deletes it.

An instance shares its type, region, family, vCPUs, GPUs and hourly rate
with the others of its type and region, as one ``Offer`` built at
construction; its resident jobs are a tuple in boarding order, ``()`` when
it holds none.  First-fit placement scans a region's open instances (those
with a free vCPU) in acquisition order; the list is kept in that order as
instances fill, free up and terminate, so a placement never sorts.  Metrics
samples read per-offer usage counters that activation, boarding, completion
and termination keep up to date.

The engine keeps no row of its output (see ``recorder``).  It hands each
instance bill and preemption waste row to its recorder as the row happens.
Event rows wait in one pending block, which goes to the recorder when it
holds ``EVENT_BLOCK_ROWS`` rows and at the end of every ``advance``, also
one that raises.  Without a recorder it builds no rows at all; the ledger
keeps only running totals, and metrics samples stay in ``samples``.  Nor
does it keep a terminated instance: ``instances`` holds the live ones, in
acquisition order, and an instance's bill is the record of it once it
terminates.  ``n_instances`` counts the acquisitions and numbers them.

Determinism: a single seeded RNG drives routing draws and preemption
draws; events are processed in (time, seq) order with seq assigned at
scheduling time, and scheduling an event before the clock is an error.
Each instance has at most one reclaim, planned when it activates.  It
runs after every other event at its instant, also those scheduled there
later: the loop takes it only when it is strictly earlier than every FIFO
head.  It takes the next seq for its row when it runs.  So a completion
and a reclaim falling on the same timestamp always resolve in the job's
favor, reclaims at one instant run in acquisition order, the list's order,
and a second reclaim waits for the events the first one scheduled there.
A reclaim leaves with its instance, so none is ever stale; termination
also bumps the instance's idle epoch, so its pending idle timeout, if any,
is stale by its epoch alone.  Equal inputs and seed reproduce the event
log bit for bit.

The engine is strictly single-threaded; independent engines may run
concurrently but must never share state.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import attrgetter, eq
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import catalog as cat
from .. import perfmodel
from ..errors import MissingRecordError, SimulationError, ValidationError, finite_number
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

# An event waiting in its FIFO: (time, seq, subject, epoch, that FIFO).
Entry = Tuple[float, int, object, int, Deque]

# (event that completes it, duration in seconds, FIFO of that duration) for
# one item of a job's work on one instance type.
WorkEntry = Tuple[str, float, Deque[Entry]]


class _EventFifo(deque):
    """The FIFO of every event but a work item, and the handler that runs its events.

    ``handler(engine, time, seq, subject, epoch)`` runs an entry's event;
    it is an ``Engine`` method taken from the class, so that a FIFO holds no
    reference to its engine.  Work items wait in plain deques instead, which
    the loop runs itself: a deque subclass's append and popleft take about
    30 ns more a call, and the work-item loop calls each once per item.
    """

    __slots__ = ("handler",)

    def __init__(self, handler: Callable[..., None]):
        super().__init__()
        self.handler = handler


@dataclass(frozen=True, slots=True, eq=False)
class Offer:
    """One allowed instance type in one routed region, built at construction and shared by its instances."""

    type_name: str
    region: str
    family: str
    vcpus: int
    gpus: int
    rate: float  # hourly, at the run's payment model


@dataclass(slots=True)
class InstanceState:
    """One acquired (or requested) instance and its current occupancy."""

    id: str
    offer: Offer
    acquired_at: float
    active: bool = False
    resident_jobs: Tuple[int, ...] = ()  # in boarding order
    free_vcpus: int = 0
    free_gpus: int = 0
    idle_epoch: int = 0
    created_seq: int = 0
    reclaim_at: Optional[float] = None  # its planned reclaim, in the engine's reclaim list while it is up


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
        offer = instance.offer
        duration = until - instance.acquired_at
        cost = duration / 3600.0 * offer.rate
        self.total_cost += cost
        self.billed_core_seconds += duration * offer.vcpus
        return (instance.id, duration, offer.rate, cost)


@dataclass(slots=True)
class MetricsSample:
    time_s: float
    region: str
    instance_type: str
    active_instances: int
    vcpus_in_use: int
    gpus_in_use: int


def _invalid(key: str, rule: str, value) -> ValidationError:
    return ValidationError(f"{key} must be {rule}, got {value!r}")


def _is_instance_id(name) -> bool:
    """Whether ``name`` is an id the engine gives an instance: i0001, i0002, ..., i9999, i10000, ..."""
    if not (isinstance(name, str) and name[:1] == "i" and name[1:].isdecimal()):
        return False
    number = int(name[1:])
    return number >= 1 and name == f"i{number:04d}"


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
            if not _is_instance_id(instance_id):
                raise _invalid(f"scripted_preemptions.{instance_id}", "an instance id (i0001, i0002, ...)", instance_id)
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
    """A shape's candidate types: one object per (demand, candidates), whose identity keys a queue bucket."""

    types: Tuple[Tuple[str, str], ...]  # (type, family), in allowed order


@dataclass(slots=True, eq=False)
class _Shape:
    """What the jobs of one (kind, system, vCPUs, GPUs, phase plan, timestep) share, built at construction."""

    kind: str
    system: str
    vcpus: int
    gpus: int
    plan: PhasePlan
    timestep_fs: float
    candidates: _Candidates
    tables: Dict[str, Tuple[WorkEntry, ...]]  # the work table per candidate type


# A job's shape key, in the order of _Shape's first fields.
_shape_key = attrgetter("kind", "system", "vcpu_demand", "gpu_demand", "phase_plan", "timestep_fs")


_created_seq = attrgetter("created_seq")
# The order of the reclaim list: by planned time, then acquisition.
_reclaim_key = attrgetter("reclaim_at", "created_seq")


def _usage_order(item: Tuple[Offer, List[int]]) -> Tuple[str, str]:
    """Metrics samples come by region, then type."""
    return item[0].region, item[0].type_name


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
        self.n_instances = 0  # acquisitions so far; numbers the instances
        self._makespan = 0.0  # the time of the last completion

        # The live instances that have a planned reclaim, by (reclaim_at,
        # created_seq); no FIFO holds a reclaim.
        self._reclaims: List[InstanceState] = []
        # The FIFOs of events (see the module docstring), and a heap of the
        # head entry of every FIFO that is not empty.  Seq is unique across
        # the FIFOs, so entries never compare past it.
        self._item_fifos: Dict[float, Deque[Entry]] = {}  # per distinct item duration
        self._completions = _EventFifo(Engine._on_job_completed)
        self._resubmissions = _EventFifo(Engine._on_job_submitted)
        self._idle_timeouts = _EventFifo(Engine._on_idle_timeout)
        self._acquisitions = {r: _EventFifo(Engine._on_instance_acquired) for r in catalog.regions}
        self._wave_fifo = _EventFifo(Engine._on_wave)
        self._heads: List[Entry] = []
        # Event rows not yet handed to the recorder, at most one block.
        self._rows: List[EventRow] = []
        self._job_ids: Optional[List[str]] = None  # every job's id, read once a recorder needs them
        self._last_progress: List[int] = []  # each job's count at the last strict check
        self._seq = 0
        self._arrivals = 0  # queue arrivals so far; orders the queue buckets
        # Without an interval no sample is ever due.
        self._next_sample = math.inf if config.metrics_interval_s is None else 0.0
        self._region_next_slot: Dict[str, float] = {}

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
        # Per (allowed type, routed region): its offer.  An unknown type or a
        # missing rate fails here, not mid-run.
        self._offers: Dict[Tuple[str, str], Offer] = {}
        for names in config.allowed_types.values():
            for name in names:
                spec = catalog.instance(name)
                for region in routed:
                    rate = cat.lookup_rate(catalog, name, region, config.payment)
                    self._offers[(name, region)] = Offer(name, region, spec.family, spec.vcpus, spec.gpus, rate)
        # Per (region, family): the instances its pool has left to lend, from
        # the region's override of the family, else of "*", else the catalog.
        self._pool: Dict[Tuple[str, str], int] = {}
        for region, spec in catalog.regions.items():
            override = pools.get(region, {})
            for family in families:
                self._pool[(region, family)] = override.get(family, override.get("*", spec.pool_capacity(family)))

        # Per system of the jobs, its rate table; systems with no record fail here, all named at once.
        system_rates: Dict[str, Dict[str, perfmodel.PhaseRates]] = {}
        missing: List[str] = []
        records = perfmodel.BenchmarkSet(records)
        by_need: Dict[Tuple[str, str, int, int], _Candidates] = {}  # per (kind, system, vCPUs, GPUs)
        shared: Dict[Tuple[int, int, tuple], _Candidates] = {}  # per (vCPUs, GPUs, candidates)
        shapes: Dict[tuple, _Shape] = {}  # per shape key
        # Each (kind, system, vCPUs, GPUs) of the jobs with no candidate type,
        # with the types listed for the kind, in first-seen job order.
        self.no_candidates: List[Tuple[str, str, int, int, Tuple[str, ...]]] = []
        self.job_shape: List[_Shape] = []
        id_hashes, fe_labels = [], set()
        # Expansion lists the jobs of one shape next to each other, so the
        # shape is looked up once per run of them; groupby compares the keys,
        # whose fields are mostly the same objects, without hashing a plan.
        for key, run in groupby(jobs, _shape_key):
            shape = shapes.get(key)
            if shape is None:
                kind, system, vd, gd, plan, timestep_fs = key
                need = key[:4]
                candidates = by_need.get(need)
                if candidates is None:
                    rates = system_rates.get(system)
                    if rates is None:
                        try:
                            rates = records.rates(system, config.transition_slowdown)
                        except MissingRecordError:
                            missing.append(system)
                            rates = {}
                        system_rates[system] = rates
                    listed = config.allowed_types.get(kind, [])
                    specs = [(name, catalog.instance(name)) for name in listed]
                    types = tuple((n, s.family) for n, s in specs if n in rates and s.vcpus >= vd and s.gpus >= gd)
                    if not types and system not in missing:
                        self.no_candidates.append((*need, tuple(listed)))
                    fresh = _Candidates(types)
                    candidates = by_need[need] = shared.setdefault((vd, gd, types), fresh)
                rates = system_rates[system]
                tables = {name: self._work_table(plan, timestep_fs, rates[name]) for name, _ in candidates.types}
                shape = shapes[key] = _Shape(*key, candidates, tables)
            for spec in run:
                id_hashes.append(hash(spec.id))
                fe_labels.add(spec.fe_label)
                self.job_shape.append(shape)
        if missing:
            noun = "system" if len(missing) == 1 else "systems"
            raise MissingRecordError(f"no benchmark record for {noun} {', '.join(map(repr, missing))}")
        # Sorted hashes find a repeated id without a set of every id, whose table would
        # outlive the build as heap fragmentation; a repeated hash walks the jobs again.
        id_hashes.sort()
        if any(map(eq, id_hashes, islice(id_hashes, 1, None))):
            seen = set()
            for spec in jobs:
                if spec.id in seen:
                    raise ValidationError(f"duplicate job id {spec.id}")
                seen.add(spec.id)
        self._jobs: Sequence[JobSpec] = jobs
        self._n_fe = len(fe_labels)
        n = len(self.job_shape)
        self.job_status: List[str] = [ST_PENDING] * n
        self.job_epoch: List[int] = [0] * n
        self.job_instance: List[Optional[InstanceState]] = [None] * n
        # Its last queue arrival, while it is queued: one 8-byte slot per job,
        # in a memoryview rather than an array, whose extension module would
        # add to the memory of every process that imports the engine.
        self.job_arrival = memoryview(bytearray(8 * n)).cast("q")
        self.job_started: List[float] = [0.0] * n  # when its item in flight started; 0.0 once done
        self.job_work: List[Sequence[WorkEntry]] = [()] * n
        self.job_cursor: List[int] = [0] * n

        # The live instances, in acquisition order; a terminated one leaves.
        self.instances: Dict[str, InstanceState] = {}
        # Per offer (region and type): [active instances, vCPUs in use, GPUs in use].
        self._usage: Dict[Offer, List[int]] = {}
        # Per region, the unterminated instances with a free vCPU, in acquisition order.
        self._region_free: Dict[str, List[InstanceState]] = {r: [] for r in catalog.regions}
        # Per region, one FIFO of jobs per shared candidates object.
        self._region_queue: Dict[str, Dict[_Candidates, Deque[int]]] = {r: {} for r in catalog.regions}

        self._submitted = False

    # -- scheduling primitives -------------------------------------------

    def _schedule(self, kind: str, time: float, fifo: Deque[Entry], subject, epoch: int = 0) -> None:
        """Queue an event ``kind`` about ``subject`` at ``time`` at the back of ``fifo``, with the next seq."""
        if time < self.clock:
            raise _clock_error(kind, time, self.clock)
        entry = (time, self._seq, subject, epoch, fifo)
        if not fifo:
            heapq.heappush(self._heads, entry)
        fifo.append(entry)
        self._seq += 1

    def _fifos(self) -> List[Deque[Entry]]:
        """Every FIFO of events."""
        return [
            *self._item_fifos.values(), self._completions, self._resubmissions, self._idle_timeouts,
            *self._acquisitions.values(), self._wave_fifo,
        ]

    def _work_table(
        self, plan: PhasePlan, timestep_fs: float, rates: perfmodel.PhaseRates
    ) -> Tuple[WorkEntry, ...]:
        """Every work item of ``plan`` at ``rates`` as (event, duration, FIFO), in work order.

        Chunks run at the equilibration rate and transitions at the
        transition rate; integration and completion take no time.
        """
        _, equil_rate, transition_rate = rates
        steps = [(EV_CHUNK_DONE, plan.chunk_length(i), equil_rate) for i in range(plan.equil_chunks)]
        steps += [(EV_TRANSITION_DONE, plan.transition_steps, transition_rate)] * plan.n_transitions
        work = [(event, n * timestep_fs * 1e-6 / rate * SECONDS_PER_DAY) for event, n, rate in steps]
        work.append((EV_INTEGRATE_DONE, 0.0))
        fifos = self._item_fifos
        table = tuple((e, d, fifos.setdefault(d, deque())) for e, d in work)
        return table + ((EV_JOB_COMPLETED, 0.0, self._completions),)

    # -- submission -------------------------------------------------------

    def _start_times(self) -> Dict[str, float]:
        """Each kind's start time: the first wave that names it submits it; a kind no wave names starts at 0 s."""
        return {kind: time_s for time_s, kinds in reversed(self.config.waves) for kind in kinds}

    def submit_all(self) -> None:
        """Schedule every job's submission, in job order with consecutive seqs.

        The jobs that start at one time form a wave.  The wave FIFO holds
        one entry per start time, in time order, which carries the seq of
        the wave's lowest job; its handler submits the wave's jobs.
        """
        if self._submitted:
            raise SimulationError("jobs were already submitted")
        self._submitted = True
        start = self._start_times()
        waves: Dict[float, List[range]] = {}
        job = 0
        for shape, run in groupby(self.job_shape):
            end = job + sum(1 for _ in run)
            time_s = start.get(shape.kind, 0.0)
            if time_s < self.clock:
                raise _clock_error(EV_JOB_SUBMITTED, time_s, self.clock)
            waves.setdefault(time_s, []).append(range(job, end))
            job = end
        base = self._seq  # job j's first submission takes seq base + j
        self._seq += job
        fifo = self._wave_fifo
        fifo.extend((t, base + waves[t][0].start, waves[t], 0, fifo) for t in sorted(waves))
        if fifo:
            heapq.heappush(self._heads, fifo[0])

    # -- placement --------------------------------------------------------

    def _open_position(self, inst: InstanceState) -> Tuple[List[InstanceState], int, bool]:
        """The region's open list, where ``inst`` sits or would sit in it, and whether it is there."""
        open_list = self._region_free[inst.offer.region]
        i = bisect_left(open_list, inst.created_seq, key=_created_seq)
        return open_list, i, i < len(open_list) and open_list[i] is inst

    def _close(self, inst: InstanceState) -> None:
        open_list, i, present = self._open_position(inst)
        if present:
            del open_list[i]

    def _board(self, job: int, inst: InstanceState, now: float) -> None:
        shape = self.job_shape[job]
        inst.free_vcpus -= shape.vcpus
        inst.free_gpus -= shape.gpus
        inst.resident_jobs += (job,)
        inst.idle_epoch += 1  # cancels any pending idle timeout
        if inst.free_vcpus < 1:
            self._close(inst)
        self.job_instance[job] = inst
        self.job_status[job] = ST_RUNNING
        self.job_work[job] = shape.tables[inst.offer.type_name]
        if inst.active:
            usage = self._usage[inst.offer]
            usage[1] += shape.vcpus
            usage[2] += shape.gpus
            self._start_next_item(job, now)

    def _acquire(self, job: int, type_name: str, region: str, now: float) -> InstanceState:
        offer = self._offers[(type_name, region)]
        self._pool[(region, offer.family)] -= 1
        activation = now + self.config.acquisition_latency_s
        per_minute = self.config.acquisitions_per_region_minute
        if per_minute:
            slot = max(self._region_next_slot.get(region, 0.0), now)
            activation = max(activation, slot)
            self._region_next_slot[region] = slot + 60.0 / per_minute
        self.n_instances += 1
        number = self.n_instances
        inst = InstanceState(
            id=f"i{number:04d}",
            offer=offer,
            acquired_at=activation,
            free_vcpus=offer.vcpus,
            free_gpus=offer.gpus,
            created_seq=number,
        )
        self.instances[inst.id] = inst
        self._region_free[region].append(inst)  # the newest instance sorts last
        self._schedule(EV_INSTANCE_ACQUIRED, activation, self._acquisitions[region], inst)
        self._board(job, inst, now)
        return inst

    def _place(self, job: int, region: str, now: float) -> str:
        """First-fit pack in ``region`` onto a candidate type, else acquire one, else queue; no candidate fails.

        Only instances with at least one free vCPU are scanned (full ones
        can never accept a job), in acquisition order.  The first candidate
        whose family has pool left is acquired.
        """
        shape = self.job_shape[job]
        candidates = shape.candidates
        if not candidates.types:
            self.job_status[job] = ST_FAILED
            return "infeasible"
        vd, gd, tables = shape.vcpus, shape.gpus, shape.tables
        for inst in self._region_free[region]:
            if inst.offer.type_name in tables and inst.free_vcpus >= vd and inst.free_gpus >= gd:
                self._board(job, inst, now)
                return "packed"
        for type_name, family in candidates.types:
            if self._pool[(region, family)] > 0:
                self._acquire(job, type_name, region, now)
                return "acquired"
        self.job_status[job] = ST_QUEUED
        return "queued"

    def _enqueue(self, job: int, region: str) -> None:
        buckets = self._region_queue[region]
        candidates = self.job_shape[job].candidates
        bucket = buckets.get(candidates)
        if bucket is None:
            bucket = buckets[candidates] = deque()
        bucket.append(job)
        self.job_arrival[job] = self._arrivals
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
        arrival = self.job_arrival
        trying = list(buckets.values())
        while trying:
            bucket = min(trying, key=lambda bucket: arrival[bucket[0]])
            if self._place(bucket[0], region, now) == "queued":
                trying.remove(bucket)
                continue
            bucket.popleft()
            if not bucket:
                trying.remove(bucket)
        for key in [key for key, bucket in buckets.items() if not bucket]:
            del buckets[key]

    # -- job execution ----------------------------------------------------

    def _start_next_item(self, job: int, now: float) -> None:
        """Queue the completion of the job's item at its cursor (the loop queues the rest)."""
        kind, duration, fifo = self.job_work[job][self.job_cursor[job]]
        self._schedule(kind, now + duration, fifo, job, self.job_epoch[job])
        self.job_started[job] = now

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

    def _occur(self, now: float, seq: int, kind: str, job: Optional[int] = None, inst: Optional[InstanceState] = None):
        """Move the clock to an event that runs and count it; a recorded run also gets its row."""
        self.clock = now
        self.n_events += 1
        if self.recorder is not None:
            self._record((now, seq, kind, "" if job is None else self._job_ids[job], "" if inst is None else inst.id))

    # -- instance teardown --------------------------------------------------

    def _terminate_instance(self, inst: InstanceState, now: float) -> None:
        inst.idle_epoch += 1  # cancels any pending idle timeout
        del self.instances[inst.id]
        if inst.reclaim_at is not None:  # its reclaim leaves with it
            reclaims = self._reclaims
            del reclaims[bisect_left(reclaims, (inst.reclaim_at, inst.created_seq), key=_reclaim_key)]
        offer = inst.offer
        usage = self._usage[offer]
        usage[0] -= 1
        usage[1] -= offer.vcpus - inst.free_vcpus
        usage[2] -= offer.gpus - inst.free_gpus
        self._close(inst)
        bill = self.ledger.bill(inst, now)
        if self.recorder is not None:
            self.recorder.record_bill(bill)
        self._pool[(offer.region, offer.family)] += 1

    # -- event handlers -----------------------------------------------------

    def _on_wave(self, now: float, seq: int, ranges: List[range], _epoch: int) -> None:
        """Submit the jobs that start at ``now``, in job order, each with the seq ``submit_all`` gave it."""
        base = seq - ranges[0].start
        strict_checks = self.config.strict_checks
        for job in chain.from_iterable(ranges):
            self._on_job_submitted(now, base + job, job, 0)
            if strict_checks:
                self._check_invariants()

    def _on_job_submitted(self, now: float, seq: int, job: int, _epoch: int) -> None:
        self._occur(now, seq, EV_JOB_SUBMITTED, job=job)
        self.n_submissions += 1
        region = self.router.route()
        outcome = self._place(job, region, now)
        if outcome == "queued":
            self._enqueue(job, region)
        elif outcome == "acquired":
            # Leftover capacity on the fresh instance may fit queued jobs.
            self._retry_queue(region, now)

    def _on_instance_acquired(self, now: float, seq: int, inst: InstanceState, _epoch: int) -> None:
        self._occur(now, seq, EV_INSTANCE_ACQUIRED, inst=inst)
        inst.active = True
        offer = inst.offer
        usage = self._usage.setdefault(offer, [0, 0, 0])
        usage[0] += 1
        usage[1] += offer.vcpus - inst.free_vcpus
        usage[2] += offer.gpus - inst.free_gpus
        planned = None
        if self.config.payment == cat.SPOT:  # only Spot capacity is reclaimed at random
            draw = self.config.preemption.draw_seconds_until_preemption(self.rng, offer.region, offer.family)
            if draw is not None:
                planned = now + draw
        scripted = self.config.scripted_preemptions.get(inst.id)
        if scripted is not None:
            scripted = max(scripted, now)
            planned = scripted if planned is None else min(planned, scripted)
        if planned is not None:
            inst.reclaim_at = planned
            insort(self._reclaims, inst, key=_reclaim_key)
        for job in inst.resident_jobs:
            self._start_next_item(job, now)

    def _on_job_completed(self, now: float, seq: int, job: int, _epoch: int) -> None:
        # Never stale: it falls at the instant of the job's integration, and a
        # reclaim at that instant runs after it.
        shape = self.job_shape[job]
        inst = self.job_instance[job]
        self._occur(now, seq, EV_JOB_COMPLETED, job=job, inst=inst)
        self.job_status[job] = ST_DONE
        self._makespan = now  # completions run in clock order
        self.job_work[job] = ()
        self.job_started[job] = 0.0
        residents = inst.resident_jobs
        i = residents.index(job)
        inst.resident_jobs = residents[:i] + residents[i + 1:]
        inst.free_vcpus += shape.vcpus
        inst.free_gpus += shape.gpus
        usage = self._usage[inst.offer]
        usage[1] -= shape.vcpus
        usage[2] -= shape.gpus
        open_list, i, present = self._open_position(inst)
        if not present and inst.free_vcpus >= 1:
            open_list.insert(i, inst)
        self.job_instance[job] = None
        inst.idle_epoch += 1
        if not inst.resident_jobs and self.config.grace_period_s is not None:
            timeout = now + self.config.grace_period_s
            self._schedule(EV_IDLE_TIMEOUT, timeout, self._idle_timeouts, inst, inst.idle_epoch)
        self._retry_queue(inst.offer.region, now)

    def _on_preemption(self, inst: InstanceState, now: float) -> None:
        """Reclaim ``inst``, the head of the reclaim list; its row takes the next seq."""
        self._occur(now, self._seq, EV_PREEMPTION, inst=inst)
        self._seq += 1
        self.n_preemptions += 1
        self._terminate_instance(inst, now)
        for job in inst.resident_jobs:
            wasted = now - self.job_started[job]
            self.ledger.wasted_core_seconds += wasted * self.job_shape[job].vcpus
            if self.recorder is not None:
                event, duration, _ = self.job_work[job][self.job_cursor[job]]
                self.recorder.record_waste((inst.id, self._job_ids[job], wasted, _ITEM_KINDS[event], duration))
            self.job_epoch[job] += 1  # invalidates the in-flight completion event
            self.job_instance[job] = None
            self.job_work[job] = ()
            self.job_status[job] = ST_PENDING
            self._schedule(EV_JOB_SUBMITTED, now, self._resubmissions, job)
        inst.resident_jobs = ()
        inst.free_vcpus = inst.offer.vcpus
        inst.free_gpus = inst.offer.gpus
        self._retry_queue(inst.offer.region, now)

    def _on_idle_timeout(self, now: float, seq: int, inst: InstanceState, epoch: int) -> None:
        # Stale once its instance has been boarded or has terminated since:
        # both bump idle_epoch.  A stale event does not count.
        if inst.idle_epoch != epoch:
            return
        self._occur(now, seq, EV_IDLE_TIMEOUT, inst=inst)
        self._terminate_instance(inst, now)
        self._retry_queue(inst.offer.region, now)

    # -- metrics --------------------------------------------------------------

    def _take_sample(self, time_s: float) -> None:
        for offer, (count, vcpus, gpus) in sorted(self._usage.items(), key=_usage_order):
            if count:
                self.samples.append(MetricsSample(time_s, offer.region, offer.type_name, count, vcpus, gpus))

    def _flush_samples(self, until: float, inclusive: bool = False) -> None:
        """Take every sample due before ``until``, or also at it when ``inclusive``."""
        while self._next_sample < until or (inclusive and self._next_sample == until):
            self._take_sample(self._next_sample)
            self._next_sample += self.config.metrics_interval_s

    # -- main loop -------------------------------------------------------------

    def _run_items(self, stop: float) -> Optional[Entry]:
        """Handle queued work items in (time, seq) order while they are due by ``stop``.

        ``stop`` is the earliest of the next sample time, the end of the
        advance and the next reclaim.  An item at ``stop`` still runs before
        a sample or a reclaim at that instant.  Returns the first other
        entry due by ``stop``, taken off its FIFO, for the caller to run,
        else None.
        """
        heads, ledger = self._heads, self.ledger
        heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
        epochs, works, cursors, started = self.job_epoch, self.job_work, self.job_cursor, self.job_started
        shapes, instances, ids = self.job_shape, self.job_instance, self._job_ids
        rows = None if self.recorder is None else self._rows
        block = EVENT_BLOCK_ROWS
        strict_checks = self.config.strict_checks
        clock, seq = self.clock, self._seq
        productive = ledger.productive_core_seconds
        try:
            while heads:
                entry = heads[0]
                time, item_seq, job, epoch, fifo = entry
                if time >= stop and (time > stop or time == math.inf):
                    return None
                fifo.popleft()
                if fifo:
                    heapreplace(heads, fifo[0])
                else:
                    heappop(heads)
                if type(fifo) is not deque:  # an _EventFifo: its handler runs it
                    return entry
                if epochs[job] != epoch:  # the job was preempted since
                    continue
                clock = time
                work, cursor = works[job], cursors[job]
                if rows is not None:
                    rows.append((time, item_seq, work[cursor][0], ids[job], instances[job].id))
                    if len(rows) >= block:
                        rows = self._hand_over()
                # The item reached a persisted boundary: credit it, count it
                # and queue the next item behind the others of its duration.
                productive += (time - started[job]) * shapes[job].vcpus
                cursor += 1
                cursors[job] = cursor
                next_kind, duration, next_fifo = work[cursor]
                next_time = time + duration
                if next_time < time:
                    raise _clock_error(next_kind, next_time, time)
                started[job] = time
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
        if not until >= self.clock:  # also refuses NaN
            raise SimulationError(f"cannot advance to {until}: clock is already at {self.clock}")
        if self.recorder is not None and self._job_ids is None:
            self._job_ids = [spec.id for spec in self._jobs]
        try:
            self._advance(until)
        finally:
            if self._rows:
                self._hand_over()

    def _advance(self, until: float) -> None:
        reclaims, heads = self._reclaims, self._heads
        strict_checks = self.config.strict_checks
        while True:
            reclaim_at = reclaims[0].reclaim_at if reclaims else math.inf
            entry = self._run_items(min(self._next_sample, until, reclaim_at))
            if entry is not None:
                time, seq, subject, epoch, fifo = entry
                fifo.handler(self, time, seq, subject, epoch)
            else:
                t_head = heads[0][0] if heads else math.inf
                t_next = min(t_head, reclaim_at)
                if t_next > until or t_next == math.inf:
                    break
                self._flush_samples(t_next)
                if t_head <= reclaim_at:
                    continue  # the samples due before it are taken; _run_items runs it next
                # A reclaim runs after every other event at its instant: only
                # once it is strictly earlier than every head.
                self._on_preemption(reclaims[0], reclaim_at)
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
        unfinished = [job for job, status in enumerate(self.job_status) if status not in (ST_DONE, ST_FAILED)]
        if unfinished:
            examples = [self._jobs[job].id for job in unfinished[:3]]
            raise SimulationError(
                f"run stalled with {len(unfinished)} unfinished job(s), e.g. {examples}; "
                "check pool capacities and allowed instance types"
            )
        # Grace period of None keeps instances up forever; close them out at
        # the final clock, in acquisition order, so billing is complete.
        for inst in list(self.instances.values()):
            self._terminate_instance(inst, self.clock)
        self._flush_samples(self.clock, inclusive=True)
        return self.summary()

    def summary(self) -> SummaryReport:
        n_fe = self._n_fe  # distinct FE labels among the jobs
        cost_per_fe = self.ledger.total_cost / n_fe if n_fe else None
        return SummaryReport(
            seed=self.config.seed,
            makespan_s=self._makespan,
            final_time_s=self.clock,
            total_cost=self.ledger.total_cost,
            cost_per_fe=cost_per_fe,
            n_fe_differences=n_fe,
            n_jobs=len(self.job_status),
            n_completed=self.job_status.count(ST_DONE),
            n_failed=self.job_status.count(ST_FAILED),
            n_submissions=self.n_submissions,
            n_instances=self.n_instances,
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
            used_v = sum(self.job_shape[job].vcpus for job in inst.resident_jobs)
            used_g = sum(self.job_shape[job].gpus for job in inst.resident_jobs)
            if inst.free_vcpus != inst.offer.vcpus - used_v or inst.free_vcpus < 0:
                raise SimulationError(f"instance {inst.id}: vcpu accounting broken")
            if inst.free_gpus != inst.offer.gpus - used_g or inst.free_gpus < 0:
                raise SimulationError(f"instance {inst.id}: gpu accounting broken")
            if inst.free_vcpus >= 1:
                expected_open[inst.offer.region].append(inst.id)
        for region, open_list in self._region_free.items():
            seqs = [inst.created_seq for inst in open_list]
            if any(a >= b for a, b in zip(seqs, seqs[1:])):
                raise SimulationError(f"region {region}: open instances out of acquisition order")
            if [inst.id for inst in open_list] != expected_open[region]:
                raise SimulationError(f"region {region}: open-capacity index out of date")
        recount: Dict[Offer, List[int]] = {}
        for inst in self.instances.values():
            if not inst.active:
                continue
            usage = recount.setdefault(inst.offer, [0, 0, 0])
            usage[0] += 1
            usage[1] += inst.offer.vcpus - inst.free_vcpus
            usage[2] += inst.offer.gpus - inst.free_gpus
        if {key: usage for key, usage in self._usage.items() if any(usage)} != recount:
            raise SimulationError("usage counters disagree with the active instances")
        planned = sorted((inst for inst in self.instances.values() if inst.reclaim_at is not None), key=_reclaim_key)
        if planned != self._reclaims:
            raise SimulationError("reclaim list disagrees with the live instances' planned reclaims")
        fifos = self._fifos()
        for fifo in fifos:
            keys = [entry[:2] for entry in fifo]
            if any(a >= b for a, b in zip(keys, keys[1:])) or any(entry[4] is not fifo for entry in fifo):
                raise SimulationError("a FIFO of events is out of (time, seq) order")
        if sorted(map(id, self._heads)) != sorted(id(fifo[0]) for fifo in fifos if fifo):
            raise SimulationError("the heads heap does not hold one head per non-empty FIFO")
        for job, (count, shape) in enumerate(zip(self.job_cursor, self.job_shape)):
            plan = shape.plan
            # The length of its work table: chunks, transitions, integration and completion.
            if not 0 <= count < plan.equil_chunks + plan.n_transitions + 2:
                raise SimulationError(f"job {self._jobs[job].id}: persisted item count {count} is out of range")
            if self._last_progress and count < self._last_progress[job]:
                raise SimulationError(f"job {self._jobs[job].id}: persisted progress went backwards")
        self._last_progress = self.job_cursor.copy()
