"""Ensemble expansion: from a screening specification to concrete jobs.

An ensemble specification lists protein targets with their ligand-pair
edge counts, plus the multiplicities (replicas, directions, force fields)
and the shape of each job: an equilibration phase run in fixed-step
checkpointable chunks, followed by a number of short transitions, each
individually checkpointable, and a final zero-duration work-value
integration step.

Every edge/replica/direction/forcefield combination yields one job for the
solvated protein-ligand complex and one for the ligand alone in water, so
the total job count is ``2 * replicas * directions * forcefields * sum(edges)``
(``EnsembleSpec.n_jobs``), at most ``MAX_JOBS``.  Expansion is deterministic:
equal specifications yield identical id sequences.

Expansion builds no job list.  ``expand_ensemble`` returns an ``Expansion``,
a sequence whose length comes from the specification and which builds a job
only when it is read: by index, a mixed-radix decode of the index into
target, kind, edge, force field, replica and state; by iteration, in that
same order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .errors import ValidationError, finite_number
from .jsonfile import entries, load, number, shaped, within

KIND_COMPLEX = "complex"
KIND_LIGAND = "ligand"
JOB_KINDS = (KIND_COMPLEX, KIND_LIGAND)

DEFAULT_CHUNK_STEPS = 500_000
# The most restart chunks one job's equilibration may take.
MAX_CHUNK_ITERATIONS = 8
# The most transitions one phase plan may hold.  A job's work table has an
# entry per transition, so a larger count could exhaust memory when an engine
# builds the table; the bundled workloads use 80.
MAX_TRANSITIONS = 10_000
# The most jobs one ensemble may expand to, checked from the specification's
# counts before anything is expanded.  An engine holds about 65 bytes per job
# once built and about 300 at a run's peak (study 1 at ten times its edges,
# pools and acquisition rate, 198,720 jobs, peaked at 74.8 MiB, 52 MiB above
# study 1 itself), so a million jobs stay under about 320 MiB.
MAX_JOBS = 1_000_000


@dataclass(frozen=True)
class TargetSpec:
    """One protein target: system sizes and the number of ligand-pair edges."""

    name: str
    complex_atoms: int
    ligand_atoms: int
    edges: int

    def __post_init__(self):
        finite_number("complex_atoms", self.complex_atoms, 0, low_open=True)
        finite_number("ligand_atoms", self.ligand_atoms, 0, low_open=True)
        finite_number("edges", self.edges, 0)


@dataclass(frozen=True)
class EnsembleSpec:
    """A full screening ensemble: targets plus multiplicities and job shape, checked by its phase plan.

    Target names are unique, so the job ids that expansion derives from them are too.
    """

    targets: Tuple[TargetSpec, ...]
    replicas: int = 3
    directions: int = 2
    forcefields: int = 1
    equil_ns: float = 6.0
    n_transitions: int = 80
    transition_ps: float = 50.0
    timestep_fs: float = 2.0
    chunk_steps: int = DEFAULT_CHUNK_STEPS

    def __post_init__(self):
        first: Dict[str, int] = {}
        for i, target in enumerate(self.targets):
            j = first.setdefault(target.name, i)
            if j != i:
                raise ValidationError(f"targets[{i}].name duplicates targets[{j}].name {target.name!r}")
        for key in ("replicas", "directions", "forcefields"):
            finite_number(key, getattr(self, key), 1)
        if self.n_jobs > MAX_JOBS:
            raise ValidationError(
                f"2 * replicas * directions * forcefields * sum(edges) is {self.n_jobs} jobs, "
                f"more than the limit of {MAX_JOBS}"
            )
        self.phase_plan()

    @property
    def n_jobs(self) -> int:
        """The number of jobs the ensemble expands to, computed without expanding it."""
        per_edge = len(JOB_KINDS) * self.replicas * self.directions * self.forcefields
        return per_edge * sum(target.edges for target in self.targets)

    def phase_plan(self) -> PhasePlan:
        return make_phase_plan(
            self.equil_ns, self.timestep_fs, self.chunk_steps, self.n_transitions, self.transition_ps
        )


@dataclass(frozen=True)
class KindPolicy:
    """Resource demand for one job kind, with optional benchmark proxies.

    ``proxy_systems`` maps benchmark system names to their atom counts; a
    job is assigned the proxy whose size is closest to its target's.  With
    no proxies, the benchmark system is named ``<target>_<kind>`` directly.
    """

    vcpus: int
    gpus: int = 0
    proxy_systems: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        finite_number("vcpus", self.vcpus, 1)
        if self.gpus not in (0, 1):
            raise ValidationError(f"gpus must be 0 or 1, got {self.gpus!r}")
        for i, (_, atoms) in enumerate(self.proxy_systems):
            finite_number(f"proxy_systems[{i}].atoms", atoms, 0, low_open=True)


DEFAULT_POLICY: Dict[str, KindPolicy] = {
    KIND_COMPLEX: KindPolicy(vcpus=16, gpus=1),
    KIND_LIGAND: KindPolicy(vcpus=8, gpus=0),
}


@dataclass(frozen=True)
class PhasePlan:
    """The chunked execution plan of one job.

    Equilibration runs as ``equil_chunks`` restart chunks of at most
    ``chunk_steps`` integration steps; a plan needing more than
    ``MAX_CHUNK_ITERATIONS`` chunks is rejected when it is built.  At most
    ``MAX_TRANSITIONS`` transitions follow.
    """

    equil_chunks: int
    chunk_steps: int
    total_equil_steps: int
    n_transitions: int
    transition_steps: int

    def __post_init__(self):
        if self.equil_chunks * self.chunk_steps < self.total_equil_steps:
            raise ValidationError("phase plan: chunks cannot cover the equilibration steps")
        if self.equil_chunks > 0 and self.chunk_length(self.equil_chunks - 1) <= 0:
            raise ValidationError(
                f"phase plan: {self.equil_chunks} chunks of {self.chunk_steps} steps are more than "
                f"{self.total_equil_steps} equilibration steps need; the last chunk would be empty"
            )
        if self.equil_chunks > MAX_CHUNK_ITERATIONS:
            raise ValidationError(
                f"phase plan: {self.equil_chunks} chunks exceed the "
                f"{MAX_CHUNK_ITERATIONS}-iteration restart budget"
            )
        finite_number("n_transitions", self.n_transitions, 0, MAX_TRANSITIONS)
        if self.transition_steps < 0:
            raise ValidationError("phase plan: transition steps must be >= 0")

    def chunk_length(self, index: int) -> int:
        """Steps in chunk ``index`` (the final chunk only covers the remainder)."""
        if not 0 <= index < self.equil_chunks:
            raise ValueError(f"chunk index {index} out of range")
        remaining = self.total_equil_steps - index * self.chunk_steps
        return min(self.chunk_steps, remaining)


def make_phase_plan(
    equil_ns: float,
    timestep_fs: float,
    chunk_steps: int = DEFAULT_CHUNK_STEPS,
    n_transitions: int = 80,
    transition_ps: float = 50.0,
) -> PhasePlan:
    """Derive a phase plan from physical durations and the integration step; every number must be finite."""
    finite_number("equil_ns", equil_ns, 0, low_open=True)
    finite_number("timestep_fs", timestep_fs, 0, low_open=True)
    finite_number("chunk_steps", chunk_steps, 0, low_open=True)
    finite_number("transition_ps", transition_ps, 0, low_open=True)
    total_equil_steps = round(finite_number("equil_ns * 1e6 / timestep_fs", equil_ns * 1e6 / timestep_fs))
    equil_chunks = math.ceil(total_equil_steps / chunk_steps)
    transition_steps = round(
        finite_number("transition_ps * 1e3 / timestep_fs", transition_ps * 1e3 / timestep_fs)
    )
    return PhasePlan(
        equil_chunks=equil_chunks,
        chunk_steps=chunk_steps,
        total_equil_steps=total_equil_steps,
        n_transitions=n_transitions,
        transition_steps=transition_steps,
    )


@dataclass(slots=True)
class JobSpec:
    """One ensemble member: identity, resource demand, and execution plan."""

    id: str
    target: str
    kind: str
    system: str
    vcpu_demand: int
    gpu_demand: int
    phase_plan: PhasePlan
    timestep_fs: float
    fe_label: str

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValidationError(f"job {self.id}: unknown kind {self.kind!r}")
        if self.vcpu_demand < 1:
            raise ValidationError(f"job {self.id}: vcpu_demand must be >= 1")
        if self.gpu_demand not in (0, 1):
            raise ValidationError(f"job {self.id}: gpu_demand must be 0 or 1")
        finite_number("timestep_fs", self.timestep_fs, 0, low_open=True)


def _pick_proxy(policy: KindPolicy, target: TargetSpec, kind: str) -> str:
    if not policy.proxy_systems:
        return f"{target.name}_{kind}"
    atoms = target.complex_atoms if kind == KIND_COMPLEX else target.ligand_atoms
    # Nearest by atom count; ties resolved toward the smaller proxy.
    return min(policy.proxy_systems, key=lambda ps: (abs(ps[1] - atoms), ps[1]))[0]


def fe_label(target: str, edge: int, forcefield: int) -> str:
    return f"{target}/edge_{edge:04d}/ff{forcefield}"


class Expansion(Sequence):
    """The jobs of an ensemble in expansion order, each built as a ``JobSpec`` when it is read.

    A job's index is a mixed-radix number whose digits are, from the most
    significant: target, kind, edge, force field, replica and state.  The
    edge digit's radix is its target's edge count.  A job id is its FE label
    plus its replica, state and kind.
    """

    def __init__(self, spec: EnsembleSpec, policy: Dict[str, KindPolicy]):
        for kind in JOB_KINDS:
            if kind not in policy:
                raise ValidationError(f"resource policy missing kind {kind!r}")
        self._spec = spec
        self._plan = spec.phase_plan()
        self._states = [chr(ord("A") + direction) for direction in range(spec.directions)]
        # Per target, per kind: (kind, system, vCPUs, GPUs).
        self._kinds = [
            [(kind, _pick_proxy(policy[kind], target, kind), policy[kind].vcpus, policy[kind].gpus)
             for kind in JOB_KINDS]
            for target in spec.targets
        ]
        self._per_edge = spec.forcefields * spec.replicas * spec.directions  # jobs per (target, kind, edge)
        # The index of each target's first job.
        self._starts = [0]
        for target in spec.targets:
            self._starts.append(self._starts[-1] + len(JOB_KINDS) * target.edges * self._per_edge)
        self._len = self._starts.pop()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> JobSpec:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"job index {index} out of range for {self._len} jobs")
        spec = self._spec
        t = bisect_right(self._starts, index) - 1
        target = spec.targets[t]
        k, rest = divmod(index - self._starts[t], target.edges * self._per_edge)
        edge, rest = divmod(rest, self._per_edge)
        ff, rest = divmod(rest, spec.replicas * spec.directions)
        replica, state = divmod(rest, spec.directions)
        label = fe_label(target.name, edge, ff)
        kind, system, vcpus, gpus = self._kinds[t][k]
        job_id = f"{label}/r{replica}/state{self._states[state]}/{kind}"
        return JobSpec(job_id, target.name, kind, system, vcpus, gpus, self._plan, spec.timestep_fs, label)

    def __iter__(self) -> Iterator[JobSpec]:
        spec, plan = self._spec, self._plan
        for target, kinds in zip(spec.targets, self._kinds):
            for kind, system, vcpus, gpus in kinds:
                # A job id is its FE label plus this suffix: replica, direction and kind.
                suffixes = [f"/r{r}/state{state}/{kind}" for r in range(spec.replicas) for state in self._states]
                for edge in range(target.edges):
                    for ff in range(spec.forcefields):
                        label = fe_label(target.name, edge, ff)
                        for suffix in suffixes:
                            yield JobSpec(label + suffix, target.name, kind, system, vcpus, gpus, plan,
                                          spec.timestep_fs, label)


def expand_ensemble(spec: EnsembleSpec, policy: Optional[Dict[str, KindPolicy]] = None) -> Expansion:
    """Expand a specification into its deterministically ordered jobs, built as they are read."""
    return Expansion(spec, policy or DEFAULT_POLICY)


@dataclass(frozen=True)
class Workload:
    spec: EnsembleSpec
    policy: Dict[str, KindPolicy]

    def expand(self) -> Expansion:
        return expand_ensemble(self.spec, self.policy)


def _target(raw: dict) -> TargetSpec:
    return TargetSpec(
        name=shaped(raw["name"], str, "name"),
        complex_atoms=number("complex_atoms", raw["complex_atoms"], whole=True),
        ligand_atoms=number("ligand_atoms", raw["ligand_atoms"], whole=True),
        edges=number("edges", raw["edges"], whole=True),
    )


def _kind_policy(raw: dict) -> KindPolicy:
    proxies = tuple(
        (shaped(p["name"], str, f"{where}.name"), number(f"{where}.atoms", p["atoms"], whole=True))
        for where, p in entries(raw, "proxy_systems", ("name", "atoms"))
    )
    return KindPolicy(
        vcpus=number("vcpus", raw["vcpus"], whole=True),
        gpus=number("gpus", raw.get("gpus", 0), whole=True),
        proxy_systems=proxies,
    )


# The knobs an ensemble may set, with their defaults in EnsembleSpec; the counts must be whole numbers.
_COUNTS = ("replicas", "directions", "forcefields", "n_transitions", "chunk_steps")
_DURATIONS = ("equil_ns", "transition_ps", "timestep_fs")


def _workload(data) -> Workload:
    shaped(data, dict, "workload", ("targets",), ("resource_policy",) + _COUNTS + _DURATIONS)
    targets = entries(data, "targets", ("name", "complex_atoms", "ligand_atoms", "edges"))
    knobs = {k: number(k, v, k in _COUNTS) for k, v in data.items() if k in _COUNTS + _DURATIONS}
    policy = {}
    for kind, raw in shaped(data.get("resource_policy", {}), dict, "resource_policy", (), JOB_KINDS).items():
        if raw is not None:
            where = f"resource_policy.{kind}"
            raw = shaped(raw, dict, where, ("vcpus",), ("gpus", "proxy_systems"))
            policy[kind] = within(where, _kind_policy, raw)
    return Workload(
        spec=EnsembleSpec(targets=tuple(within(where, _target, t) for where, t in targets), **knobs),
        policy={kind: policy.get(kind, DEFAULT_POLICY[kind]) for kind in JOB_KINDS},
    )


def load_workload(path) -> Workload:
    """Load an ensemble specification plus resource policy from JSON.

    A bad input raises ParseError or ValidationError naming the file and the key.
    """
    return load(path, _workload)
