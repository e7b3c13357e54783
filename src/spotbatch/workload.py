"""Ensemble expansion: from a screening specification to concrete jobs.

An ensemble specification lists protein targets with their ligand-pair
edge counts, plus the multiplicities (replicas, directions, force fields)
and the shape of each job: an equilibration phase run in fixed-step
checkpointable chunks, followed by a number of short transitions, each
individually checkpointable, and a final zero-duration work-value
integration step.

Every edge/replica/direction/forcefield combination yields one job for the
solvated protein-ligand complex and one for the ligand alone in water, so
the total job count is ``2 * replicas * directions * forcefields * sum(edges)``.
Expansion is deterministic: equal specifications yield identical id
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ParseError, ValidationError
from .jsonfile import read_json

KIND_COMPLEX = "complex"
KIND_LIGAND = "ligand"
JOB_KINDS = (KIND_COMPLEX, KIND_LIGAND)

DEFAULT_CHUNK_STEPS = 500_000
MAX_CHUNK_ITERATIONS = 8


@dataclass(frozen=True)
class TargetSpec:
    """One protein target: system sizes and the number of ligand-pair edges."""

    name: str
    complex_atoms: int
    ligand_atoms: int
    edges: int

    def __post_init__(self):
        if self.edges < 0:
            raise ValidationError(f"target {self.name}: edges must be >= 0")
        if self.complex_atoms <= 0 or self.ligand_atoms <= 0:
            raise ValidationError(f"target {self.name}: atom counts must be > 0")


@dataclass(frozen=True)
class EnsembleSpec:
    """A full screening ensemble: targets plus multiplicities and job shape."""

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
        if self.replicas < 1 or self.directions < 1 or self.forcefields < 1:
            raise ValidationError("replicas, directions, and forcefields must be >= 1")
        if self.equil_ns <= 0 or self.transition_ps <= 0 or self.timestep_fs <= 0:
            raise ValidationError("equil_ns, transition_ps, and timestep_fs must be > 0")
        if self.n_transitions < 0:
            raise ValidationError("n_transitions must be >= 0")
        if self.chunk_steps < 1:
            raise ValidationError("chunk_steps must be >= 1")

    @property
    def total_edges(self) -> int:
        return sum(t.edges for t in self.targets)


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
        if self.vcpus < 1:
            raise ValidationError("kind policy: vcpus must be >= 1")
        if self.gpus not in (0, 1):
            raise ValidationError("kind policy: gpus must be 0 or 1")


DEFAULT_POLICY: Dict[str, KindPolicy] = {
    KIND_COMPLEX: KindPolicy(vcpus=16, gpus=1),
    KIND_LIGAND: KindPolicy(vcpus=8, gpus=0),
}


@dataclass(frozen=True)
class PhasePlan:
    """The chunked execution plan of one job.

    Equilibration runs as ``equil_chunks`` restart chunks of at most
    ``chunk_steps`` integration steps; the runner gives up after
    ``max_chunk_iterations`` chunk attempts, so plans needing more chunks
    than that are rejected outright.
    """

    equil_chunks: int
    chunk_steps: int
    total_equil_steps: int
    n_transitions: int
    transition_steps: int
    max_chunk_iterations: int = MAX_CHUNK_ITERATIONS

    def __post_init__(self):
        if self.equil_chunks * self.chunk_steps < self.total_equil_steps:
            raise ValidationError("phase plan: chunks cannot cover the equilibration steps")
        if self.max_chunk_iterations < self.equil_chunks:
            raise ValidationError(
                f"phase plan: {self.equil_chunks} chunks exceed the "
                f"{self.max_chunk_iterations}-iteration restart budget"
            )
        if self.n_transitions < 0 or self.transition_steps < 0:
            raise ValidationError("phase plan: transition counts must be >= 0")

    def chunk_length(self, index: int) -> int:
        """Steps in chunk ``index`` (the final chunk only covers the remainder)."""
        if not 0 <= index < self.equil_chunks:
            raise ValueError(f"chunk index {index} out of range")
        remaining = self.total_equil_steps - index * self.chunk_steps
        return min(self.chunk_steps, remaining)

    @property
    def total_steps(self) -> int:
        return self.total_equil_steps + self.n_transitions * self.transition_steps


def make_phase_plan(
    equil_ns: float,
    timestep_fs: float,
    chunk_steps: int = DEFAULT_CHUNK_STEPS,
    n_transitions: int = 80,
    transition_ps: float = 50.0,
) -> PhasePlan:
    """Derive a phase plan from physical durations and the integration step."""
    if equil_ns <= 0 or timestep_fs <= 0 or chunk_steps <= 0 or transition_ps <= 0:
        raise ValueError("phase plan inputs must be > 0")
    if n_transitions < 0:
        raise ValueError("n_transitions must be >= 0")
    total_equil_steps = round(equil_ns * 1e6 / timestep_fs)
    equil_chunks = math.ceil(total_equil_steps / chunk_steps)
    transition_steps = round(transition_ps * 1e3 / timestep_fs)
    return PhasePlan(
        equil_chunks=equil_chunks,
        chunk_steps=chunk_steps,
        total_equil_steps=total_equil_steps,
        n_transitions=n_transitions,
        transition_steps=transition_steps,
    )


def trajectory_ns(plan: PhasePlan, timestep_fs: float) -> float:
    """Nanoseconds of trajectory one job produces under this plan."""
    return plan.total_steps * timestep_fs * 1e-6


@dataclass(frozen=True)
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
    input_ref: str = ""
    output_ref: str = ""

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValidationError(f"job {self.id}: unknown kind {self.kind!r}")
        if self.vcpu_demand < 1:
            raise ValidationError(f"job {self.id}: vcpu_demand must be >= 1")
        if self.gpu_demand not in (0, 1):
            raise ValidationError(f"job {self.id}: gpu_demand must be 0 or 1")
        if not self.input_ref:
            object.__setattr__(self, "input_ref", f"in/{self.id}")
        if not self.output_ref:
            object.__setattr__(self, "output_ref", f"out/{self.id}")

    @property
    def equil_ns(self) -> float:
        return self.phase_plan.total_equil_steps * self.timestep_fs * 1e-6

    @property
    def transition_ns(self) -> float:
        return self.phase_plan.n_transitions * self.phase_plan.transition_steps * self.timestep_fs * 1e-6

    @property
    def trajectory_ns(self) -> float:
        return trajectory_ns(self.phase_plan, self.timestep_fs)


@dataclass
class JobProgress:
    """Persisted checkpoint state of one job; only ever moves forward."""

    chunks_done: int = 0
    transitions_done: int = 0
    integrated: bool = False

    def validate(self, plan: PhasePlan) -> None:
        if not 0 <= self.chunks_done <= plan.equil_chunks:
            raise ValidationError(f"progress: chunks_done {self.chunks_done} out of range")
        if not 0 <= self.transitions_done <= plan.n_transitions:
            raise ValidationError(f"progress: transitions_done {self.transitions_done} out of range")
        if self.transitions_done > 0 and self.chunks_done != plan.equil_chunks:
            raise ValidationError("progress: transitions started before equilibration finished")
        if self.integrated and self.transitions_done != plan.n_transitions:
            raise ValidationError("progress: integrated before all transitions finished")

    def as_tuple(self) -> Tuple[int, int, bool]:
        return (self.chunks_done, self.transitions_done, self.integrated)


def _pick_proxy(policy: KindPolicy, target: TargetSpec, kind: str) -> str:
    if not policy.proxy_systems:
        return f"{target.name}_{kind}"
    atoms = target.complex_atoms if kind == KIND_COMPLEX else target.ligand_atoms
    # Nearest by atom count; ties resolved toward the smaller proxy.
    return min(policy.proxy_systems, key=lambda ps: (abs(ps[1] - atoms), ps[1]))[0]


def fe_label(target: str, edge: int, forcefield: int) -> str:
    return f"{target}/edge_{edge:04d}/ff{forcefield}"


def n_fe_differences(spec: EnsembleSpec) -> int:
    """Number of distinct free-energy differences the ensemble computes."""
    return spec.total_edges * spec.forcefields


def expand_ensemble(
    spec: EnsembleSpec,
    policy: Optional[Dict[str, KindPolicy]] = None,
) -> List[JobSpec]:
    """Expand a specification into its full, deterministically ordered job list."""
    policy = policy or DEFAULT_POLICY
    for kind in JOB_KINDS:
        if kind not in policy:
            raise ValidationError(f"resource policy missing kind {kind!r}")
    plan = make_phase_plan(
        spec.equil_ns, spec.timestep_fs, spec.chunk_steps, spec.n_transitions, spec.transition_ps
    )
    jobs: List[JobSpec] = []
    seen_ids = set()
    for target in spec.targets:
        for kind in JOB_KINDS:
            kp = policy[kind]
            system = _pick_proxy(kp, target, kind)
            for edge in range(target.edges):
                for ff in range(spec.forcefields):
                    label = fe_label(target.name, edge, ff)
                    for replica in range(spec.replicas):
                        for direction in range(spec.directions):
                            state = chr(ord("A") + direction)
                            job_id = (
                                f"{target.name}/edge_{edge:04d}/ff{ff}"
                                f"/r{replica}/state{state}/{kind}"
                            )
                            if job_id in seen_ids:
                                raise ValidationError(f"duplicate job id {job_id}")
                            seen_ids.add(job_id)
                            jobs.append(
                                JobSpec(
                                    id=job_id,
                                    target=target.name,
                                    kind=kind,
                                    system=system,
                                    vcpu_demand=kp.vcpus,
                                    gpu_demand=kp.gpus,
                                    phase_plan=plan,
                                    timestep_fs=spec.timestep_fs,
                                    fe_label=label,
                                )
                            )
    return jobs


@dataclass(frozen=True)
class Workload:
    spec: EnsembleSpec
    policy: Dict[str, KindPolicy]

    def expand(self) -> List[JobSpec]:
        return expand_ensemble(self.spec, self.policy)


def _parse_policy(data: dict) -> Dict[str, KindPolicy]:
    policy = {}
    for kind in JOB_KINDS:
        raw = data.get(kind)
        if raw is None:
            policy[kind] = DEFAULT_POLICY[kind]
            continue
        proxies = tuple((str(p["name"]), int(p["atoms"])) for p in raw.get("proxy_systems", []))
        policy[kind] = KindPolicy(
            vcpus=int(raw["vcpus"]), gpus=int(raw.get("gpus", 0)), proxy_systems=proxies
        )
    return policy


def load_workload(path) -> Workload:
    """Load an ensemble specification plus resource policy from JSON."""
    data = read_json(path)
    if "targets" not in data:
        raise ParseError(f"{path}: workload document is missing the 'targets' key")
    targets = tuple(
        TargetSpec(
            name=t["name"],
            complex_atoms=int(t["complex_atoms"]),
            ligand_atoms=int(t["ligand_atoms"]),
            edges=int(t["edges"]),
        )
        for t in data["targets"]
    )
    spec = EnsembleSpec(
        targets=targets,
        replicas=int(data.get("replicas", 3)),
        directions=int(data.get("directions", 2)),
        forcefields=int(data.get("forcefields", 1)),
        equil_ns=float(data.get("equil_ns", 6.0)),
        n_transitions=int(data.get("n_transitions", 80)),
        transition_ps=float(data.get("transition_ps", 50.0)),
        timestep_fs=float(data.get("timestep_fs", 2.0)),
        chunk_steps=int(data.get("chunk_steps", DEFAULT_CHUNK_STEPS)),
    )
    policy = _parse_policy(data.get("resource_policy", {}))
    return Workload(spec=spec, policy=policy)
