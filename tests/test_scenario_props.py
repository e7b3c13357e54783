"""Randomized whole-simulation properties over generated scenarios.

Each case builds a small random scenario from a case seed, runs it twice
with strict in-engine checking (capacity accounting, progress
monotonicity) and verifies the cross-cutting invariants: conservation of
jobs, the billing identity, the wasted-work bound per preemption, event
log ordering, and bitwise determinism.
"""

from __future__ import annotations

import random

import pytest

from spotbatch import catalog as cat
from spotbatch import perfmodel as pm
from spotbatch import workload as wl
from spotbatch.orchestrator.engine import Engine, EngineConfig, MetricsSample
from spotbatch.orchestrator.preemption import PreemptionModel
from spotbatch.orchestrator.recorder import MemoryRecorder
from spotbatch.orchestrator.routing import RoutingPolicy
from test_engine import no_preemption_in_a_fifo, track_acquisitions

N_CASES = 200


def build_case(case_seed: int) -> Engine:
    rng = random.Random(987_000 + case_seed)

    n_regions = rng.randint(1, 3)
    region_names = [f"r{i}" for i in range(n_regions)]

    type_specs = [
        {"name": "cpu.small", "vcpus": rng.choice([4, 8]), "gpus": 0, "family": "cpu"},
        {"name": "cpu.big", "vcpus": rng.choice([16, 32]), "gpus": 0, "family": "cpu"},
    ]
    has_gpu_type = rng.random() < 0.6
    if has_gpu_type:
        type_specs.append(
            {"name": "gpu.mid", "vcpus": 8, "gpus": rng.choice([1, 2]), "family": "gpu"}
        )

    doc = {
        "instances": type_specs,
        "regions": [
            {
                "name": r,
                "spot_pool": {
                    "cpu": rng.randint(1, 3),
                    "gpu": rng.randint(1, 2) if has_gpu_type else 0,
                },
            }
            for r in region_names
        ],
        "prices": [
            {
                "instance": t["name"],
                "region": r,
                "on_demand_per_hour": round(rng.uniform(0.1, 5.0), 3),
                "spot_fraction": rng.choice([0.3, 0.5, 1.0]),
            }
            for r in region_names
            for t in type_specs
        ],
    }
    catalog = cat.build_catalog(doc)

    systems = ["sysA", "sysB"]
    records = [
        pm.BenchmarkRecord(s, t["name"], 1, 4, 0, "equilibration", rng.uniform(0.02, 0.3))
        for s in systems
        for t in type_specs
    ]
    if rng.random() < 0.5:
        records += [
            pm.BenchmarkRecord(s, t["name"], 1, 4, 0, "transition", rng.uniform(0.02, 0.3))
            for s in systems
            for t in type_specs
        ]

    equil_chunks = rng.randint(1, 4)
    chunk_steps = rng.choice([100, 250, 500])
    n_transitions = rng.randint(0, 3)
    transition_steps = rng.choice([50, 100, 250])
    total = equil_chunks * chunk_steps - rng.randint(0, chunk_steps - 1)
    plan = wl.PhasePlan(
        equil_chunks=equil_chunks,
        chunk_steps=chunk_steps,
        total_equil_steps=max(1, total),
        n_transitions=n_transitions,
        transition_steps=transition_steps,
    )

    jobs = []
    n_jobs = rng.randint(4, 24)
    for i in range(n_jobs):
        wants_gpu = has_gpu_type and rng.random() < 0.4
        if wants_gpu:
            kind, vcpus, gpus = "complex", rng.choice([2, 4, 8]), 1
        else:
            kind, vcpus, gpus = "ligand", rng.choice([1, 2, 4]), 0
        jobs.append(
            wl.JobSpec(
                id=f"job{i:03d}",
                target="rand",
                kind=kind,
                system=rng.choice(systems),
                vcpu_demand=vcpus,
                gpu_demand=gpus,
                phase_plan=plan,
                timestep_fs=2.0,
                fe_label=f"rand/e{i % 5}",
            )
        )
    # Occasionally inject a permanently infeasible job (demands nothing fits).
    if rng.random() < 0.2:
        jobs.append(
            wl.JobSpec(
                id="job-too-big",
                target="rand",
                kind="ligand",
                system="sysA",
                vcpu_demand=512,
                gpu_demand=0,
                phase_plan=plan,
                timestep_fs=2.0,
                fe_label="rand/e0",
            )
        )

    hazard = rng.choice([0.0, 0.0, 0.3, 1.0, 3.0])
    config = EngineConfig(
        routing=RoutingPolicy(
            {r: rng.randint(1, 6) for r in region_names},
            mode=rng.choice(["weighted_random", "proportional_roundrobin"]),
        ),
        allowed_types={
            "ligand": ["cpu.small", "cpu.big"],
            "complex": ["gpu.mid"] if has_gpu_type else ["cpu.big"],
        },
        payment=rng.choice([cat.ON_DEMAND, cat.SPOT]),
        preemption=PreemptionModel({"*/*": hazard}),
        grace_period_s=rng.choice([60.0, 300.0, None]),
        seed=case_seed,
        metrics_interval_s=rng.choice([None, 600.0]),
        strict_checks=True,
    )
    return Engine(catalog, jobs, records, config, MemoryRecorder())


def job_counts(engine: Engine) -> dict:
    """Submitted/completed/failed/in-flight partition of the engine's jobs, for conservation checks.

    A job counts as submitted once its id appears in a ``job_submitted`` row.
    """
    submitted = len({job_id for _, _, kind, job_id, _ in engine.recorder.events if kind == "job_submitted"})
    done = engine.job_status.count("done")
    failed = engine.job_status.count("failed")
    return {"submitted": submitted, "completed": done, "failed": failed, "in_flight": submitted - done - failed}


def check_invariants(engine: Engine, acquired: list) -> None:
    """Check a finished run; ``acquired`` holds every instance it acquired (see ``track_acquisitions``)."""
    report = engine.summary()
    counts = job_counts(engine)

    # Conservation: every job was submitted and ended in exactly one bucket.
    assert counts["submitted"] == report.n_jobs
    assert counts["completed"] + counts["failed"] == report.n_jobs
    assert counts["in_flight"] == 0

    # The engine has let go of every instance, and of every reclaim still planned
    # for one; the bills, one per acquired instance, are the record of them.
    assert engine.instances == {}
    assert engine._reclaims == []
    assert no_preemption_in_a_fifo(engine)
    assert report.n_instances == len(acquired) == len(engine.recorder.bills)
    assert sorted(i.id for i in acquired) == sorted(instance_id for instance_id, *_ in engine.recorder.bills)

    # Billing identity, to one second of billing granularity per instance.
    durations = {instance_id: duration for instance_id, duration, *_ in engine.recorder.bills}
    recomputed = sum(durations[i.id] * i.offer.rate / 3600.0 for i in acquired)
    slack = sum(i.offer.rate / 3600.0 for i in acquired)
    assert abs(report.total_cost - recomputed) <= slack + 1e-9
    assert report.total_cost == pytest.approx(sum(cost for *_, cost in engine.recorder.bills), abs=1e-9)

    # Wasted work per preempted resident stays under one work item.
    for _, _, wasted, item_kind, item_duration in engine.recorder.waste:
        assert item_kind in ("chunk", "transition")
        assert 0.0 <= wasted < item_duration

    # Event log is (time, seq)-sorted with unique seq.
    keys = [(t, s) for t, s, *_ in engine.recorder.events]
    assert keys == sorted(keys)
    seqs = [s for _, s in keys]
    assert len(set(seqs)) == len(seqs)

    # Completed jobs persisted every item up to their completion; failed ones never started.
    for status, cursor, shape in zip(engine.job_status, engine.job_cursor, engine.job_shape):
        if status == "done":
            plan = shape.plan
            assert cursor == plan.equil_chunks + plan.n_transitions + 1
        elif status == "failed":
            assert cursor == 0

    # A finished job holds no run state.
    assert engine.job_instance == [None] * report.n_jobs
    assert engine.job_work == [()] * report.n_jobs
    assert engine.job_started == [0.0] * report.n_jobs

    assert report.wasted_core_hours >= 0.0
    if report.n_preemptions == 0:
        assert report.wasted_core_hours == 0.0


@pytest.mark.parametrize("case_seed", range(N_CASES))
def test_random_scenario_invariants(case_seed):
    engine = build_case(case_seed)
    acquired = track_acquisitions(engine)
    engine.run()
    check_invariants(engine, acquired)

    # Bitwise determinism: same construction, same seed, same everything.
    again = build_case(case_seed)
    again.run()
    assert again.recorder.events == engine.recorder.events
    assert again.summary().to_dict() == engine.summary().to_dict()


def test_liveness_under_heavy_preemption():
    # Hazard high enough that, on average, every job is kicked off an
    # instance three or more times; everything must still finish.
    rng = random.Random(5)
    doc = {
        "instances": [{"name": "t1", "vcpus": 4, "gpus": 0, "family": "t1"}],
        "regions": [
            {"name": "r1", "spot_pool": {"t1": 3}},
            {"name": "r2", "spot_pool": {"t1": 3}},
        ],
        "prices": [
            {"instance": "t1", "region": r, "on_demand_per_hour": 1.0} for r in ("r1", "r2")
        ],
    }
    catalog = cat.build_catalog(doc)
    plan = wl.PhasePlan(
        equil_chunks=4, chunk_steps=500, total_equil_steps=2000, n_transitions=2, transition_steps=250
    )
    jobs = [
        wl.JobSpec(
            id=f"j{i}",
            target="t",
            kind="ligand",
            system="sysA",
            vcpu_demand=4,
            gpu_demand=0,
            phase_plan=plan,
            timestep_fs=2.0,
            fe_label=f"t/e{i}",
        )
        for i in range(10)
    ]
    # One chunk is 1000 s at this rate; hazard 2.5/h gives the instance a
    # 50-50 chance of surviving a chunk, so retries pile up.
    records = [pm.BenchmarkRecord("sysA", "t1", 1, 4, 0, "equilibration", 0.0864)]
    config = EngineConfig(
        routing=RoutingPolicy({"r1": 1, "r2": 1}),
        allowed_types={"ligand": ["t1"], "complex": ["t1"]},
        payment=cat.SPOT,
        preemption=PreemptionModel({"*/*": 2.5}),
        grace_period_s=120.0,
        seed=99,
        metrics_interval_s=None,
        strict_checks=True,
    )
    engine = Engine(catalog, jobs, records, config, MemoryRecorder())
    acquired = track_acquisitions(engine)
    report = engine.run()
    assert report.n_completed == 10
    assert len(engine.recorder.waste) >= 3 * 10
    check_invariants(engine, acquired)


def usage_rows(engine: Engine, time_s: float) -> list:
    """The metrics rows of the engine's state now, recomputed from its instances."""
    usage = {}
    for inst in engine.instances.values():
        if inst.active:
            row = usage.setdefault((inst.offer.region, inst.offer.type_name), [0, 0, 0])
            row[0] += 1
            row[1] += inst.offer.vcpus - inst.free_vcpus
            row[2] += inst.offer.gpus - inst.free_gpus
    return [MetricsSample(time_s, region, type_name, *row) for (region, type_name), row in sorted(usage.items())]


def test_advancing_in_slices_matches_one_run():
    # Slice ends fall exactly on every work-item completion, metrics sample
    # and reclaim of the run: the event loop must stop at each and resume
    # as if it had never stopped.  A sample at time t shows the state after
    # every event at or before t, which is the state a slice ending at t
    # leaves.
    whole = build_case(71)
    whole.run()
    rows = whole.recorder.events
    reclaims = {t for t, _, kind, _, _ in rows if kind == "preemption"}
    items = {t for t, _, kind, _, _ in rows if kind in ("chunk_done", "transition_done", "integrate_done")}
    samples = {sample.time_s for sample in whole.samples}
    assert reclaims and samples and items
    sliced = build_case(71)
    sliced.submit_all()
    expected_samples = []
    for until in sorted(items | samples | reclaims):
        sliced.advance(until)
        assert sliced.clock == until
        assert sliced.recorder.events == [row for row in rows if row[0] <= until]
        if until in samples:
            expected_samples += usage_rows(sliced, until)
    sliced.run()
    assert whole.samples == expected_samples
    assert sliced.recorder.events == rows
    assert sliced.recorder.bills == whole.recorder.bills
    assert sliced.recorder.waste == whole.recorder.waste
    assert sliced.samples == whole.samples
    assert sliced.summary() == whole.summary()


def test_conservation_holds_at_intermediate_times():
    engine = build_case(3)
    engine.submit_all()
    t = 0.0
    while job_counts(engine)["in_flight"] > 0 or job_counts(engine)["submitted"] == 0:
        t += 900.0
        engine.advance(t)
        counts = job_counts(engine)
        assert counts["completed"] + counts["failed"] + counts["in_flight"] == counts["submitted"]
        assert counts["in_flight"] >= 0
        if t > 1e9:
            pytest.fail("simulation did not converge")
