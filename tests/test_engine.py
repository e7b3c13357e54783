from __future__ import annotations

import gc
import math
import re
import sys
import tracemalloc
import types
from dataclasses import replace

import pytest

import spotbatch
from spotbatch import catalog as cat
from spotbatch import perfmodel as pm
from spotbatch import workload as wl
from spotbatch.errors import MissingRecordError, SimulationError, ValidationError
from spotbatch.orchestrator import scenario as scen
from spotbatch.orchestrator.engine import Engine, EngineConfig, InstanceState, MetricsSample, _Shape
from spotbatch.orchestrator.preemption import PreemptionModel
from spotbatch.orchestrator.recorder import MemoryRecorder
from spotbatch.orchestrator.routing import RoutingPolicy

# Rate chosen so one 500-step chunk at 2 fs takes exactly 1000 s and one
# 250-step transition exactly 500 s (see tests/data/micro_scenario_oracle.md).
MICRO_RATE_NS_PER_DAY = 0.0864


def micro_catalog(pool_r1=1, pool_r2=1, extra_types=()):
    doc = {
        "instances": [
            {"name": "t1", "vcpus": 4, "gpus": 0, "family": "t1"},
            *extra_types,
        ],
        "regions": [
            {"name": "r1", "spot_pool": {"t1": pool_r1, "*": 0}},
            {"name": "r2", "spot_pool": {"t1": pool_r2, "*": 0}},
        ],
        "prices": [
            {"instance": i["name"], "region": r, "on_demand_per_hour": 3.6, "spot_fraction": 0.5}
            for r in ("r1", "r2")
            for i in [{"name": "t1"}, *extra_types]
        ],
    }
    return cat.build_catalog(doc)


def micro_plan():
    return wl.PhasePlan(
        equil_chunks=2, chunk_steps=500, total_equil_steps=1000, n_transitions=2, transition_steps=250
    )


def micro_job(job_id, vcpus=2, gpus=0, kind="ligand", system="sysA", plan=None):
    return wl.JobSpec(
        id=job_id,
        target="micro",
        kind=kind,
        system=system,
        vcpu_demand=vcpus,
        gpu_demand=gpus,
        phase_plan=plan or micro_plan(),
        timestep_fs=2.0,
        fe_label=f"micro/{job_id}",
    )


def micro_records(instance="t1", system="sysA"):
    return [pm.BenchmarkRecord(system, instance, 1, 4, 0, "equilibration", MICRO_RATE_NS_PER_DAY)]


def micro_config(**kwargs):
    defaults = dict(
        routing=RoutingPolicy({"r1": 1, "r2": 1}, mode="proportional_roundrobin"),
        allowed_types={"ligand": ["t1"], "complex": ["t1"]},
        payment=cat.ON_DEMAND,
        grace_period_s=120.0,
        seed=0,
        metrics_interval_s=None,
        strict_checks=True,
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


# -- the resume point: the work table indexed by the count of persisted items ---


def work_table(plan=None):
    """The micro engine's (event, duration) per work item of one job with ``plan`` on t1."""
    engine = Engine(micro_catalog(), [micro_job("j1", plan=plan)], micro_records(), micro_config())
    return [(event, duration) for event, duration, _ in engine.job_shape[0].tables["t1"]]


def test_resume_point_fresh():
    assert work_table() == [
        ("chunk_done", 1000.0),
        ("chunk_done", 1000.0),
        ("transition_done", 500.0),
        ("transition_done", 500.0),
        ("integrate_done", 0.0),
        ("job_completed", 0.0),
    ]
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    engine.advance(0.0)
    cursor = engine.job_cursor[0]
    assert cursor == 0 and engine.job_work[0][cursor][:2] == ("chunk_done", 1000.0)


def test_resume_point_mid_transitions():
    plan = wl.make_phase_plan(6.0, 2.0, 500_000, 80, 50.0)
    events = [event for event, _ in work_table(plan)]
    assert events[:6] == ["chunk_done"] * 6
    assert events[6 + 37] == "transition_done"
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    engine.advance(2200.0)  # both chunks persisted; transition 0 runs until 2500
    cursor = engine.job_cursor[0]
    assert cursor == 2 and engine.job_work[0][cursor][:2] == ("transition_done", 500.0)


def test_resume_point_integrate_and_done():
    plan = wl.make_phase_plan(6.0, 2.0, 500_000, 80, 50.0)
    table = work_table(plan)
    assert len(table) == 6 + 80 + 2
    assert table[6 + 80 - 1][0] == "transition_done"
    assert table[6 + 80] == ("integrate_done", 0.0)
    assert table[6 + 80 + 1] == ("job_completed", 0.0)


# -- the hand-computed micro scenario (tests/data/micro_scenario_oracle.md) ----

EXPECTED_MICRO_EVENTS = [
    (0.0, 0, "job_submitted", "j1", ""),
    (0.0, 1, "job_submitted", "j2", ""),
    (0.0, 2, "job_submitted", "j3", ""),
    (0.0, 3, "instance_acquired", "", "i0001"),
    (0.0, 4, "instance_acquired", "", "i0002"),
    (1000.0, 5, "chunk_done", "j1", "i0001"),
    (1000.0, 6, "chunk_done", "j3", "i0001"),
    (1000.0, 7, "chunk_done", "j2", "i0002"),
    (1500.0, 11, "preemption", "", "i0001"),
    (1500.0, 12, "job_submitted", "j1", ""),
    (1500.0, 13, "job_submitted", "j3", ""),
    (1500.0, 15, "instance_acquired", "", "i0003"),
    (2000.0, 10, "chunk_done", "j2", "i0002"),
    (2500.0, 14, "chunk_done", "j1", "i0002"),
    (2500.0, 16, "chunk_done", "j3", "i0003"),
    (2500.0, 17, "transition_done", "j2", "i0002"),
    (3000.0, 18, "transition_done", "j1", "i0002"),
    (3000.0, 19, "transition_done", "j3", "i0003"),
    (3000.0, 20, "transition_done", "j2", "i0002"),
    (3000.0, 23, "integrate_done", "j2", "i0002"),
    (3000.0, 24, "job_completed", "j2", "i0002"),
    (3500.0, 21, "transition_done", "j1", "i0002"),
    (3500.0, 22, "transition_done", "j3", "i0003"),
    (3500.0, 25, "integrate_done", "j1", "i0002"),
    (3500.0, 26, "integrate_done", "j3", "i0003"),
    (3500.0, 27, "job_completed", "j1", "i0002"),
    (3500.0, 28, "job_completed", "j3", "i0003"),
    (3620.0, 29, "instance_idle_timeout", "", "i0002"),
    (3620.0, 30, "instance_idle_timeout", "", "i0003"),
]

EXPECTED_MICRO_LEDGER = [
    ("i0001", 1500.0, 3.6, 1.50),
    ("i0002", 3620.0, 3.6, 3.62),
    ("i0003", 2120.0, 3.6, 2.12),
]


def micro_scenario_engine():
    jobs = [micro_job("j1"), micro_job("j2"), micro_job("j3")]
    config = micro_config(scripted_preemptions={"i0001": 1500.0})
    return Engine(micro_catalog(), jobs, micro_records(), config, MemoryRecorder())


def run_micro_scenario():
    engine = micro_scenario_engine()
    report = engine.run()
    return engine, report


def track_acquisitions(engine):
    """A list that gets every instance ``engine`` acquires, in acquisition order.

    The engine lets go of an instance once it terminates; this list, kept by
    the test, holds them all for oracles that recompute the bills.
    """
    acquired = []
    acquire = engine._acquire

    def tracked(*args):
        inst = acquire(*args)
        acquired.append(inst)
        return inst

    engine._acquire = tracked
    return acquired


def test_micro_event_log_matches_hand_table():
    engine, _ = run_micro_scenario()
    assert engine.recorder.events == EXPECTED_MICRO_EVENTS


def test_micro_ledger_matches_hand_table():
    engine, report = run_micro_scenario()
    got = [
        (instance_id, duration, rate, round(cost, 10))
        for instance_id, duration, rate, cost in engine.recorder.bills
    ]
    assert got == [
        (i, d, r, pytest.approx(c)) for i, d, r, c in EXPECTED_MICRO_LEDGER
    ]
    assert report.total_cost == pytest.approx(7.24)


def test_micro_summary_matches_hand_table():
    engine, report = run_micro_scenario()
    assert report.makespan_s == pytest.approx(3500.0)
    assert report.final_time_s == pytest.approx(3620.0)
    assert report.n_completed == 3 and report.n_failed == 0
    assert report.n_preemptions == 1
    assert report.n_submissions == 5
    assert report.n_instances == 3
    assert engine.ledger.productive_core_seconds == pytest.approx(18_000.0)
    assert engine.ledger.wasted_core_seconds == pytest.approx(2_000.0)


def test_micro_event_log_sorted_by_time_then_seq():
    engine, _ = run_micro_scenario()
    keys = [(t, s) for t, s, *_ in engine.recorder.events]
    assert keys == sorted(keys)


def n_completed(engine):
    return engine.job_status.count("done")


def one_plan(chunk_steps, transition_steps=0):
    """One chunk and at most one transition; at the micro rate one step takes 2 s."""
    return wl.PhasePlan(
        equil_chunks=1,
        chunk_steps=chunk_steps,
        total_equil_steps=chunk_steps,
        n_transitions=1 if transition_steps else 0,
        transition_steps=transition_steps,
    )


def test_items_of_different_durations_tie_with_an_idle_timeout():
    # j0 fills i0001 and finishes at 800 s, so with a 200 s grace period
    # i0001 times out at 1000 s.  On i0002, j1's 1000 s chunk (scheduled at
    # 0 s) and j2's 100 s transition (scheduled at 900 s) also complete at
    # 1000 s.  The timeout was scheduled at 800 s, between the two, so
    # (time, seq) puts it between them.  Rows derived by hand from that rule:
    jobs = [
        micro_job("j0", vcpus=4, plan=one_plan(400)),
        micro_job("j1", plan=one_plan(500)),
        micro_job("j2", plan=one_plan(450, transition_steps=50)),
    ]
    config = micro_config(routing=RoutingPolicy({"r1": 1}), grace_period_s=200.0)
    engine = Engine(micro_catalog(pool_r1=2), jobs, micro_records(), config, MemoryRecorder())
    report = engine.run()
    assert engine.recorder.events == [
        (0.0, 0, "job_submitted", "j0", ""),
        (0.0, 1, "job_submitted", "j1", ""),
        (0.0, 2, "job_submitted", "j2", ""),
        (0.0, 3, "instance_acquired", "", "i0001"),
        (0.0, 4, "instance_acquired", "", "i0002"),
        (800.0, 5, "chunk_done", "j0", "i0001"),
        (800.0, 8, "integrate_done", "j0", "i0001"),
        (800.0, 9, "job_completed", "j0", "i0001"),
        (900.0, 7, "chunk_done", "j2", "i0002"),
        (1000.0, 6, "chunk_done", "j1", "i0002"),
        (1000.0, 10, "instance_idle_timeout", "", "i0001"),
        (1000.0, 11, "transition_done", "j2", "i0002"),
        (1000.0, 12, "integrate_done", "j1", "i0002"),
        (1000.0, 13, "integrate_done", "j2", "i0002"),
        (1000.0, 14, "job_completed", "j1", "i0002"),
        (1000.0, 15, "job_completed", "j2", "i0002"),
        (1200.0, 16, "instance_idle_timeout", "", "i0002"),
    ]
    assert [(i, d) for i, d, _, _ in engine.recorder.bills] == [("i0001", 1000.0), ("i0002", 1200.0)]
    assert report.total_cost == pytest.approx(2.2)
    assert engine.ledger.productive_core_seconds == 800.0 * 4 + 1000.0 * 2 + (900.0 + 100.0) * 2
    assert report.n_events == 17 and report.makespan_s == 1000.0


# -- packing -------------------------------------------------------------------


def test_big_instance_packs_one_48_plus_six_8_then_acquires():
    big = {"name": "big96", "vcpus": 96, "gpus": 0, "family": "big"}
    doc = {
        "instances": [big],
        "regions": [{"name": "r1", "spot_pool": {"big": 5}}],
        "prices": [{"instance": "big96", "region": "r1", "on_demand_per_hour": 4.08}],
    }
    catalog = cat.build_catalog(doc)
    jobs = [micro_job("wide", vcpus=48, kind="complex")]
    jobs += [micro_job(f"narrow{i}", vcpus=8) for i in range(7)]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        allowed_types={"ligand": ["big96"], "complex": ["big96"]},
    )
    engine = Engine(catalog, jobs, micro_records("big96"), config)
    engine.submit_all()
    engine.advance(0.0)
    first = engine.instances["i0001"]
    # 48 + 6 x 8 = 96 exhausts the first instance; the seventh 8-vCPU job
    # triggers a second acquisition.
    assert {jobs[j].id for j in first.resident_jobs} == {"wide"} | {f"narrow{i}" for i in range(6)}
    assert first.free_vcpus == 0
    assert [jobs[j].id for j in engine.instances["i0002"].resident_jobs] == ["narrow6"]
    engine.advance(math.inf)
    assert n_completed(engine) == 8


def test_gpu_job_without_gpu_types_is_infeasible():
    jobs = [micro_job("g", vcpus=2, gpus=1, kind="complex")]
    engine = Engine(micro_catalog(), jobs, micro_records(), micro_config())
    engine.submit_all()
    engine.advance(math.inf)
    assert engine.job_status[0] == "failed"
    report = engine.run()
    assert report.n_failed == 1 and report.n_completed == 0


def test_pool_exhausted_queues_until_capacity_frees():
    # Pool of 1 in each region; 4-vCPU jobs fill an instance completely.
    jobs = [micro_job(f"j{i}", vcpus=4) for i in range(4)]
    config = micro_config(routing=RoutingPolicy({"r1": 1}, mode="proportional_roundrobin"))
    engine = Engine(micro_catalog(pool_r1=1), jobs, micro_records(), config)
    engine.submit_all()
    engine.advance(0.0)
    assert engine.job_status == ["running", "queued", "queued", "queued"]
    engine.advance(math.inf)
    assert n_completed(engine) == 4


def test_zero_pool_everywhere_stalls_with_error():
    jobs = [micro_job("j1")]
    engine = Engine(micro_catalog(pool_r1=0, pool_r2=0), jobs, micro_records(), micro_config())
    with pytest.raises(SimulationError, match="stalled"):
        engine.run()


# -- preemption ----------------------------------------------------------------


def test_preemption_at_chunk_boundary_counts_chunk_as_done():
    jobs = [micro_job("j1")]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        scripted_preemptions={"i0001": 1000.0},  # exactly the first chunk boundary
    )
    engine = Engine(micro_catalog(), jobs, micro_records(), config, MemoryRecorder())
    report = engine.run()
    kinds_at_1000 = [(k, j) for t, s, k, j, i in engine.recorder.events if t == 1000.0]
    assert kinds_at_1000[0] == ("chunk_done", "j1")
    assert ("preemption", "") in kinds_at_1000
    # The finished chunk was persisted, so nothing is recomputed: the job
    # resumes at chunk 1 and the preempted sliver of chunk 1 is zero long.
    assert engine.ledger.wasted_core_seconds == pytest.approx(0.0)
    assert report.n_completed == 1
    # Chunks, transitions and integration persisted: the count is at the completion.
    assert engine.job_cursor[0] == 2 + 2 + 1


def test_preemption_with_no_residents_just_closes_billing():
    jobs = [micro_job("j1")]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        grace_period_s=10_000.0,
        scripted_preemptions={"i0001": 4000.0},  # job finishes at 3000
    )
    engine = Engine(micro_catalog(), jobs, micro_records(), config)
    report = engine.run()
    assert report.n_preemptions == 1
    assert report.n_submissions == 1  # nothing requeued
    assert report.total_cost == pytest.approx(4000.0 * 3.6 / 3600.0)


def test_same_instant_reclaims_run_one_after_another():
    # Both instances are reclaimed at 1500.  The second reclaim waits for the
    # events the first one scheduled at that instant: the resubmissions of
    # j1 and j3 and the acquisition of i0003.  So j1, routed to r2, first
    # boards i0002 beside j2 and is reclaimed again within the same instant.
    jobs = [micro_job("j1"), micro_job("j2"), micro_job("j3")]
    config = micro_config(scripted_preemptions={"i0001": 1500.0, "i0002": 1500.0})
    engine = Engine(micro_catalog(), jobs, micro_records(), config, MemoryRecorder())
    report = engine.run()
    assert [row for row in engine.recorder.events if row[0] == 1500.0] == [
        (1500.0, 11, "preemption", "", "i0001"),
        (1500.0, 12, "job_submitted", "j1", ""),
        (1500.0, 13, "job_submitted", "j3", ""),
        (1500.0, 15, "instance_acquired", "", "i0003"),
        (1500.0, 17, "preemption", "", "i0002"),
        (1500.0, 18, "job_submitted", "j2", ""),
        (1500.0, 19, "job_submitted", "j1", ""),
        (1500.0, 20, "instance_acquired", "", "i0004"),
    ]
    assert report.n_preemptions == 2
    assert report.total_cost == pytest.approx(7.24)


def test_a_reclaim_after_the_instance_ended_is_dropped(monkeypatch):
    # j1 runs 0..3000 s and i0001 times out at 3120 s, long before its
    # reclaim.  The dropped reclaim neither moves the clock nor takes samples.
    calls = []
    take_sample = Engine._take_sample
    monkeypatch.setattr(Engine, "_take_sample", lambda self, time_s: (calls.append(time_s), take_sample(self, time_s)))
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}), metrics_interval_s=60.0, scripted_preemptions={"i0001": 100_000.0}
    )
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config, MemoryRecorder())
    report = engine.run()
    assert "preemption" not in {kind for _, _, kind, _, _ in engine.recorder.events}
    assert report.n_preemptions == 0
    assert report.final_time_s == 3120.0
    assert calls == [60.0 * k for k in range(53)]


def test_rate_limited_acquisitions_activate_in_their_region_s_slot_order():
    # One acquisition per region per minute, 10 s latency.  r1 takes j1, j2
    # and j4 (slots at 0, 60 and 120 s), r2 takes j3 (slot 0 s): i0003
    # activates before i0002, which was acquired first.  Each region's
    # activations keep their (time, seq) order; the strict checks verify it.
    config = micro_config(
        routing=RoutingPolicy({"r1": 3, "r2": 1}, mode="proportional_roundrobin"),
        acquisitions_per_region_minute=1.0,
        acquisition_latency_s=10.0,
    )
    jobs = [micro_job(f"j{i}", vcpus=4) for i in range(1, 5)]
    engine = Engine(micro_catalog(pool_r1=3, pool_r2=1), jobs, micro_records(), config, MemoryRecorder())
    engine.run()
    assert [row for row in engine.recorder.events if row[2] == "instance_acquired"] == [
        (10.0, 4, "instance_acquired", "", "i0001"),
        (10.0, 6, "instance_acquired", "", "i0003"),
        (60.0, 5, "instance_acquired", "", "i0002"),
        (120.0, 7, "instance_acquired", "", "i0004"),
    ]


def test_the_sample_at_a_reclaim_is_taken_after_it():
    # i0001 activates at 100 s and is reclaimed at 1500 s; j1's new instance
    # activates at 1600 s, so at 1500 s no instance is active.
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        acquisition_latency_s=100.0,
        metrics_interval_s=500.0,
        scripted_preemptions={"i0001": 1500.0},
    )
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)
    report = engine.run()
    times = {sample.time_s for sample in engine.samples}
    assert report.n_preemptions == 1
    assert 1000.0 in times and 2000.0 in times and 1500.0 not in times


def test_advance_runs_a_reclaim_planned_at_until():
    config = micro_config(routing=RoutingPolicy({"r1": 1}), scripted_preemptions={"i0001": 1500.0})
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config, MemoryRecorder())
    acquired = track_acquisitions(engine)
    engine.submit_all()
    engine.advance(1500.0)
    assert engine.n_preemptions == 1
    (bill,) = engine.recorder.bills
    assert acquired[0].id == bill[0] == "i0001" and acquired[0].acquired_at + bill[1] == 1500.0
    assert "i0001" not in engine.instances


def test_preempted_instance_work_is_recomputed_elsewhere():
    engine, _ = run_micro_scenario()
    # j1 lost the first attempt at chunk 1; wasted time is under one chunk.
    for inst_id, job_id, wasted, item_kind, item_duration in engine.recorder.waste:
        assert wasted < item_duration
        assert item_kind == "chunk"


def test_preemption_model_hazard_lookup():
    model = PreemptionModel({"r1/g4dn": 0.1, "r1/*": 0.2, "*/c5": 0.3, "*/*": 0.4})
    assert model.hazard("r1", "g4dn") == 0.1
    assert model.hazard("r1", "c5") == 0.2
    assert model.hazard("r9", "c5") == 0.3
    assert model.hazard("r9", "zz") == 0.4
    assert PreemptionModel({}).hazard("r", "f") == 0.0


# -- grace period and idle behavior ---------------------------------------------


def test_instance_reuse_within_grace():
    # The second job arrives 60 s after the first finishes, inside the
    # grace period, so the instance is reused instead of timing out.
    jobs = [micro_job("early", vcpus=4, kind="ligand"), micro_job("late", vcpus=4, kind="complex")]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        waves=[(0.0, ("ligand",)), (3060.0, ("complex",))],
    )
    engine = Engine(micro_catalog(), jobs, micro_records(), config)
    report = engine.run()
    assert report.n_instances == 1
    assert report.n_completed == 2
    # early: 0..3000, idle 60 s, late: 3060..6060, idle timeout at 6180.
    assert report.final_time_s == pytest.approx(6180.0)
    assert report.total_cost == pytest.approx(6180.0 * 3.6 / 3600.0)


def test_infinite_grace_bills_until_run_end():
    jobs = [micro_job("j1", vcpus=4), micro_job("j2", vcpus=4)]
    base = dict(routing=RoutingPolicy({"r1": 1, "r2": 1}, mode="proportional_roundrobin"))
    finite = Engine(
        micro_catalog(), jobs, micro_records(), micro_config(**base, grace_period_s=120.0)
    ).run()
    infinite = Engine(
        micro_catalog(), jobs, micro_records(), micro_config(**base, grace_period_s=None)
    ).run()
    # Both jobs run 0..3000 in parallel; with a finite grace each instance
    # is billed to 3120, with no grace both close at the final clock 3000.
    assert finite.total_cost == pytest.approx(2 * 3120.0 * 3.6 / 3600.0)
    assert infinite.total_cost == pytest.approx(2 * 3000.0 * 3.6 / 3600.0)


# -- billing and determinism -----------------------------------------------------


def test_billing_identity_recomputed_from_instances():
    engine = micro_scenario_engine()
    acquired = track_acquisitions(engine)
    report = engine.run()
    assert len(acquired) == report.n_instances == 3
    durations = {instance_id: duration for instance_id, duration, *_ in engine.recorder.bills}
    recomputed = sum(durations[i.id] * i.offer.rate / 3600.0 for i in acquired)
    assert report.total_cost == pytest.approx(recomputed, abs=1e-9)
    assert report.total_cost == pytest.approx(sum(cost for *_, cost in engine.recorder.bills), abs=1e-12)


def test_time_regression_rejected():
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    engine.advance(2000.0)
    with pytest.raises(SimulationError):
        engine.advance(1000.0)


def test_advance_to_nan_is_refused_and_runs_nothing():
    # NaN compares false both ways: neither "before the clock" nor "past the next event".
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    with pytest.raises(SimulationError, match="cannot advance to nan"):
        engine.advance(math.nan)
    assert (engine.clock, engine.n_events, engine.job_status) == (0.0, 0, ["pending"])


def test_advance_takes_the_samples_due_before_until():
    config = micro_config(metrics_interval_s=60.0)
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)
    engine.submit_all()
    engine.advance(1500.0)  # the next event, transition 0's completion, is at 2500 s
    assert [s.time_s for s in engine.samples] == [60.0 * k for k in range(25)]
    engine.advance(1500.0)
    assert len(engine.samples) == 25  # the sample at 1500 s waits for the events at 1500 s
    engine.advance(1560.0)
    assert [s.time_s for s in engine.samples[25:]] == [1500.0]
    assert {(s.active_instances, s.vcpus_in_use) for s in engine.samples} == {(1, 2)}


def test_advance_hands_over_the_rows_it_processed():
    jobs = [micro_job("j1"), micro_job("j2"), micro_job("j3")]
    config = micro_config(scripted_preemptions={"i0001": 1500.0})
    engine = Engine(micro_catalog(), jobs, micro_records(), config, MemoryRecorder())
    engine.submit_all()
    engine.advance(1500.0)
    assert len(engine.recorder.events) == engine.n_events
    assert engine.recorder.events == [row for row in EXPECTED_MICRO_EVENTS if row[0] <= 1500.0]


class BlockRecorder(MemoryRecorder):
    """A MemoryRecorder that also notes the size of each block of event rows."""

    def __init__(self):
        super().__init__()
        self.block_sizes = []

    def record_events(self, rows):
        self.block_sizes.append(len(rows))
        super().record_events(rows)


def test_event_rows_come_in_blocks_no_larger_than_the_block_size(monkeypatch):
    # Five rows at 0 s (submissions, acquisitions) and three chunk rows at
    # 1000 s: each path that adds a row must hand a full block over.
    monkeypatch.setattr("spotbatch.orchestrator.engine.EVENT_BLOCK_ROWS", 2)
    jobs = [micro_job("j1"), micro_job("j2"), micro_job("j3")]
    config = micro_config(scripted_preemptions={"i0001": 1500.0})
    engine = Engine(micro_catalog(), jobs, micro_records(), config, BlockRecorder())
    engine.run()
    assert engine.recorder.events == EXPECTED_MICRO_EVENTS
    assert engine.recorder.block_sizes == [2] * 14 + [1]


def force_rates(monkeypatch, equilibration, transition):
    """Make every rate table give t1 these (equilibration, transition) ns/day."""
    record = micro_records()[0]
    table = {"t1": (record, equilibration, transition)}
    monkeypatch.setattr(pm.BenchmarkSet, "rates", lambda self, system, slowdown: table)


def test_a_failing_run_hands_over_the_rows_before_the_error(monkeypatch):
    # Chunks take 1000 s; a negative transition duration stops the run when
    # the second chunk persists and the first transition would be queued.
    force_rates(monkeypatch, MICRO_RATE_NS_PER_DAY, -1.0)
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config(), MemoryRecorder())
    with pytest.raises(SimulationError, match="cannot schedule transition_done"):
        engine.run()
    assert engine.recorder.events == [
        (0.0, 0, "job_submitted", "j1", ""),
        (0.0, 1, "instance_acquired", "", "i0001"),
        (1000.0, 2, "chunk_done", "j1", "i0001"),
        (2000.0, 3, "chunk_done", "j1", "i0001"),
    ]


def test_advance_on_empty_queue_jumps_clock():
    engine = Engine(micro_catalog(), [], micro_records(), micro_config())
    engine.submit_all()
    engine.advance(5000.0)
    assert engine.clock == 5000.0


def test_equal_seeds_identical_event_logs():
    def build():
        jobs = [micro_job(f"j{i}", vcpus=2) for i in range(6)]
        config = micro_config(
            routing=RoutingPolicy({"r1": 3, "r2": 2}),
            payment=cat.SPOT,
            preemption=PreemptionModel({"*/*": 2.5}),
            seed=1234,
        )
        return Engine(micro_catalog(pool_r1=3, pool_r2=3), jobs, micro_records(), config, MemoryRecorder())

    first = build()
    first_report = first.run()
    second = build()
    second_report = second.run()
    assert first.recorder.events == second.recorder.events
    assert first_report.to_dict() == second_report.to_dict()
    assert first_report.n_preemptions > 0  # the hazard actually fired


def test_different_seeds_differ():
    def build(seed):
        jobs = [micro_job(f"j{i}", vcpus=2) for i in range(6)]
        config = micro_config(
            routing=RoutingPolicy({"r1": 1, "r2": 1}),
            payment=cat.SPOT,
            preemption=PreemptionModel({"*/*": 2.5}),
            seed=seed,
        )
        engine = Engine(micro_catalog(pool_r1=3, pool_r2=3), jobs, micro_records(), config, MemoryRecorder())
        engine.run()
        return engine.recorder.events

    assert build(1) != build(2)


@pytest.mark.parametrize("payment, reclaimed", [(cat.ON_DEMAND, False), (cat.SPOT, True)])
def test_only_spot_capacity_draws_hazard_reclaims(payment, reclaimed):
    jobs = [micro_job(f"j{i}", vcpus=2) for i in range(6)]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1, "r2": 1}),
        payment=payment,
        preemption=PreemptionModel({"*/*": 2.5}),
        seed=1234,
    )
    report = Engine(micro_catalog(pool_r1=3, pool_r2=3), jobs, micro_records(), config).run()
    assert (report.n_preemptions > 0) is reclaimed
    assert (report.wasted_core_hours > 0) is reclaimed
    assert report.n_completed == 6


# -- waves -----------------------------------------------------------------------


def test_waves_stagger_submission_by_kind():
    jobs = [micro_job("c1", kind="complex"), micro_job("l1", kind="ligand")]
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        waves=[(0.0, ("complex",)), (500.0, ("ligand",))],
    )
    engine = Engine(micro_catalog(pool_r1=2), jobs, micro_records(), config, MemoryRecorder())
    engine.run()
    submits = {j: t for t, s, k, j, i in engine.recorder.events if k == "job_submitted"}
    assert submits["c1"] == 0.0
    assert submits["l1"] == 500.0


def test_submissions_take_consecutive_seqs_in_job_order_whatever_their_wave():
    jobs = [micro_job("l1"), micro_job("c1", kind="complex"), micro_job("l2")]
    # The first wave naming a kind submits it.
    waves = [(500.0, ("ligand",)), (0.0, ("complex", "ligand"))]
    config = micro_config(routing=RoutingPolicy({"r1": 1}), waves=waves)
    engine = Engine(micro_catalog(pool_r1=3), jobs, micro_records(), config, MemoryRecorder())
    engine.run()
    assert [row for row in engine.recorder.events if row[2] == "job_submitted"] == [
        (0.0, 1, "job_submitted", "c1", ""),
        (500.0, 0, "job_submitted", "l1", ""),
        (500.0, 2, "job_submitted", "l2", ""),
    ]


def interleaved_jobs():
    """Complex and ligand jobs whose kinds interleave in job order."""
    kinds = {"c": "complex", "l": "ligand"}
    return [micro_job(job_id, kind=kinds[job_id[0]]) for job_id in ("c1", "l1", "c2", "l2", "l3", "c3")]


def test_interleaved_kinds_submit_by_wave_in_job_order():
    # Ligand jobs start at 500 s; no wave names the complex kind, so its jobs start at 0 s.
    config = micro_config(routing=RoutingPolicy({"r1": 1}), waves=[(500.0, ("ligand",))])
    engine = Engine(micro_catalog(pool_r1=3), interleaved_jobs(), micro_records(), config, MemoryRecorder())
    engine.run()
    assert [row for row in engine.recorder.events if row[2] == "job_submitted"] == [
        (0.0, 0, "job_submitted", "c1", ""),
        (0.0, 2, "job_submitted", "c2", ""),
        (0.0, 5, "job_submitted", "c3", ""),
        (500.0, 1, "job_submitted", "l1", ""),
        (500.0, 3, "job_submitted", "l2", ""),
        (500.0, 4, "job_submitted", "l3", ""),
    ]


@pytest.mark.parametrize(
    "waves, entries",
    [
        pytest.param([], [(0.0, 0, [0, 1, 2, 3, 4, 5])], id="no-wave"),
        pytest.param([(500.0, ("ligand",))], [(0.0, 0, [0, 2, 5]), (500.0, 1, [1, 3, 4])], id="two-start-times"),
        pytest.param([(500.0, ("ligand",)), (500.0, ("complex",))], [(500.0, 0, [0, 1, 2, 3, 4, 5])],
                     id="one-start-time"),
    ],
)
def test_the_wave_fifo_holds_one_entry_per_start_time(waves, entries):
    # An entry holds the wave's jobs and the seq of its lowest one; the heads
    # heap holds the first entry only.
    config = micro_config(waves=waves)
    engine = Engine(micro_catalog(pool_r1=3), interleaved_jobs(), micro_records(), config)
    engine.submit_all()
    fifo = engine._wave_fifo
    assert [(t, seq, [job for run in ranges for job in run]) for t, seq, ranges, *_ in fifo] == entries
    assert engine._heads == [fifo[0]]


def test_strict_checks_reject_a_fifo_entry_out_of_order():
    config = micro_config(waves=[(500.0, ("ligand",))])
    engine = Engine(micro_catalog(pool_r1=3), interleaved_jobs(), micro_records(), config)
    engine.submit_all()
    fifo = engine._wave_fifo
    fifo.append((100.0, 6, [range(1, 2)], 0, fifo))
    with pytest.raises(SimulationError, match=re.escape("a FIFO of events is out of (time, seq) order")):
        engine.advance(0.0)


def test_a_wave_before_the_clock_stops_the_run():
    config = micro_config(waves=[(-1.0, ("ligand",))])
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)
    message = "cannot schedule job_submitted at -1.0: clock is already at 0.0"
    with pytest.raises(SimulationError, match=re.escape(message)):
        engine.run()


def test_submitting_after_the_clock_moved_raises():
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.advance(100.0)
    message = "cannot schedule job_submitted at 0.0: clock is already at 100.0"
    with pytest.raises(SimulationError, match=re.escape(message)):
        engine.submit_all()


def test_jobs_are_submitted_once():
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    with pytest.raises(SimulationError, match="jobs were already submitted"):
        engine.submit_all()


def test_strict_checks_reject_persisted_count_going_backwards():
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    engine.submit_all()
    engine.advance(2200.0)  # both chunks persisted; transition 0 runs until 2500
    assert engine.job_cursor[0] == 2
    engine.job_cursor[0] = 0
    with pytest.raises(SimulationError, match="j1: persisted progress went backwards"):
        engine.advance()


def test_negative_work_duration_rejected(monkeypatch):
    # A negative duration would complete a work item before it started.
    # EngineConfig rejects the slowdown that used to produce one, so
    # negative rates are forced here to reach the guard on work items.
    force_rates(monkeypatch, -1.0, -1.0)
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config())
    with pytest.raises(SimulationError, match="clock is already at"):
        engine.run()


@pytest.mark.parametrize(
    "override, named",
    [
        pytest.param({"transition_slowdown": 0}, "transition_slowdown", id="zero-slowdown"),
        pytest.param({"transition_slowdown": -1}, "transition_slowdown", id="negative-slowdown"),
        pytest.param({"acquisitions_per_region_minute": 0}, "acquisitions_per_region_minute", id="zero-rate"),
        pytest.param({"pool_overrides": {"r1": {"t1": -1}}}, "pool_overrides.r1.t1", id="negative-pool"),
        pytest.param({"pool_overrides": {"r1": {"t1": 1.5}}}, "pool_overrides.r1.t1", id="fractional-pool"),
        pytest.param({"payment": "bogus"}, "payment", id="unknown-payment"),
        pytest.param({"transition_slowdown": math.nan}, "transition_slowdown", id="nan-slowdown"),
        pytest.param({"grace_period_s": math.nan}, "grace_period_s", id="nan-grace-period"),
        pytest.param({"grace_period_s": math.inf}, "grace_period_s", id="infinite-grace-period"),
        pytest.param({"acquisition_latency_s": math.nan}, "acquisition_latency_s", id="nan-latency"),
        pytest.param({"metrics_interval_s": math.nan}, "metrics_interval_s", id="nan-metrics-interval"),
        pytest.param({"metrics_interval_s": 0.5}, "metrics_interval_s", id="sub-second-metrics-interval"),
        pytest.param({"metrics_interval_s": 0}, "metrics_interval_s", id="zero-metrics-interval"),
        pytest.param({"waves": [(0.0, ("complex",)), (math.nan, ("ligand",))]}, "waves[1].time_s",
                     id="nan-wave-time"),
        pytest.param({"waves": [(0.0, ("complex",)), (5000.0, ("lignd",))]}, "waves[1].kinds[0]",
                     id="unknown-wave-kind"),
        pytest.param({"scripted_preemptions": {"i0001": math.nan}}, "scripted_preemptions.i0001",
                     id="nan-scripted-preemption"),
        pytest.param({"scripted_preemptions": {"i0000": 10.0}}, "scripted_preemptions.i0000",
                     id="scripted-preemption-of-instance-zero"),
    ],
)
def test_engine_config_rejects_bad_values_at_construction(override, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        micro_config(**override)


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param({"routing": RoutingPolicy({"r1": 1, "r3": 0})},
                     "routing weight references unknown region 'r3'", id="routing-weight"),
        pytest.param({"pool_overrides": {"r3": {"t1": 1}}}, "pool override references unknown region 'r3'",
                     id="pool-override"),
        pytest.param({"pool_overrides": {"*": {"t1": 1}}}, "pool override references unknown region '*'",
                     id="wildcard-pool-override"),
        pytest.param({"preemption": PreemptionModel({"r3/t1": 0.1})},
                     "preemption hazard references unknown region 'r3'", id="hazard"),
        pytest.param({"preemption": PreemptionModel({"*/*": 0.1, "r3/*": 0.1})},
                     "preemption hazard references unknown region 'r3'", id="hazard-any-family"),
    ],
)
def test_engine_rejects_unknown_regions_at_construction(override, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config(**override))


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param({"pool_overrides": {"r1": {"t2": 1}}},
                     "pool override references unknown instance family 't2'", id="pool-override"),
        pytest.param({"preemption": PreemptionModel({"r1/t2": 0.1})},
                     "preemption hazard references unknown instance family 't2'", id="hazard"),
        pytest.param({"preemption": PreemptionModel({"r1/*": 0.1, "*/t2": 0.1})},
                     "preemption hazard references unknown instance family 't2'", id="hazard-any-region"),
    ],
)
def test_engine_rejects_unknown_families_at_construction(override, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config(**override))


def test_engine_rejects_an_allowed_type_missing_from_the_catalog():
    config = micro_config(allowed_types={"ligand": ["t1", "t9"], "complex": ["t1"]})
    with pytest.raises(MissingRecordError, match="unknown instance type 't9'"):
        Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)


def test_engine_rejects_an_unquoted_reserved_rate_at_construction():
    config = micro_config(routing=RoutingPolicy({"r1": 1}), payment=cat.RESERVED_UPFRONT)
    with pytest.raises(MissingRecordError, match=re.escape("no reserved rate quoted for (t1, r1)")):
        Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)


def test_engine_rejects_a_workload_system_with_no_benchmark_record_at_construction():
    jobs = [micro_job("j1"), micro_job("j2", system="sysZ")]
    with pytest.raises(MissingRecordError, match="no benchmark record for system 'sysZ'"):
        Engine(micro_catalog(), jobs, micro_records(), micro_config())


def test_engine_names_every_system_with_no_benchmark_record_in_job_order():
    jobs = [micro_job("j1", system="sysZ"), micro_job("j2"), micro_job("j3", kind="complex", system="sysY"),
            micro_job("j4", system="sysZ", vcpus=4)]
    with pytest.raises(MissingRecordError) as raised:
        Engine(micro_catalog(), jobs, micro_records(), micro_config())
    assert str(raised.value) == "no benchmark record for systems 'sysZ', 'sysY'"


def test_engine_lists_each_demand_with_no_candidate_type_once():
    # t2 (8 vCPUs) is rated for sysA, t1 (4 vCPUs) is too: a 6-vCPU ligand
    # fits only t2, which the ligand kind does not list; an 8-vCPU complex
    # job of sysB has no rated type at all.
    catalog = micro_catalog(extra_types=[{"name": "t2", "vcpus": 8, "gpus": 0, "family": "t2"}])
    records = micro_records() + micro_records(instance="t2") + micro_records(instance="t9", system="sysB")
    config = micro_config(allowed_types={"complex": ["t2", "t1"], "ligand": ["t1"]})
    jobs = [micro_job("l1", vcpus=6), micro_job("l2"), micro_job("c1", vcpus=8, kind="complex", system="sysB"),
            micro_job("l3", vcpus=6)]
    engine = Engine(catalog, jobs, records, config)
    assert engine.no_candidates == [("ligand", "sysA", 6, 0, ("t1",)), ("complex", "sysB", 8, 0, ("t2", "t1"))]
    report = engine.run()
    assert (report.n_completed, report.n_failed) == (1, 3)


def test_a_job_packs_and_acquires_only_types_rated_for_its_system():
    # t2 is allowed for both kinds but rated only for the complex system
    # sysB: the ligand job leaves the t2 instance's six free vCPUs alone and
    # acquires a t1 of its own.
    catalog = micro_catalog(extra_types=[{"name": "t2", "vcpus": 8, "gpus": 0, "family": "t2"}])
    records = micro_records() + micro_records(instance="t2", system="sysB")
    config = micro_config(
        routing=RoutingPolicy({"r1": 1}),
        allowed_types={"complex": ["t2"], "ligand": ["t2", "t1"]},
        pool_overrides={"r1": {"t1": 1, "t2": 1}},
    )
    jobs = [micro_job("c1", kind="complex", system="sysB"), micro_job("l1")]
    engine = Engine(catalog, jobs, records, config)
    engine.submit_all()
    engine.advance(0.0)
    placed = {jobs[job].id: inst.offer.type_name for job, inst in enumerate(engine.job_instance)}
    assert placed == {"c1": "t2", "l1": "t1"}
    assert engine.instances["i0001"].free_vcpus == 6
    report = engine.run()
    assert (report.n_completed, report.n_failed, report.n_instances) == (2, 0, 2)


def test_a_job_with_no_rated_type_fails():
    # Only t1 is allowed for ligands and it is rated for sysA, not sysB: the
    # sysB ligand job has no candidate and fails, the other completes.
    jobs = [micro_job("l1", system="sysB"), micro_job("l2")]
    records = micro_records() + micro_records(instance="t9", system="sysB")
    engine = Engine(micro_catalog(), jobs, records, micro_config())
    assert engine.job_shape[0].candidates.types == ()
    assert engine.job_shape[1].candidates.types == (("t1", "t1"),)
    report = engine.run()
    assert (report.n_completed, report.n_failed, report.n_submissions) == (1, 1, 2)
    assert engine.job_status[0] == "failed" and engine.job_instance[0] is None


def test_jobs_of_one_demand_and_candidates_share_one_queue_bucket():
    # Two kinds and two systems, all rated on t1 alone, with the same demand.
    records = micro_records() + micro_records(system="sysB")
    jobs = [micro_job("c1", kind="complex", system="sysB"), micro_job("l1"), micro_job("l2", vcpus=4)]
    engine = Engine(micro_catalog(), jobs, records, micro_config())
    c1, l1, l2 = (shape.candidates for shape in engine.job_shape)
    assert c1 is l1 and l2 is not l1 and l2.types == l1.types


def test_a_freed_instance_takes_queued_jobs_across_buckets_in_arrival_order():
    # One 4-vCPU t1 in r1.  j0 fills it; a1, b1, a2 and b2 queue in that
    # order, the a jobs (1 vCPU) in one bucket and the b jobs (3 vCPUs) in
    # another.  When j0 completes at 1000 s the oldest arrivals go first:
    # a1 (3 vCPUs left), then b1 (none left); a2 and b2 wait.  Taking a
    # bucket at a time would board a1 and a2 instead.  At 2000 s a1's
    # completion frees 1 vCPU for a2, and b1's then frees 3 for b2.  Each
    # job is one 1000 s chunk.  The idle timeout j0 left at 1120 s (seq 9)
    # is stale once a1 boards.  Rows derived by hand:
    plan = one_plan(500)
    jobs = [micro_job("j0", vcpus=4, plan=plan)]
    jobs += [micro_job(name, vcpus=vcpus, plan=plan) for name, vcpus in (("a1", 1), ("b1", 3), ("a2", 1), ("b2", 3))]
    config = micro_config(routing=RoutingPolicy({"r1": 1}))
    engine = Engine(micro_catalog(), jobs, micro_records(), config, MemoryRecorder())
    engine.submit_all()
    engine.advance(0.0)
    assert engine.job_status == ["running", "queued", "queued", "queued", "queued"]
    report = engine.run()
    assert engine.recorder.events == [
        (0.0, 0, "job_submitted", "j0", ""),
        (0.0, 1, "job_submitted", "a1", ""),
        (0.0, 2, "job_submitted", "b1", ""),
        (0.0, 3, "job_submitted", "a2", ""),
        (0.0, 4, "job_submitted", "b2", ""),
        (0.0, 5, "instance_acquired", "", "i0001"),
        (1000.0, 6, "chunk_done", "j0", "i0001"),
        (1000.0, 7, "integrate_done", "j0", "i0001"),
        (1000.0, 8, "job_completed", "j0", "i0001"),
        (2000.0, 10, "chunk_done", "a1", "i0001"),
        (2000.0, 11, "chunk_done", "b1", "i0001"),
        (2000.0, 12, "integrate_done", "a1", "i0001"),
        (2000.0, 13, "integrate_done", "b1", "i0001"),
        (2000.0, 14, "job_completed", "a1", "i0001"),
        (2000.0, 15, "job_completed", "b1", "i0001"),
        (3000.0, 16, "chunk_done", "a2", "i0001"),
        (3000.0, 17, "chunk_done", "b2", "i0001"),
        (3000.0, 18, "integrate_done", "a2", "i0001"),
        (3000.0, 19, "integrate_done", "b2", "i0001"),
        (3000.0, 20, "job_completed", "a2", "i0001"),
        (3000.0, 21, "job_completed", "b2", "i0001"),
        (3120.0, 22, "instance_idle_timeout", "", "i0001"),
    ]
    assert (report.n_completed, report.n_instances, report.makespan_s) == (5, 1, 3000.0)


def test_jobs_of_one_shape_share_it_wherever_they_stand_in_the_job_list():
    # l1, l3 and l4 agree on every shape field (each has its own, equal phase
    # plan); l2 differs in demand and c1 in kind and system.
    records = micro_records() + micro_records(system="sysB")
    jobs = [micro_job("l1"), micro_job("l2", vcpus=4), micro_job("l3"),
            micro_job("c1", kind="complex", system="sysB"), micro_job("l4")]
    engine = Engine(micro_catalog(), jobs, records, micro_config())
    l1, l2, l3, c1, l4 = engine.job_shape
    assert l1 is l3 is l4 and l2 is not l1 and c1 is not l1
    fields = (l1.kind, l1.system, l1.vcpus, l1.gpus, l1.plan, l1.timestep_fs)
    assert fields == ("ligand", "sysA", 2, 0, micro_plan(), 2.0)
    assert list(l1.tables) == ["t1"] and l1.tables["t1"] is not c1.tables["t1"]


def study2_toy_engine() -> Engine:
    return scen.build_engine(scen.load_scenario(spotbatch.data_path("scenarios/study2_toy.json")))


def test_build_engine_keeps_the_scenario_strict_checks():
    scenario = scen.load_scenario(spotbatch.data_path("scenarios/study2_toy.json"))
    strict = replace(scenario, config=replace(scenario.config, strict_checks=True))
    assert scen.build_engine(strict, seed=7).config.strict_checks is True
    assert scen.build_engine(scenario).config.strict_checks is False


def reachable_strings(root) -> set:
    """Every string reachable from ``root`` through objects and containers, not through types, modules or code."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType, types.CodeType)
    seen, stack, strings = set(), [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if type(obj) is str:
            strings.add(obj)
        else:
            stack += gc.get_referents(obj)
    return strings


def test_a_built_engine_keeps_no_job_spec_and_builds_no_work_table_mid_run(monkeypatch):
    gc.collect()
    before = {id(o) for o in gc.get_objects() if type(o) is wl.JobSpec}
    engine = study2_toy_engine()
    gc.collect()
    assert [o for o in gc.get_objects() if type(o) is wl.JobSpec and id(o) not in before] == []
    ids = {job.id for job in wl.load_workload(spotbatch.data_path("workload_toy.json")).expand()}
    assert len(ids) == 240 and reachable_strings(engine) & ids == set()

    def no_table(*args):
        raise AssertionError("work table built after construction")

    monkeypatch.setattr(Engine, "_work_table", no_table)
    report = engine.run()
    assert report.n_completed == report.n_jobs == 240
    assert reachable_strings(engine) & ids == set()  # a run without a recorder reads no id either


def test_a_built_engine_holds_under_120_bytes_per_job():
    # study2_full's engine held 80 B per job after the build; the bound leaves 50% margin.
    scenario = scen.load_scenario(spotbatch.data_path("scenarios/study2_full.json"))
    gc.collect()
    tracemalloc.start()
    try:
        engine = scen.build_engine(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(engine.job_shape) == 6_984
    assert held / 6_984 < 120


def test_jobs_shapes_instances_and_samples_have_no_dict():
    # A __dict__ adds about 100 bytes to each of these objects.
    engine = study2_toy_engine()
    acquired = track_acquisitions(engine)
    engine.run()
    # A job is an index into the engine's per-job lists, with no record of its own.
    records = [engine.job_shape[0], acquired[0], engine.samples[0]]
    assert [type(r) for r in records] == [_Shape, InstanceState, MetricsSample]
    assert [r for r in records if hasattr(r, "__dict__")] == []


# -- a run keeps only live instances ----------------------------------------------------


def study2_toy_under_hazard_in_steps(step_s=600.0):
    """study2_toy under a Spot hazard, recording, yielded after each ``step_s`` advance, then after run()."""
    scenario = scen.load_scenario(spotbatch.data_path("scenarios/study2_toy.json"))
    config = replace(scenario.config, preemption=PreemptionModel({"*/*": 0.2}))
    engine = scen.build_engine(replace(scenario, config=config), record_events=True)
    engine.submit_all()
    until = 0.0
    while any(status not in ("done", "failed") for status in engine.job_status):
        engine.advance(until)
        yield engine
        until += step_s
    engine.run()
    yield engine


def test_a_run_keeps_no_terminated_instance():
    terminated = 0
    for engine in study2_toy_under_hazard_in_steps():
        billed = {instance_id for instance_id, *_ in engine.recorder.bills}
        assert [i for i in engine.instances if i in billed] == []
        terminated = len(engine.recorder.bills)
    assert terminated > 400 and engine.instances == {}


def test_strict_checks_reject_a_terminated_instance_kept_live():
    config = micro_config(routing=RoutingPolicy({"r1": 1}), scripted_preemptions={"i0001": 1500.0})
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), config)
    acquired = track_acquisitions(engine)
    engine.submit_all()
    engine.advance(1500.0)
    assert "i0001" not in engine.instances
    # Still marked active and holding no job, it is missing from its region's
    # open list and from the usage counters; either check stops it.
    engine.instances["i0001"] = acquired[0]
    with pytest.raises(SimulationError, match="open-capacity index out of date|usage counters disagree"):
        engine._check_invariants()


def no_preemption_in_a_fifo(engine):
    """Whether every FIFO of events holds no reclaim: those wait in the reclaim list."""
    return all(getattr(fifo, "handler", None) is not Engine._on_preemption for fifo in engine._fifos())


def test_the_reclaim_list_holds_the_live_instances_planned_reclaims_only():
    most = 0
    for engine in study2_toy_under_hazard_in_steps():
        planned = [i for i in engine.instances.values() if i.reclaim_at is not None]
        planned.sort(key=lambda i: (i.reclaim_at, i.created_seq))
        assert [(i.reclaim_at, i) for i in engine._reclaims] == [(i.reclaim_at, i) for i in planned]
        assert no_preemption_in_a_fifo(engine)
        most = max(most, len(engine._reclaims))
    assert most > 0 and engine._reclaims == []


def test_queues_hold_jobs_reclaims_hold_live_instances_and_residents_are_tuples():
    for engine in study2_toy_under_hazard_in_steps():
        for buckets in engine._region_queue.values():
            assert all(type(job) is int for bucket in buckets.values() for job in bucket)
        assert all(type(i) is InstanceState and engine.instances[i.id] is i for i in engine._reclaims)
        residents = {}
        for job, inst in enumerate(engine.job_instance):
            if inst is not None:
                residents.setdefault(inst.id, []).append(job)
        for inst in engine.instances.values():
            assert type(inst.resident_jobs) is tuple
            assert sorted(inst.resident_jobs) == residents.get(inst.id, [])


def test_a_live_instance_holds_under_252_bytes():
    # At the step with the most live instances, study2_toy's held 168 B each
    # (record plus resident tuple); the bound leaves 50% margin.
    most, held = 0, 0
    for engine in study2_toy_under_hazard_in_steps():
        live = engine.instances.values()
        if len(live) > most:
            most = len(live)
            held = sum(sys.getsizeof(i) + sys.getsizeof(i.resident_jobs) for i in live)
    assert most > 0 and held / most < 252


def test_n_instances_counts_the_bills_and_the_live_instances():
    for engine in study2_toy_under_hazard_in_steps():
        assert engine.summary().n_instances == len(engine.recorder.bills) + len(engine.instances)
    assert engine.summary().n_instances == len(engine.recorder.bills) > 400


def test_a_region_of_weight_zero_needs_no_price():
    doc = {
        "instances": [{"name": "t1", "vcpus": 4, "gpus": 0, "family": "t1"}],
        "regions": [{"name": "r1", "spot_pool": {"t1": 1}}, {"name": "r2", "spot_pool": {"t1": 1}}],
        "prices": [{"instance": "t1", "region": "r1", "on_demand_per_hour": 3.6}],
    }
    config = micro_config(routing=RoutingPolicy({"r1": 1, "r2": 0}))
    report = Engine(cat.build_catalog(doc), [micro_job("j1")], micro_records(), config).run()
    assert report.n_completed == 1 and report.total_cost == pytest.approx(3120.0 * 3.6 / 3600.0)


def test_a_pool_override_may_name_any_family_with_a_wildcard():
    config = micro_config(pool_overrides={"r1": {"*": 0, "t1": 1}})
    assert Engine(micro_catalog(), [micro_job("j1")], micro_records(), config).run().n_completed == 1


def test_a_wildcard_pool_override_sizes_the_families_it_does_not_name():
    # The catalog lends one t1 in r1; the override's "*" lends two, so both jobs start at once.
    jobs = [micro_job("a", vcpus=4), micro_job("b", vcpus=4)]
    config = micro_config(routing=RoutingPolicy({"r1": 1}), pool_overrides={"r1": {"*": 2}})
    report = Engine(micro_catalog(pool_r1=1), jobs, micro_records(), config).run()
    assert report.n_instances == 2 and report.makespan_s == 3000.0


@pytest.mark.parametrize(
    "ids, named",
    [
        pytest.param(["j1", "j2", "j1"], "j1", id="one"),
        pytest.param(["a", "b", "b", "a"], "b", id="first-repeat-named"),
    ],
)
def test_engine_rejects_duplicate_job_ids_at_construction(ids, named):
    with pytest.raises(ValidationError, match=re.escape(f"duplicate job id {named}")):
        Engine(micro_catalog(), [micro_job(i) for i in ids], micro_records(), micro_config())


def test_hazard_keys_may_name_any_region_with_a_wildcard():
    hazards = PreemptionModel({"*/*": 0.1, "*/t1": 0.2, "r1/*": 0.3, "r2/t1": 0.4})
    engine = Engine(micro_catalog(), [micro_job("j1")], micro_records(), micro_config(preemption=hazards))
    assert engine.run().n_completed == 1


@pytest.mark.parametrize(
    "build, named",
    [
        pytest.param(lambda: RoutingPolicy({"r1": math.nan, "r2": 1}), "routing.weights.r1", id="nan-weight"),
        pytest.param(lambda: RoutingPolicy({"r1": math.inf}), "routing.weights.r1", id="infinite-weight"),
        pytest.param(lambda: PreemptionModel({"*/*": math.nan}), "preemption_hazards.*/*", id="nan-hazard"),
        pytest.param(lambda: PreemptionModel({"r1/t1": -0.5}), "preemption_hazards.r1/t1", id="negative-hazard"),
    ],
)
def test_routing_weights_and_hazards_must_be_finite(build, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        build()
