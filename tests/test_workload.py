from __future__ import annotations

import hashlib
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbatch
from spotbatch import workload as wl
from spotbatch.errors import ParseError, ValidationError


def small_spec(**kwargs):
    defaults = dict(
        targets=(wl.TargetSpec("t1", 50000, 6000, 2), wl.TargetSpec("t2", 80000, 5000, 3)),
        replicas=2,
        directions=2,
        forcefields=1,
        equil_ns=1.0,
        n_transitions=4,
        transition_ps=50.0,
        timestep_fs=2.0,
        chunk_steps=500_000,
    )
    defaults.update(kwargs)
    return wl.EnsembleSpec(**defaults)


# -- phase plans ---------------------------------------------------------------


def test_standard_phase_plan():
    plan = wl.make_phase_plan(6.0, 2.0, 500_000, 80, 50.0)
    assert plan.total_equil_steps == 3_000_000
    assert plan.equil_chunks == 6
    assert plan.chunk_steps == 500_000
    assert plan.n_transitions == 80
    assert plan.transition_steps == 25_000
    assert wl.MAX_CHUNK_ITERATIONS == 8


def test_single_chunk_degenerate_plan():
    plan = wl.make_phase_plan(1.0, 2.0, 500_000, 0, 50.0)
    assert plan.equil_chunks == 1
    assert plan.n_transitions == 0


def test_plan_with_larger_timestep():
    plan = wl.make_phase_plan(6.0, 4.0, 500_000, 80, 50.0)
    assert plan.total_equil_steps == 1_500_000
    assert plan.equil_chunks == 3
    assert plan.transition_steps == 12_500


def test_plan_rejects_more_chunks_than_restart_budget():
    with pytest.raises(ValidationError):
        wl.make_phase_plan(60.0, 2.0, 500_000, 80, 50.0)


def test_plan_of_exactly_the_restart_budget_builds_and_one_more_chunk_does_not():
    assert wl.PhasePlan(8, 1, 8, 0, 0).equil_chunks == wl.MAX_CHUNK_ITERATIONS
    with pytest.raises(ValidationError, match="9 chunks exceed the 8-iteration restart budget"):
        wl.PhasePlan(9, 1, 9, 0, 0)


def test_plan_rejects_more_transitions_than_the_limit():
    assert wl.make_phase_plan(6.0, 2.0, 500_000, wl.MAX_TRANSITIONS, 50.0).n_transitions == wl.MAX_TRANSITIONS
    for count in (wl.MAX_TRANSITIONS + 1, 25_842_344_976_158_690):
        with pytest.raises(ValidationError, match="n_transitions"):
            wl.make_phase_plan(6.0, 2.0, 500_000, count, 50.0)


def test_plan_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        wl.make_phase_plan(0.0, 2.0)


def test_chunk_length_remainder():
    plan = wl.PhasePlan(3, 400, 1000, 0, 0)
    assert [plan.chunk_length(i) for i in range(3)] == [400, 400, 200]


@pytest.mark.parametrize("equil_chunks", [3, 4])
def test_plan_rejects_more_chunks_than_its_steps_need(equil_chunks):
    # 1000 steps fill two chunks of 500: a third would be empty and a fourth hold -500 steps.
    with pytest.raises(ValidationError, match="the last chunk would be empty"):
        wl.PhasePlan(equil_chunks, chunk_steps=500, total_equil_steps=1000, n_transitions=0, transition_steps=0)


# -- expansion -----------------------------------------------------------------


def test_expand_counts_small():
    jobs = wl.expand_ensemble(small_spec())
    # 2 kinds x (2+3 edges) x 2 replicas x 2 directions x 1 forcefield
    assert len(jobs) == 2 * 5 * 2 * 2 * 1
    complexes = [j for j in jobs if j.kind == "complex"]
    assert len(complexes) == len(jobs) // 2


def test_expand_deterministic_ids():
    a = [j.id for j in wl.expand_ensemble(small_spec())]
    b = [j.id for j in wl.expand_ensemble(small_spec())]
    assert a == b
    assert len(set(a)) == len(a)


def test_expand_id_encoding():
    job = wl.expand_ensemble(small_spec())[0]
    assert job.id == "t1/edge_0000/ff0/r0/stateA/complex"


def test_default_policy_demands():
    jobs = wl.expand_ensemble(small_spec())
    for job in jobs:
        if job.kind == "complex":
            assert (job.vcpu_demand, job.gpu_demand) == (16, 1)
        else:
            assert (job.vcpu_demand, job.gpu_demand) == (8, 0)


def test_proxy_mapping_nearest_by_atoms():
    policy = {
        "complex": wl.KindPolicy(
            vcpus=16,
            gpus=1,
            proxy_systems=(("small_c", 35_000), ("mid_c", 67_000), ("big_c", 107_000)),
        ),
        "ligand": wl.KindPolicy(vcpus=8, gpus=0, proxy_systems=(("lig", 6_400),)),
    }
    jobs = wl.expand_ensemble(small_spec(), policy)
    by_target = {(j.target, j.kind): j.system for j in jobs}
    assert by_target[("t1", "complex")] == "small_c"  # 50k: 15k from 35k, 17k from 67k
    assert by_target[("t2", "complex")] == "mid_c"  # 80k: 13k from 67k, 27k from 107k
    assert by_target[("t1", "ligand")] == "lig"


def test_default_system_names():
    jobs = wl.expand_ensemble(small_spec())
    assert {j.system for j in jobs if j.target == "t1"} == {"t1_complex", "t1_ligand"}


@settings(max_examples=60)
@given(
    edges=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    replicas=st.integers(1, 3),
    directions=st.integers(1, 2),
    forcefields=st.integers(1, 3),
)
def test_job_count_identity(edges, replicas, directions, forcefields):
    targets = tuple(
        wl.TargetSpec(f"t{i}", 10_000 + i, 5_000, e) for i, e in enumerate(edges)
    )
    spec = small_spec(
        targets=targets, replicas=replicas, directions=directions, forcefields=forcefields
    )
    jobs = wl.expand_ensemble(spec)
    assert len(jobs) == spec.n_jobs == 2 * replicas * directions * forcefields * sum(edges)
    # Decoding each index (targets may have no edges) gives the jobs of iteration, in order.
    assert [jobs[i] for i in range(len(jobs))] == list(jobs)
    # Direct enumeration of distinct labels.
    assert len({j.fe_label for j in jobs}) == (sum(edges) * forcefields if sum(edges) else 0)


def test_a_spec_of_more_than_max_jobs_is_rejected_unexpanded():
    per_edge = 2 * 2 * 2  # kinds x replicas x directions of small_spec
    edges = wl.MAX_JOBS // per_edge
    assert small_spec(targets=(wl.TargetSpec("t", 1, 1, edges),)).n_jobs <= wl.MAX_JOBS
    with pytest.raises(ValidationError, match=f"is {(edges + 1) * per_edge} jobs, more than the limit"):
        small_spec(targets=(wl.TargetSpec("t", 1, 1, edges + 1),))


def test_max_jobs_admits_study1_at_ten_times_its_edges():
    spec = wl.load_workload(spotbatch.data_path("workload_study1.json")).spec
    targets = tuple(wl.TargetSpec(t.name, t.complex_atoms, t.ligand_atoms, t.edges * 10) for t in spec.targets)
    assert replace(spec, targets=targets).n_jobs == 198_720


# -- bundled study workloads ----------------------------------------------------


# study2_toy's workload and study1_full's.
@pytest.mark.parametrize("name", ["workload_toy.json", "workload_study1.json"])
def test_a_job_decoded_by_index_is_the_job_at_that_position(name):
    jobs = wl.load_workload(spotbatch.data_path(name)).expand()
    listed = list(jobs)
    assert len(listed) == len(jobs)
    assert [jobs[i].id for i in range(len(jobs))] == [job.id for job in listed]
    assert [jobs[i] for i in range(len(jobs))] == listed
    assert jobs[-1] == listed[-1]
    for index in (len(jobs), -len(jobs) - 1):
        with pytest.raises(IndexError, match="out of range"):
            jobs[index]


def test_study1_workload_counts():
    w = wl.load_workload(spotbatch.data_path("workload_study1.json"))
    jobs = w.expand()
    assert len(jobs) == 19_872
    assert sum(1 for j in jobs if j.kind == "complex") == 9_936
    assert len({j.fe_label for j in jobs}) == 1_656
    cdk8_complex = [j for j in jobs if j.target == "cdk8" and j.kind == "complex"]
    assert len(cdk8_complex) == 972


def test_study2_workload_counts():
    w = wl.load_workload(spotbatch.data_path("workload_study2.json"))
    jobs = w.expand()
    assert len(jobs) == 6_984
    assert len({j.fe_label for j in jobs}) == 582


@pytest.mark.parametrize(
    "name, n_jobs, digest",
    [
        ("workload_study1.json", 19_872, "75742bc6525fa7b1123ae595ad17ee761895026add2660eb256d1f0f4e347a53"),
        ("workload_study2.json", 6_984, "6423921ad8f73253497d6d75f59ee010c4befeb5758a00cffc6aba41d7d20688"),
    ],
)
def test_study_expansion_is_pinned(name, n_jobs, digest):
    # SHA-256 of every job's id, FE label and system, newline-joined in expansion order.
    jobs = wl.load_workload(spotbatch.data_path(name)).expand()
    text = "\n".join(field for j in jobs for field in (j.id, j.fe_label, j.system))
    assert len(jobs) == n_jobs
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_study1_total_trajectory():
    w = wl.load_workload(spotbatch.data_path("workload_study1.json"))
    jobs = w.expand()
    plans = [j.phase_plan for j in jobs]
    steps = [p.total_equil_steps + p.n_transitions * p.transition_steps for p in plans]
    total_us = sum(n * j.timestep_fs * 1e-6 for n, j in zip(steps, jobs)) / 1000.0
    assert total_us == pytest.approx(198.72, abs=1e-9)


def test_load_workload_rejects_nan(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(spotbatch.data_path("workload_toy.json").read_text().replace("{", '{"equil_ns": NaN, ', 1))
    with pytest.raises(ParseError, match="NaN is not a finite number"):
        wl.load_workload(path)


NAN = float("nan")


@pytest.mark.parametrize(
    "make, named",
    [
        pytest.param(lambda: wl.TargetSpec("t", NAN, 6000, 2), "complex_atoms", id="target-atoms"),
        pytest.param(lambda: wl.TargetSpec("t", 50000, 6000, NAN), "edges", id="target-edges"),
        pytest.param(lambda: small_spec(replicas=NAN), "replicas", id="ensemble-replicas"),
        pytest.param(lambda: small_spec(equil_ns=NAN), "equil_ns", id="ensemble-equil-ns"),
        pytest.param(lambda: small_spec(transition_ps=NAN), "transition_ps", id="ensemble-transition-ps"),
        pytest.param(lambda: wl.KindPolicy(vcpus=NAN), "vcpus", id="policy-vcpus"),
        pytest.param(lambda: wl.KindPolicy(vcpus=8, proxy_systems=(("p", NAN),)), "proxy_systems[0].atoms",
                     id="policy-proxy-atoms"),
        pytest.param(
            lambda: wl.JobSpec("j", "t", "complex", "s", 16, 1, wl.make_phase_plan(6.0, 2.0), NAN, "fe"),
            "timestep_fs",
            id="job-timestep",
        ),
    ],
)
def test_specs_reject_nan(make, named):
    with pytest.raises(ValidationError, match=re.escape(f"{named} must be a finite number")):
        make()


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param({"kind": "bogus"}, "job j: unknown kind 'bogus'", id="kind"),
        pytest.param({"vcpu_demand": 0}, "job j: vcpu_demand must be >= 1", id="no-vcpus"),
        pytest.param({"gpu_demand": 2}, "job j: gpu_demand must be 0 or 1", id="two-gpus"),
    ],
)
def test_job_spec_rejects_bad_fields(fields, message):
    good = dict(id="j", target="t", kind="complex", system="s", vcpu_demand=16, gpu_demand=1,
                phase_plan=wl.make_phase_plan(6.0, 2.0), timestep_fs=2.0, fe_label="fe")
    with pytest.raises(ValidationError, match=re.escape(message)):
        wl.JobSpec(**{**good, **fields})


@pytest.mark.parametrize(
    "overrides, named",
    [
        pytest.param({"timestep_fs": 1e-310}, "equil_ns * 1e6 / timestep_fs", id="tiny-timestep"),
        pytest.param({"transition_ps": 1e308}, "transition_ps * 1e3 / timestep_fs", id="huge-transition"),
    ],
)
def test_spec_rejects_non_finite_step_counts(overrides, named):
    with pytest.raises(ValidationError, match=re.escape(f"{named} must be a finite number, got inf")):
        small_spec(**overrides)

