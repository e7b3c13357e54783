from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

import spotbatch
from spotbatch import cli
from spotbatch.orchestrator import engine as engine_module
from spotbatch.orchestrator import scenario as scen

CATALOG = str(spotbatch.data_path("catalog_aws.json"))
WORKLOAD1 = str(spotbatch.data_path("workload_study1.json"))
FE_GPU = str(spotbatch.data_path("bench_fe_gpu.csv"))
FE_CPU = str(spotbatch.data_path("bench_fe_cpu.csv"))
TOY_SCENARIO = str(spotbatch.data_path("scenarios/study2_toy.json"))


def run_cli(*argv):
    return cli.main(list(argv))


def toy_variant(tmp_path, base="study2_toy", **overrides):
    """A copy of the bundled ``base`` scenario with ``overrides`` applied, as a file path."""
    scenarios = spotbatch.data_path("scenarios")
    doc = json.loads((scenarios / f"{base}.json").read_text())
    doc["catalog"] = str(scenarios / doc["catalog"])
    doc["workload"] = str(scenarios / doc["workload"])
    doc["benchmarks"] = [str(scenarios / p) for p in doc["benchmarks"]]
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(capsys):
    assert run_cli("validate", "--catalog", CATALOG, "--workload", WORKLOAD1) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_missing_file_is_usage_error(capsys):
    assert run_cli("validate", "--catalog", "/nonexistent/cat.json") == 2


def test_validate_dangling_price_names_entry(tmp_path, capsys):
    bad = {
        "instances": [{"name": "a.big", "vcpus": 4}],
        "regions": [{"name": "r1", "spot_pool": {}}],
        "prices": [{"instance": "x9.zz", "region": "r1", "on_demand_per_hour": 1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("validate", "--catalog", str(path)) == 1
    assert "x9.zz" in capsys.readouterr().out


def test_validate_reports_every_violation(tmp_path, capsys):
    bad = {
        "instances": [{"name": "a.big", "vcpus": 0}],
        "regions": [{"name": "r1", "spot_pool": {"a": -1}}],
        "prices": [
            {"instance": "x9.zz", "region": "r1", "on_demand_per_hour": 1.0},
            {"instance": "a.big", "region": "r1", "on_demand_per_hour": -2.0},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("validate", "--catalog", str(path)) == 1
    out = capsys.readouterr().out
    assert "vcpus" in out and "x9.zz" in out and "on_demand_per_hour" in out and ">= 0" in out


def test_usage_error_on_unknown_flag():
    assert run_cli("validate", "--no-such-flag") == 2


def test_recommend_gpu_family_on_top(capsys):
    code = run_cli(
        "recommend",
        "--bench", FE_GPU, "--bench", FE_CPU,
        "--catalog", CATALOG,
        "--system", "cmet_complex",
        "--deadline-h", "9",
        "--objective", "cost",
        "--payment", "spot",
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[0].split()[0] == "instance"
    top3 = [l.split()[0] for l in lines[1:4]]
    assert all(name.startswith("g4dn.") for name in top3), top3


def test_recommend_infeasible_deadline(capsys):
    code = run_cli(
        "recommend",
        "--bench", FE_GPU,
        "--catalog", CATALOG,
        "--system", "cmet_complex",
        "--deadline-h", "0.001",
    )
    assert code == 1
    assert "no feasible instance" in capsys.readouterr().err


def test_recommend_unknown_system_exits_1_naming_it(capsys):
    assert run_cli("recommend", "--bench", FE_GPU, "--catalog", CATALOG, "--system", "cmet_complx") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no benchmark record for system 'cmet_complx'\n" and captured.out == ""
    # A system measured only in plain runs is known, and has no rate on any instance.
    plain = str(spotbatch.data_path("bench_plain_cpu.csv"))
    assert run_cli("recommend", "--bench", plain, "--catalog", CATALOG, "--system", "mem") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: system 'mem' has no equilibration record\n" and captured.out == ""


def test_recommend_time_objective_sorted(capsys):
    code = run_cli(
        "recommend",
        "--bench", FE_GPU, "--bench", FE_CPU,
        "--catalog", CATALOG,
        "--system", "cmet_complex",
        "--objective", "time",
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    runtimes = [float(l.split()[2]) for l in lines if l.strip()]
    assert runtimes == sorted(runtimes)


def test_bench_pp_table(capsys):
    code = run_cli(
        "bench",
        "--bench", str(spotbatch.data_path("bench_plain_cpu.csv")),
        "--catalog", CATALOG,
        "--system", "mem",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ns_per_usd" in out
    assert "c5.24xl" in out


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["bench", "--bench", FE_GPU], id="bench"),
        pytest.param(["recommend", "--bench", FE_GPU, "--system", "cmet_complex"], id="recommend"),
    ],
)
def test_unknown_region_exits_1_naming_it(capsys, command):
    assert run_cli(*command, "--catalog", CATALOG, "--region", "us-eats-1") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown region 'us-eats-1'\n" and captured.out == ""


def test_bench_scaling_table(capsys):
    code = run_cli("bench", "--scaling", str(spotbatch.data_path("scaling_c5n18xl.csv")))
    assert code == 0
    out = capsys.readouterr().out
    assert "efficiency" in out and "speedup" in out


def test_cost_onprem(capsys):
    code = run_cli(
        "cost", "onprem",
        "--ns-per-day", "5.9",
        "--base-per-us", "500",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "685.74" in out


def test_cost_cloud(capsys):
    code = run_cli("cost", "cloud", "--rate", "1.0", "--ns-per-day", "4.63")
    assert code == 0
    assert "5183.59" in capsys.readouterr().out


def test_cost_cloud_labels_catalog_rates_usd(tmp_path):
    report = tmp_path / "cloud.json"
    assert run_cli("cost", "cloud", "--rate", "1", "--ns-per-day", "24", "--json", str(report)) == 0
    assert [entry["currency"] for entry in json.loads(report.read_text())["entries"]] == ["USD"]


def test_cost_fe(capsys):
    code = run_cli(
        "cost", "fe",
        "--complex-runtime-h", "3.879", "--complex-rate", "0.3612",
        "--ligand-runtime-h", "4.582", "--ligand-rate", "0.102",
    )
    assert code == 0
    assert "11.21" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fe", "--complex-runtime-h", "3.879", "--complex-rate", "0.3612",
                      "--ligand-runtime-h", "4.582", "--ligand-rate", "0.102", "--replicas", replicas],
                     id=f"fe-replicas-{replicas}")
        for replicas in ("0", "-2")
    ]
    + [
        pytest.param(["cloud", "--rate", "0", "--ns-per-day", "4.63"], id="cloud-zero-rate"),
        pytest.param(["onprem", "--ns-per-day", "5.9", "--base-per-us", "500", "--utilization", "0"],
                     id="onprem-zero-utilization"),
        pytest.param(["onprem", "--ns-per-day", "5.9", "--base-per-us", "500", "--utilization", "2"],
                     id="onprem-utilization-above-one"),
        pytest.param(["cloud", "--rate", "nan", "--ns-per-day", "4"], id="cloud-nan-rate"),
        pytest.param(["cloud", "--rate", "1", "--ns-per-day", "inf"], id="cloud-infinite-throughput"),
        pytest.param(["fe", "--complex-runtime-h", "-1", "--complex-rate", "0.3612",
                      "--ligand-runtime-h", "4.582", "--ligand-rate", "0.102"], id="fe-negative-runtime"),
        pytest.param(["fe", "--complex-runtime-h", "3.879", "--complex-rate", "nan",
                      "--ligand-runtime-h", "4.582", "--ligand-rate", "0.102"], id="fe-nan-rate"),
        pytest.param(["onprem", "--ns-per-day", "5.9", "--base-per-us", "-500"], id="onprem-negative-base"),
        pytest.param(["onprem", "--ns-per-day", "nan", "--base-per-us", "500"], id="onprem-nan-throughput"),
        pytest.param(["onprem", "--ns-per-day", "5.9", "--base-per-us", "500", "--hardware-cost", "nan"],
                     id="onprem-nan-hardware-cost"),
    ],
)
def test_cost_rejects_bad_input(capsys, argv):
    assert run_cli("cost", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_cost_json_report(tmp_path, capsys):
    out = tmp_path / "fe.json"
    code = run_cli(
        "cost", "fe",
        "--complex-runtime-h", "3.879", "--complex-rate", "0.3612",
        "--ligand-runtime-h", "4.582", "--ligand-rate", "0.102",
        "--json", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    (entry,) = doc["entries"]
    assert entry["label"] == "cost_per_fe_difference"
    assert entry["cost"] == sum(entry["basis"].values())
    assert entry["currency"] == "USD"


def test_simulate_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(
        "simulate", "--scenario", TOY_SCENARIO, "--out", str(out_dir), "--seed", "7", "--event-log"
    )
    assert code == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "events.log").exists()
    printed = capsys.readouterr().out
    assert "makespan_s" in printed and "cost_per_fe" in printed and "seed: 7" in printed
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["n_completed"] == summary["n_jobs"]

    header, *rows = (out_dir / "metrics.csv").read_text().splitlines()
    assert header == "time_s,region,instance_type,active_instances,vcpus_in_use,gpus_in_use"
    assert rows, "expected at least one metrics sample"

    log_lines = (out_dir / "events.log").read_text().splitlines()
    assert log_lines[0] == "time_s,seq,kind,job_id,instance_id"
    keys = [(float(l.split(",")[0]), int(l.split(",")[1])) for l in log_lines[1:]]
    assert keys == sorted(keys)


def test_simulate_deterministic_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out), "--seed", "42") == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_simulate_overwrites_outputs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out)) == 0
    first = (out / "summary.json").read_bytes()
    assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out)) == 0
    assert (out / "summary.json").read_bytes() == first


def test_simulate_hazard_zero_reports_no_waste(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["wasted_core_hours"] == 0.0
    assert summary["n_preemptions"] == 0


def test_report_renders_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("report", "--summary", str(out / "summary.json")) == 0
    rendered = capsys.readouterr().out
    assert "total_cost" in rendered and "makespan_s" in rendered


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param("{bad", "not valid JSON", id="malformed"),
        pytest.param("[1, 2]", "summary must be a JSON object, got [1, 2]", id="list"),
    ],
)
def test_report_rejects_bad_summary(tmp_path, capsys, text, named):
    path = tmp_path / "summary.json"
    path.write_text(text)
    assert run_cli("report", "--summary", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err and "Traceback" not in err


def test_simulate_missing_scenario_usage_error():
    assert run_cli("simulate", "--scenario", "/nope.json", "--out", "/tmp/x") == 2


@pytest.mark.parametrize(
    "override", [{"grace_period_s": -500}, {"acquisition_latency_s": -1000}], ids=lambda o: next(iter(o))
)
def test_simulate_rejects_events_before_the_clock(tmp_path, capsys, override):
    # A negative delay would schedule an idle timeout or an activation in
    # the past; the engine refuses instead of rewriting history.
    scenario = toy_variant(tmp_path, **override)
    assert run_cli("simulate", "--scenario", scenario, "--out", str(tmp_path / "out")) == 1
    assert "clock is already at" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_event_log(tmp_path, capsys):
    # events.log is written while the run goes; a run that raises must leave
    # the directory as it was, and a finished run replaces the old log.
    out = tmp_path / "out"
    out.mkdir()
    earlier = b"time_s,seq,kind,job_id,instance_id\n0,0,job_submitted,j1,\n"
    (out / "events.log").write_bytes(earlier)
    failing = toy_variant(tmp_path, grace_period_s=-500)
    assert run_cli("simulate", "--scenario", failing, "--out", str(out), "--event-log") == 1
    assert "clock is already at" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["events.log"]
    assert (out / "events.log").read_bytes() == earlier

    assert run_cli("simulate", "--scenario", TOY_SCENARIO, "--out", str(out), "--event-log") == 0
    assert sorted(p.name for p in out.iterdir()) == ["events.log", "metrics.csv", "summary.json"]
    assert (out / "events.log").read_bytes() != earlier


def traced_peak_bytes(*argv):
    """Peak bytes allocated by Python while ``spotbatch`` runs ``argv`` in this process."""
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_event_log_is_streamed_not_held(tmp_path, capsys):
    # With the log the run may not hold its event rows: the peak stays within
    # 0.5 MiB of the run without it (holding the 21,841 rows adds about 2.8 MiB).
    run = ("simulate", "--scenario", TOY_SCENARIO, "--out", str(tmp_path / "out"), "--seed", "42")
    with_log = traced_peak_bytes(*run, "--event-log")
    without_log = traced_peak_bytes(*run)
    assert with_log <= without_log + 0.5 * 2**20


# SHA-256 of the outputs of study2_toy with two g4dn and two c5 instances
# per region and a reclaim hazard of 0.5 per instance-hour.  Jobs queue
# (over a hundred at once, of both shapes) and 500+ preemptions resubmit
# them, so these pin the queue-retry order.
QUEUEING_TOY_DIGESTS = {
    42: {
        "events.log": "6f7092ea082f410019489dfe0a625229d936b084d9bff7d3eda192f4e84bea9e",
        "metrics.csv": "0b80e20441c5b0ba20817d5334e979ff1004a8f23c93fe8e7eda98e2fd4ad284",
        "summary.json": "2d436c7d0573b0ad9eda78e71b9752da9d5d228ccd31a9353c42775c184ddae4",
    },
    7: {
        "events.log": "ec17cf1a44fe37578d496aeb1938c06f8122e63688768905fa3864fd5e50e6f8",
        "metrics.csv": "8d4de2a6f814970fd8780c123e1febcd3945b0a1956a46a7297e80cdecf6e35f",
        "summary.json": "b2d6caffa2e2b8dfcd9a8dacea6678df9c170e8b7547120b065e2f38983de0a1",
    },
}


def assert_outputs_golden(tmp_path, seed, expected, **overrides):
    """Simulate the study2_toy variant with ``overrides`` and compare output digests."""
    scenario = toy_variant(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", scenario, "--out", str(out), "--seed", str(seed), "--event-log") == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


QUEUEING_TOY = dict(
    pool_overrides={"us-east-1": {"g4dn": 2, "c5": 2}, "eu-west-1": {"g4dn": 2, "c5": 2}},
    preemption_hazards={"*/*": 0.5},
)


@pytest.mark.parametrize("seed", sorted(QUEUEING_TOY_DIGESTS))
def test_simulate_queueing_outputs_are_golden(tmp_path, seed):
    assert_outputs_golden(tmp_path, seed, QUEUEING_TOY_DIGESTS[seed], **QUEUEING_TOY)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("seed", sorted(QUEUEING_TOY_DIGESTS))
def test_outputs_do_not_depend_on_the_event_block_size(tmp_path, monkeypatch, seed, block):
    monkeypatch.setattr(engine_module, "EVENT_BLOCK_ROWS", block)
    assert_outputs_golden(tmp_path, seed, QUEUEING_TOY_DIGESTS[seed], **QUEUEING_TOY)


# SHA-256 of the outputs of study2_toy with a reclaim hazard of 0.3 per
# instance-hour and i0001-i0039 scripted to be reclaimed at 3000 s: 30
# reclaims fall on that instant at seed 42 and 33 at seed 7.  These pin the
# order of same-instant reclaims: after every other event at their instant,
# one after another in acquisition order.
RECLAIM_BURST_DIGESTS = {
    42: {
        "events.log": "1dc5d5153d533f4b7139fe139e15128092a78a9f1e6d112d060cc4d452581e18",
        "metrics.csv": "29e9b084257d3902437a1b2f26f56bca37ed20fd47c6d69fc7ad20a51c89e593",
        "summary.json": "d3518ef6ec75fbdad7a9ed567b634243a8f29107b441b570d622c846b82142e5",
    },
    7: {
        "events.log": "6b1190d4b7dddcf289b6d27c3075ce0ad183ab492e68b5262b9bfcd6dc77a50f",
        "metrics.csv": "79d73a330335962ea0d049e5500ec1b595cdff184c9204773feb3c6a0a8a83b5",
        "summary.json": "5f77f20de7a46bcc4cacb701847a12bb0bbb71a9478840662f183048fde7c4a6",
    },
}


@pytest.mark.parametrize("seed", sorted(RECLAIM_BURST_DIGESTS))
def test_simulate_same_instant_reclaims_outputs_are_golden(tmp_path, seed):
    assert_outputs_golden(
        tmp_path,
        seed,
        RECLAIM_BURST_DIGESTS[seed],
        preemption_hazards={"*/*": 0.3},
        scripted_preemptions=[{"instance_id": f"i{k:04d}", "time_s": 3000} for k in range(1, 40)],
    )


def test_event_log_writer_keeps_the_per_row_format(tmp_path):
    # The writer formats a time only when it changes, but always a zero,
    # since 0.0 and -0.0 compare equal and print differently.  Its bytes
    # must be those of formatting every row on its own.
    rows = [
        (0.0, 0, "job_submitted", "j1", ""),
        (-0.0, 1, "job_submitted", "j2", ""),
        (0.0, 2, "instance_acquired", "", "i0001"),
        (1000.0, 3, "chunk_done", "j1", "i0001"),
        (1000.0, 4, "chunk_done", "j2", "i0001"),
        (1000.0, 5, "preemption", "", "i0001"),
        (-0.0, 6, "job_submitted", "j1", ""),
        (0.0, 7, "job_submitted", "j2", ""),
        (1234567.25, 8, "transition_done", "j1", "i0002"),
        (1234567.25, 9, "integrate_done", "j1", "i0002"),
        (1e-7, 10, "job_completed", "j1", "i0002"),
    ]
    path = tmp_path / "events.log"
    with scen.write_event_log(path) as recorder:
        recorder.record_events(rows[:5])  # the next block starts on the same time
        recorder.record_events(rows[5:])
    expected = "".join(f"{t:g},{seq},{kind},{job},{inst}\n" for t, seq, kind, job, inst in rows)
    assert path.read_text() == "time_s,seq,kind,job_id,instance_id\n" + expected
    assert expected.splitlines()[1:3] == ["-0,1,job_submitted,j2,", "0,2,instance_acquired,,i0001"]


# SHA-256 of the outputs of study2_toy with ligands on c5.4xl or c6g.8xl,
# two g4dn and four each of c5 and c6g per region, and a reclaim hazard of
# 0.2 per instance-hour.  Completions free capacity on instances acquired
# before others that are still open, so the open list takes insertions in
# its middle; these pin first-fit's scan in acquisition order.
FIRST_FIT_TOY_DIGESTS = {
    42: {
        "events.log": "f9bb260dd1462fc929b95ca055bb202933570d453bc83fba8a011f61da5c52d5",
        "metrics.csv": "d396ba9928088491f9b0938c220418061944309a230b44c925b9021832efb471",
        "summary.json": "10bd4a5de9f80cb2b9682f0b6083823dece061b81092d55a9fbd33b2e7c9fae7",
    },
    7: {
        "events.log": "6ca3be96a884028d248d05adb4bd885aff64e7e9b7e315c3adc3e406d06b235f",
        "metrics.csv": "f423cb4e0d00e861425fc0d77f9448674bbc9bd852213bfbc756b5c43262a97c",
        "summary.json": "3d6ad5e4ec37c87344c55c822ec795d7c78e1e1811f6408b66c58e9a0c42b483",
    },
}


@pytest.mark.parametrize("seed", sorted(FIRST_FIT_TOY_DIGESTS))
def test_simulate_first_fit_outputs_are_golden(tmp_path, seed):
    pools = {"g4dn": 2, "c5": 4, "c6g": 4}
    assert_outputs_golden(
        tmp_path,
        seed,
        FIRST_FIT_TOY_DIGESTS[seed],
        allowed_types={"complex": ["g4dn.4xl"], "ligand": ["c5.4xl", "c6g.8xl"]},
        pool_overrides={"us-east-1": dict(pools), "eu-west-1": dict(pools)},
        preemption_hazards={"*/*": 0.2},
    )


@pytest.mark.parametrize(
    "override, named",
    [
        pytest.param({"routing": {"mode": "weighted_random"}}, "'weights'", id="routing-without-weights"),
        pytest.param({"waves": [{"time_s": 0}]}, "'kinds'", id="wave-without-kinds"),
        pytest.param({"transition_slowdown": 0}, "transition_slowdown", id="zero-slowdown"),
        pytest.param({"transition_slowdown": -1}, "transition_slowdown", id="negative-slowdown"),
        pytest.param({"acquisitions_per_region_minute": -2}, "acquisitions_per_region_minute",
                     id="negative-acquisition-rate"),
        pytest.param({"grace_period_s": float("nan")}, "NaN", id="nan-grace-period"),
        pytest.param({"grace_period_s": float("inf")}, "Infinity", id="infinite-grace-period"),
        pytest.param({"grace_period_s": "abc"}, "grace_period_s", id="string-grace-period"),
        pytest.param({"metrics_interval_s": "x"}, "metrics_interval_s", id="string-metrics-interval"),
        pytest.param({"routing": {"weights": {"us-east-1": "a"}}}, "routing.weights.us-east-1",
                     id="string-routing-weight"),
        pytest.param({"acquisition_latency_s": True}, "acquisition_latency_s", id="boolean-latency"),
        pytest.param({"seed": 1.5}, "seed must be a whole number", id="fractional-seed"),
        pytest.param({"pool_overrides": {"us-east-1": {"c5": 2.5}}}, "pool_overrides.us-east-1.c5",
                     id="fractional-pool-override"),
        pytest.param({"pool_overrides": {"us-east-1": {"c5": -3}}}, "pool_overrides.us-east-1.c5",
                     id="negative-pool-override"),
        pytest.param({"routing": {"weights": [1, 2]}}, "routing.weights must be a JSON object",
                     id="list-routing-weights"),
        pytest.param({"preemption_hazards": [0.5]}, "preemption_hazards must be a JSON object",
                     id="list-hazards"),
        pytest.param({"pool_overrides": {"us-east-1": 3}}, "pool_overrides.us-east-1 must be a JSON object",
                     id="number-pool-override-region"),
        pytest.param({"scripted_preemptions": [{"time_s": 10}]},
                     "scripted_preemptions[0] is missing the 'instance_id'",
                     id="scripted-preemption-without-id"),
        pytest.param({"allowed_types": {"complex": "g4dn.4xl", "ligand": ["c5.2xl"]}},
                     "allowed_types.complex must be a list", id="string-allowed-types"),
        pytest.param({"waves": [{"time_s": 0, "kinds": "ligand"}]}, "waves[0].kinds must be a list",
                     id="string-wave-kinds"),
        pytest.param({"payment": "bogus"}, "payment must be one of", id="unknown-payment"),
        pytest.param({"catalog": "missing.json"}, "catalog names no file", id="missing-catalog-file"),
        pytest.param({"grace_periods_s": 5}, "scenario has unknown key 'grace_periods_s'",
                     id="misspelled-grace-period"),
        pytest.param({"routing": {"weights": {"us-east-1": 1}, "mdoe": "proportional_roundrobin"}},
                     "routing has unknown key 'mdoe'", id="misspelled-routing-mode"),
        pytest.param({"waves": [{"time_s": 0, "kinds": ["ligand"], "kind": "complex"}]},
                     "waves[0] has unknown key 'kind'", id="unknown-wave-key"),
        pytest.param({"allowed_types": {"complx": ["g4dn.4xl"], "ligand": ["c5.2xl"]}},
                     "allowed_types has unknown key 'complx'", id="misspelled-allowed-kind"),
        pytest.param({"waves": [{"time_s": 0, "kinds": ["complex"]}, {"time_s": 5000, "kinds": ["lignd"]}]},
                     "waves[1].kinds[0]", id="misspelled-wave-kind"),
    ],
)
def test_simulate_rejects_bad_scenario_at_load(tmp_path, capsys, override, named):
    scenario = toy_variant(tmp_path, **override)
    assert run_cli("simulate", "--scenario", scenario, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scenario}: ") and "Traceback" not in err
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param({"pool_overrides": {"us-eats-1": {"g4dn": 0}}},
                     "pool override references unknown region 'us-eats-1'", id="pool-override"),
        pytest.param({"preemption_hazards": {"us-eats-1/*": 5.0}},
                     "preemption hazard references unknown region 'us-eats-1'", id="hazard"),
    ],
)
def test_simulate_rejects_unknown_region_in_pools_and_hazards(tmp_path, capsys, override, message):
    scenario = toy_variant(tmp_path, **override)
    assert run_cli("simulate", "--scenario", scenario, "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        pytest.param({"pool_overrides": {"us-east-1": {"g4dnn": 0}}}, id="pool-override"),
        pytest.param({"preemption_hazards": {"us-east-1/g4dnn": 5.0}}, id="hazard"),
        pytest.param({"preemption_hazards": {"*/g4dnn": 5.0}}, id="hazard-any-region"),
    ],
)
def test_simulate_rejects_unknown_instance_family_in_pools_and_hazards(tmp_path, capsys, override):
    what = "pool override" if "pool_overrides" in override else "preemption hazard"
    scenario = toy_variant(tmp_path, **override)
    assert run_cli("simulate", "--scenario", scenario, "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} references unknown instance family 'g4dnn'\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, n_jobs", [("study1_toy", 240), ("study2_toy", 240), ("study1_full", 19_872), ("study2_full", 6_984)]
)
def test_every_bundled_scenario_builds_its_engine(name, n_jobs):
    # Their pool overrides and hazard keys name only catalog families or "*",
    # and every (kind, system) of their workloads has a candidate type.
    engine = scen.build_engine(scen.load_scenario(spotbatch.data_path(f"scenarios/{name}.json")))
    assert len(engine.jobs) == n_jobs
    types = {}
    for job in engine.jobs.values():
        types.setdefault((job.spec.kind, job.spec.system), set()).update(job.candidates.names)
    assert len(types) > 1 and all(types.values()), types


def study1_toy_types(**kinds):
    """study1_toy's allowed types with the lists of ``kinds`` replaced."""
    doc = json.loads(spotbatch.data_path("scenarios/study1_toy.json").read_text())
    return {**doc["allowed_types"], **kinds}


def simulate_logged(tmp_path, capsys, scenario, seed):
    """Exit code, stdout, stderr and the bytes of every output file of one logged run."""
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
    code = run_cli("simulate", "--scenario", scenario, "--out", str(out), "--seed", str(seed), "--event-log")
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("seed", [42, 7])
def test_a_listed_type_with_no_rate_for_the_system_is_not_a_candidate(tmp_path, capsys, seed):
    # cmet_ligand has no benchmark record on c5.9xl, so listing it first for
    # ligands changes nothing: the run is byte for byte the bundled one.
    probe = toy_variant(tmp_path, "study1_toy", allowed_types=study1_toy_types(ligand=["c5.9xl", "c5.2xl"]))
    bundled = str(spotbatch.data_path("scenarios/study1_toy.json"))
    runs = [simulate_logged(tmp_path, capsys, scenario, seed) for scenario in (probe, bundled)]
    assert runs[0] == runs[1]
    code, _, err, files = runs[0]
    assert code == 0 and err == "" and sorted(files) == ["events.log", "metrics.csv", "summary.json"]


def test_jobs_with_no_candidate_type_fail(tmp_path, capsys):
    scenario = toy_variant(tmp_path, "study1_toy", allowed_types=study1_toy_types(ligand=["c5.9xl"]))
    code, _, err, files = simulate_logged(tmp_path, capsys, scenario, 42)
    assert code == 1 and err == "failed_jobs: 120\n"
    summary = json.loads(files["summary.json"])
    assert (summary["n_jobs"], summary["n_completed"], summary["n_failed"]) == (240, 120, 120)
    assert b"c5." not in files["metrics.csv"]


def test_a_workload_system_with_no_benchmark_record_stops_at_construction(tmp_path, capsys):
    plain = str(spotbatch.data_path("bench_plain_cpu.csv"))
    scenario = toy_variant(tmp_path, "study1_toy", benchmarks=[plain])
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", scenario, "--out", str(out), "--event-log") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no benchmark record for system 'cmet_complex'\n" and captured.out == ""
    assert not out.exists()


def test_scenario_accepts_zero_pool_override_and_whole_float_seed(tmp_path):
    scenario = scen.load_scenario(toy_variant(tmp_path, seed=7.0, pool_overrides={"us-east-1": {"c5": 0}}))
    assert scenario.config.seed == 7 and isinstance(scenario.config.seed, int)
    assert scenario.config.pool_overrides == {"us-east-1": {"c5": 0}}


def edited_json(tmp_path, name, edit):
    """The bundled JSON file ``name`` after ``edit(document)``, written under ``tmp_path``; its path."""
    doc = json.loads(spotbatch.data_path(name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def edited_csv(tmp_path, name, column, value):
    """The bundled CSV ``name`` with ``column`` of its first data row (line 2) set to ``value``; its path."""
    lines = spotbatch.data_path(name).read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[1] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "name, edit, named",
    [
        pytest.param("catalog_aws.json", lambda d: d["instances"][3].pop("name"),
                     "instances[3] is missing the 'name' key", id="instance-without-name"),
        pytest.param("catalog_aws.json", lambda d: d["instances"][3].update(vcpus="abc"),
                     "instances[3].vcpus must be a whole number", id="string-vcpus"),
        pytest.param("catalog_aws.json", lambda d: d["instances"][3].update(vcpus=16.7),
                     "instances[3].vcpus must be a whole number", id="fractional-vcpus"),
        pytest.param("catalog_aws.json", lambda d: d.update(instances=5),
                     "instances must be a list", id="number-instances"),
        pytest.param("catalog_aws.json", lambda d: d["regions"][1].update(spot_pool=[1]),
                     "regions[1].spot_pool must be a JSON object", id="list-spot-pool"),
        pytest.param("catalog_aws.json", lambda d: d["regions"][1].update(weight="x"),
                     "regions[1].weight must be a number", id="string-region-weight"),
        pytest.param("catalog_aws.json", lambda d: d["prices"][5].update(spot_fraction=None),
                     "prices[5].spot_fraction must be a number", id="null-spot-fraction"),
        pytest.param("catalog_aws.json", lambda d: d["prices"][5].update(on_demand_per_hour="1"),
                     "prices[5].on_demand_per_hour must be a number", id="string-price"),
        pytest.param("workload_toy.json", lambda d: d["targets"][0].pop("edges"),
                     "targets[0] is missing the 'edges' key", id="target-without-edges"),
        pytest.param("workload_toy.json", lambda d: d["resource_policy"]["complex"].pop("vcpus"),
                     "resource_policy.complex is missing the 'vcpus' key", id="policy-without-vcpus"),
        pytest.param("workload_toy.json", lambda d: d.update(targets={"a": 1}),
                     "targets must be a list", id="object-targets"),
        pytest.param("workload_toy.json", lambda d: d.update(timestep_fs=1e-310),
                     "equil_ns * 1e6 / timestep_fs must be a finite number", id="tiny-timestep"),
        pytest.param("workload_toy.json", lambda d: d.update(transition_ps=1e308),
                     "transition_ps * 1e3 / timestep_fs must be a finite number", id="huge-transition"),
        pytest.param("workload_toy.json", lambda d: d["targets"][0].update(edges=2.9),
                     "targets[0].edges must be a whole number", id="fractional-edges"),
        pytest.param("workload_toy.json", lambda d: d.update(replicas="3"),
                     "replicas must be a whole number", id="string-replicas"),
        pytest.param("workload_toy.json", lambda d: d["targets"].append(d["targets"][0]),
                     "targets[1].name duplicates targets[0].name 'cmet'", id="duplicate-target"),
        pytest.param("catalog_aws.json", lambda d: d["prices"][5].update(spot_fracton=0.5),
                     "prices[5] has unknown key 'spot_fracton'", id="misspelled-spot-fraction"),
        pytest.param("catalog_aws.json", lambda d: d["instances"][3].update(gpu=1),
                     "instances[3] has unknown key 'gpu'", id="misspelled-instance-gpus"),
        pytest.param("catalog_aws.json", lambda d: d.update(currency_per_dollar=0.9),
                     "catalog has unknown key 'currency_per_dollar'", id="unknown-catalog-key"),
        pytest.param("workload_toy.json", lambda d: d.update(chunk_step=5_000_000),
                     "workload has unknown key 'chunk_step'", id="misspelled-chunk-steps"),
        pytest.param("workload_toy.json", lambda d: d["resource_policy"].update(lignd={"vcpus": 4}),
                     "resource_policy has unknown key 'lignd'", id="misspelled-policy-kind"),
        pytest.param("workload_toy.json", lambda d: d["resource_policy"]["complex"].update(gpu=1),
                     "resource_policy.complex has unknown key 'gpu'", id="misspelled-policy-gpus"),
        pytest.param("workload_toy.json", lambda d: d["targets"][0].update(edge=3),
                     "targets[0] has unknown key 'edge'", id="misspelled-target-key"),
    ],
)
def test_simulate_rejects_bad_catalog_or_workload_naming_file_and_key(tmp_path, capsys, name, edit, named):
    path = edited_json(tmp_path, name, edit)
    scenario = toy_variant(tmp_path, **{"catalog" if name.startswith("catalog") else "workload": path})
    assert run_cli("simulate", "--scenario", scenario, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(lambda d: d.update(instances=5), "instances must be a list", id="number-instances"),
        pytest.param(lambda d: d["regions"][1].update(spot_pool=[1]),
                     "regions[1].spot_pool must be a JSON object", id="list-spot-pool"),
        # us-east-1 is priced 42 times; none of those prices is reported as dangling.
        pytest.param(lambda d: d["regions"][0].update(spot_pool=[1]),
                     "regions[0].spot_pool must be a JSON object", id="list-spot-pool-priced-region"),
    ],
)
def test_validate_reports_bad_catalog_shapes(tmp_path, capsys, edit, named):
    path = edited_json(tmp_path, "catalog_aws.json", edit)
    assert run_cli("validate", "--catalog", path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{path}: {named}")


@pytest.mark.parametrize(
    "name, column, value, message",
    [
        pytest.param("bench_fe_gpu.csv", "ranks", "x", "ranks must be a whole number, got 'x'", id="bench-x"),
        pytest.param("bench_fe_gpu.csv", "ns_per_day", "nan",
                     "ns_per_day must be a finite number, got 'nan'", id="bench-nan"),
        pytest.param("scaling_c5n18xl.csv", "n_instances", "x", "n_instances must be a whole number, got 'x'",
                     id="scaling-x"),
        pytest.param("scaling_c5n18xl.csv", "ns_per_day", "nan",
                     "ns_per_day must be a finite number, got 'nan'", id="scaling-nan"),
        pytest.param("scaling_c5n18xl.csv", "ns_per_day", "-9.0",
                     "scaling series (mem, c5n.18xl): ns_per_day at n=1 must be a finite number > 0, got -9.0",
                     id="scaling-series"),
    ],
)
def test_bad_benchmark_cell_exits_1_naming_line_and_column(tmp_path, capsys, name, column, value, message):
    path = edited_csv(tmp_path, name, column, value)
    if name.startswith("bench"):
        scenario = toy_variant(tmp_path, benchmarks=[path, FE_CPU])
        argv = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "out")]
    else:
        argv = ["bench", "--scaling", path]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--equil-ns", "-5", "equil_ns"),
        ("--deadline-h", "nan", "max_runtime_h"),
        ("--transition-ns", "inf", "transition_ns"),
    ],
)
def test_recommend_rejects_bad_numbers(capsys, flag, value, named):
    argv = ["recommend", "--bench", FE_GPU, "--catalog", CATALOG, "--system", "cmet_complex", flag, value]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} must be a finite number")
