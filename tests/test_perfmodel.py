from __future__ import annotations

import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbatch
from spotbatch import catalog as cat
from spotbatch import perfmodel as pm
from spotbatch.errors import MissingRecordError, ParseError, ValidationError


# -- performance-to-price ----------------------------------------------------


def test_pp_ratio_reference_values():
    # Expected values frozen from ns_per_day / (24 * price) on the raw columns.
    assert pm.pp_ratio(105.3735, 4.08) == pytest.approx(1.076, abs=1e-3)
    assert pm.pp_ratio(24.0, 1.0) == pytest.approx(1.0)
    assert pm.pp_ratio(4.0275, 0.752) == pytest.approx(0.2232, abs=5e-4)


def test_pp_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        pm.pp_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        pm.pp_ratio(10.0, -2.0)
    with pytest.raises(ValueError):
        pm.pp_ratio(math.nan, 1.0)
    with pytest.raises(ValueError):
        pm.pp_ratio(10.0, math.inf)


@given(
    perf=st.floats(0.001, 1e4),
    price=st.floats(0.001, 1e3),
    k=st.floats(0.01, 100.0),
)
def test_pp_ratio_homogeneous(perf, price, k):
    assert pm.pp_ratio(k * perf, k * price) == pytest.approx(pm.pp_ratio(perf, price), rel=1e-9)


# -- scaling -----------------------------------------------------------------


def _series(points, system="rib", instance="c5n.18xl"):
    return pm.ScalingSeries(system=system, instance=instance, points=tuple(points))


def test_parallel_efficiency_reference(c5n_scaling):
    eff = dict(pm.parallel_efficiency(c5n_scaling["rib"]))
    assert eff[1] == 1.0
    assert eff[8] == pytest.approx(0.879, abs=1e-3)


def test_parallel_efficiency_two_instances(c5n_scaling):
    # 105.52 / (2 * 89.388) = 0.5902...
    eff = dict(pm.parallel_efficiency(c5n_scaling["mem"]))
    assert eff[2] == pytest.approx(105.52 / (2 * 89.388), rel=1e-12)
    assert eff[2] == pytest.approx(0.590, abs=1e-3)


def test_parallel_efficiency_baseline_is_exactly_one():
    series = _series([(1, 3.7), (4, 11.0)])
    assert pm.parallel_efficiency(series)[0] == (1, 1.0)


def test_superlinear_efficiency_not_clamped():
    series = _series([(1, 1.0), (2, 2.4)])
    assert dict(pm.parallel_efficiency(series))[2] == pytest.approx(1.2)


def test_series_requires_baseline():
    with pytest.raises(ValidationError):
        _series([(2, 10.0), (4, 20.0)])


def test_speedup_reference(c5n_scaling):
    assert pm.speedup(c5n_scaling["rib"], 32) == pytest.approx(14.02, abs=0.02)
    assert pm.speedup(c5n_scaling["rib"], 1) == 1.0


def test_speedup_g4dn16xl():
    # 28.3745 / 7.481 = 3.7929...
    series = {s.system: s for s in pm.load_scaling(__import__("spotbatch").data_path("scaling_g4dn16xl.csv"))}
    assert pm.speedup(series["rib"], 16) == pytest.approx(28.3745 / 7.481, rel=1e-12)
    assert pm.speedup(series["rib"], 16) == pytest.approx(3.793, abs=1e-3)


def test_speedup_missing_point():
    with pytest.raises(MissingRecordError):
        pm.speedup(_series([(1, 1.0), (2, 1.5)]), 7)


# -- best configuration ------------------------------------------------------


def test_best_config_picks_fastest(plain_records):
    best = pm.best_config(plain_records, "mem", "c5.24xl")
    assert (best.ranks, best.threads, best.pme_ranks) == (48, 2, 0)
    assert best.ns_per_day == pytest.approx(105.3735)


def test_best_config_single_candidate():
    rec = pm.BenchmarkRecord("s", "i", 1, 8, 0, "plain", 10.0)
    assert pm.best_config([rec], "s", "i") is rec


def test_best_config_tie_breaks_on_fewer_ranks():
    a = pm.BenchmarkRecord("s", "i", 96, 1, 0, "plain", 10.0)
    b = pm.BenchmarkRecord("s", "i", 48, 2, 0, "plain", 10.0)
    assert pm.best_config([a, b], "s", "i") is b
    c = pm.BenchmarkRecord("s", "i", 48, 2, 8, "plain", 10.0)
    assert pm.best_config([a, b, c], "s", "i") is b


def test_best_config_no_match():
    with pytest.raises(MissingRecordError):
        pm.best_config([], "s", "i")


BENCH_FILES = ("bench_fe_cpu.csv", "bench_fe_gpu.csv", "bench_plain_cpu.csv", "bench_plain_gpu.csv")


def test_best_configs_agrees_with_best_config():
    records = pm.load_many_benchmarks([spotbatch.data_path(f) for f in BENCH_FILES])
    instances = sorted({r.instance for r in records})
    for system in sorted({r.system for r in records}):
        best = pm.best_configs(records, system)
        assert all(key[1] in pm.PHASES for key in best)
        for instance in instances:
            for phase in pm.PHASES:
                if (instance, phase) in best:
                    assert best[(instance, phase)] is pm.best_config(records, system, instance, phase)
                else:
                    with pytest.raises(MissingRecordError):
                        pm.best_config(records, system, instance, phase)


def test_best_configs_full_tie_keeps_first_record():
    first = pm.BenchmarkRecord("s", "i", 48, 2, 8, "equilibration", 10.0)
    second = pm.BenchmarkRecord("s", "i", 48, 2, 8, "equilibration", 10.0)
    slower = pm.BenchmarkRecord("s", "i", 1, 8, 0, "equilibration", 9.0)
    records = [slower, first, second]
    assert pm.best_configs(records, "s")[("i", "equilibration")] is first
    assert pm.best_config(records, "s", "i", "equilibration") is first


def test_phase_rates_fallback_and_missing_equilibration():
    equil = pm.BenchmarkRecord("s", "i", 1, 8, 0, "equilibration", 48.0)
    trans = pm.BenchmarkRecord("s", "i", 1, 8, 0, "transition", 20.0)
    assert pm.BenchmarkSet([equil]).rates("s", 0.5) == {"i": (equil, 48.0, 24.0)}
    assert pm.BenchmarkSet([equil, trans]).rates("s", 0.5) == {"i": (equil, 48.0, 20.0)}
    # Without an equilibration record the instance has no rate; a system
    # with no record at all is named as missing.
    assert pm.BenchmarkSet([trans]).rates("s", 0.5) == {}
    with pytest.raises(MissingRecordError, match="no benchmark record for system 't'"):
        pm.BenchmarkSet([trans]).rates("t", 0.5)


def test_recommend_and_predict_accept_one_pass_iterators(fe_records, aws_catalog):
    assert isinstance(fe_records, pm.BenchmarkSet)
    records = list(fe_records)
    for kwargs in (dict(max_runtime_h=20.0, payment=cat.SPOT, region="eu-west-1"), dict(transition_slowdown=0.7)):
        expected = pm.recommend(records, aws_catalog, "cmet_complex", **kwargs)
        assert {"g4dn.4xl", "g4dn.xl"} <= {r.instance for r in expected}
        assert pm.recommend(iter(records), aws_catalog, "cmet_complex", **kwargs) == expected
        assert pm.recommend(fe_records, aws_catalog, "cmet_complex", **kwargs) == expected


def test_benchmark_set_keeps_one_best_configs_map_per_system():
    paths = [spotbatch.data_path(f) for f in BENCH_FILES]
    records = pm.load_many_benchmarks(paths)
    assert isinstance(records, pm.BenchmarkSet)
    assert list(records) == [r for p in paths for r in pm.load_benchmarks(p)]
    for system in sorted({r.system for r in records}):
        best = pm.best_configs(list(records), system)
        expected = {}
        for (instance, phase), record in best.items():
            if phase == pm.PHASE_EQUILIBRATION:
                trans = best.get((instance, pm.PHASE_TRANSITION))
                rate = record.ns_per_day
                expected[instance] = (record, rate, rate * 0.5 if trans is None else trans.ns_per_day)
        table = records.rates(system, 0.5)
        assert table == expected
        assert records.rates(system, 0.5) is table
        assert (table == {}) == (system in ("mem", "rib"))
    assert pm.BenchmarkSet(records) is records


def test_recommend_scans_a_loaded_set_once_per_system(fe_records, aws_catalog, monkeypatch):
    scans = []
    best_configs = pm.best_configs
    monkeypatch.setattr(pm, "best_configs", lambda records, system: scans.append(system) or best_configs(records, system))
    records = pm.BenchmarkSet(list(fe_records))
    for objective in pm.OBJECTIVES:
        for system in ("cmet_complex", "cmet_ligand", "cmet_complex"):
            pm.recommend(records, aws_catalog, system, objective=objective)
    assert scans == ["cmet_complex", "cmet_ligand"]
    pm.recommend(list(records), aws_catalog, "cmet_complex")
    assert scans[2:] == ["cmet_complex"]


# -- pareto frontier ---------------------------------------------------------


def brute_force_frontier(points):
    keep = []
    for p in points:
        dominated = any(
            q is not p
            and q.ns_per_day >= p.ns_per_day
            and q.price_per_hour <= p.price_per_hour
            and (q.ns_per_day > p.ns_per_day or q.price_per_hour < p.price_per_hour)
            for q in points
        )
        if not dominated:
            keep.append(p)
    return sorted(keep, key=lambda p: (p.price_per_hour, -p.ns_per_day, p.label))


def test_pareto_drops_dominated_gpu_point():
    g3s = pm.PerfPoint("g3s.xl", 0.75, 2.089)
    g4dn = pm.PerfPoint("g4dn.xl", 0.526, 3.173)
    assert pm.pareto_frontier({g3s, g4dn}) == [g4dn]


def test_pareto_single_point():
    p = pm.PerfPoint("only", 1.0, 1.0)
    assert pm.pareto_frontier([p]) == [p]


def test_pareto_keeps_mutually_nondominating():
    cheap = pm.PerfPoint("cheap", 0.5, 1.0)
    fast = pm.PerfPoint("fast", 2.0, 9.0)
    assert pm.pareto_frontier([fast, cheap]) == [cheap, fast]


def test_pareto_empty_raises():
    with pytest.raises(ValueError):
        pm.pareto_frontier([])


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
        min_size=1,
        max_size=20,
    )
)
def test_pareto_matches_brute_force_and_is_idempotent(raw):
    points = [pm.PerfPoint(f"p{i}", price, perf) for i, (price, perf) in enumerate(raw)]
    frontier = pm.pareto_frontier(points)
    assert frontier == brute_force_frontier(points)
    assert pm.pareto_frontier(frontier) == frontier
    # Every dropped point is dominated by something on the frontier.
    for p in points:
        if p in frontier:
            continue
        assert any(
            q.ns_per_day >= p.ns_per_day
            and q.price_per_hour <= p.price_per_hour
            and (q.ns_per_day > p.ns_per_day or q.price_per_hour < p.price_per_hour)
            for q in frontier
        )


# -- runtime prediction ------------------------------------------------------


def runtime_h(records, catalog, system, instance, **kwargs):
    """The runtime ``recommend`` gives ``system`` on ``instance`` (6 ns equilibration, 4 ns transition)."""
    return next(r.runtime_h for r in pm.recommend(records, catalog, system, **kwargs) if r.instance == instance)


def test_predict_runtime_cmet_complex(fe_records, aws_catalog):
    # 10 ns / 61.866 ns/day * 24 h/day = 3.879 h
    hours = runtime_h(fe_records, aws_catalog, "cmet_complex", "g4dn.4xl")
    assert hours == pytest.approx(10.0 / 61.866 * 24.0, rel=1e-12)
    assert hours == pytest.approx(3.879, abs=1e-3)


def test_predict_runtime_cmet_ligand(fe_records, aws_catalog):
    hours = runtime_h(fe_records, aws_catalog, "cmet_ligand", "c5.2xl")
    assert hours == pytest.approx(10.0 / 52.371 * 24.0, rel=1e-12)
    assert hours == pytest.approx(4.582, abs=1e-3)


def test_predict_runtime_zero_transition(fe_records, aws_catalog):
    hours = runtime_h(fe_records, aws_catalog, "cmet_complex", "g4dn.4xl", transition_ns=0.0)
    assert hours == pytest.approx(6.0 / 61.866 * 24.0, rel=1e-12)


def test_predict_runtime_uses_transition_record_when_present(aws_catalog):
    records = [
        pm.BenchmarkRecord("s", "c5.2xl", 1, 8, 0, "equilibration", 48.0),
        pm.BenchmarkRecord("s", "c5.2xl", 1, 8, 0, "transition", 24.0),
    ]
    hours = runtime_h(records, aws_catalog, "s", "c5.2xl")
    assert hours == pytest.approx(6.0 / 48.0 * 24 + 4.0 / 24.0 * 24)


def test_predict_runtime_slowdown_fallback(aws_catalog):
    records = [pm.BenchmarkRecord("s", "c5.2xl", 1, 8, 0, "equilibration", 48.0)]
    hours = runtime_h(records, aws_catalog, "s", "c5.2xl", transition_slowdown=0.5)
    assert hours == pytest.approx(6.0 / 48.0 * 24 + 4.0 / 24.0 * 24)


def test_predict_runtime_missing_equilibration(aws_catalog):
    # A system with records but none for equilibration has no candidate;
    # a system with no record at all is named as missing.
    assert pm.recommend([pm.BenchmarkRecord("s", "c5.2xl", 1, 8, 0, "transition", 24.0)], aws_catalog, "s") == []
    with pytest.raises(MissingRecordError, match="no benchmark record for system 's'"):
        pm.recommend([], aws_catalog, "s")


@given(rate=st.floats(1.0, 500.0))
def test_predict_runtime_inverse_in_rate(aws_catalog, rate):
    slow = [pm.BenchmarkRecord("s", "c5.2xl", 1, 1, 0, "equilibration", rate)]
    fast = [pm.BenchmarkRecord("s", "c5.2xl", 1, 1, 0, "equilibration", 2 * rate)]
    t_slow = runtime_h(slow, aws_catalog, "s", "c5.2xl")
    t_fast = runtime_h(fast, aws_catalog, "s", "c5.2xl")
    assert t_fast == pytest.approx(t_slow / 2.0, rel=1e-9)


# -- recommendation ----------------------------------------------------------


def test_recommend_gpu_family_beats_cpu_under_deadline(fe_records, aws_catalog):
    ranked = pm.recommend(
        fe_records, aws_catalog, "cmet_complex", max_runtime_h=9.0, objective="min_cost", payment=cat.SPOT
    )
    assert ranked, "expected feasible instances"
    names = [r.instance for r in ranked]
    g4dn_positions = {n: names.index(n) for n in ("g4dn.2xl", "g4dn.4xl", "g4dn.8xl")}
    c5_positions = [i for i, n in enumerate(names) if n.startswith("c5.")]
    assert c5_positions, "c5 instances should be feasible too"
    assert max(g4dn_positions.values()) < min(c5_positions)
    # Constraint respected, and min_cost ordering is nondecreasing in cost.
    assert all(r.runtime_h <= 9.0 for r in ranked)
    costs = [r.cost for r in ranked]
    assert costs == sorted(costs)


def test_recommend_infeasible_deadline_returns_empty(fe_records, aws_catalog):
    assert pm.recommend(fe_records, aws_catalog, "cmet_complex", max_runtime_h=0.001) == []


def _unread_records():
    raise AssertionError("recommend read the records before checking its arguments")
    yield


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(max_runtime_h=0.001, payment="bogus"), "unknown payment model 'bogus'"),
        (dict(payment="bogus"), "unknown payment model 'bogus'"),
        (dict(objective="bogus"), "unknown objective 'bogus'"),
        (dict(equil_ns=math.nan), "equil_ns must be a finite number"),
    ],
)
def test_recommend_rejects_bad_arguments_before_reading_records(aws_catalog, kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        pm.recommend(_unread_records(), aws_catalog, "cmet_complex", **kwargs)


def test_recommend_single_feasible(aws_catalog):
    records = [pm.BenchmarkRecord("solo", "c5.2xl", 1, 8, 0, "equilibration", 50.0)]
    ranked = pm.recommend(records, aws_catalog, "solo", max_runtime_h=10.0)
    assert [r.instance for r in ranked] == ["c5.2xl"]


def test_recommend_min_time_sorted_by_runtime(fe_records, aws_catalog):
    ranked = pm.recommend(fe_records, aws_catalog, "cmet_complex", objective="min_time")
    runtimes = [r.runtime_h for r in ranked]
    assert runtimes == sorted(runtimes)


def test_recommend_raises_for_the_first_unquoted_reserved_candidate_in_catalog_order():
    names = ("x.quoted", "x.first", "x.second")
    catalog = cat.build_catalog(
        {
            "instances": [{"name": n, "vcpus": 8} for n in names],
            "regions": [{"name": "r1"}],
            "prices": [
                {"instance": "x.quoted", "region": "r1", "on_demand_per_hour": 1.0, "reserved_upfront_per_hour": 0.5},
                {"instance": "x.first", "region": "r1", "on_demand_per_hour": 1.0},
                {"instance": "x.second", "region": "r1", "on_demand_per_hour": 1.0},
            ],
        }
    )
    # Records in the reverse of catalog order; 10 ns at 240, 24 and 120 ns/day take 1, 10 and 2 h.
    records = [
        pm.BenchmarkRecord("s", name, 1, 8, 0, "equilibration", rate)
        for name, rate in (("x.second", 120.0), ("x.first", 24.0), ("x.quoted", 240.0))
    ]
    reserved = dict(payment=cat.RESERVED_UPFRONT, region="r1")
    with pytest.raises(MissingRecordError, match=re.escape("no reserved rate quoted for (x.first, r1)")):
        pm.recommend(records, catalog, "s", **reserved)
    # A candidate that misses the deadline is dropped before its rate is read.
    with pytest.raises(MissingRecordError, match=re.escape("no reserved rate quoted for (x.second, r1)")):
        pm.recommend(records, catalog, "s", max_runtime_h=5.0, **reserved)
    assert pm.recommend(records, catalog, "s", max_runtime_h=1.5, **reserved) == [
        pm.Recommendation("x.quoted", 1, 8, 1.0, 0.5)
    ]


def test_a_recommendation_is_an_immutable_row():
    row = pm.Recommendation("c5.2xl", 1, 8, 4.5, 1.25)
    assert pm.Recommendation._fields == ("instance", "ranks", "threads", "runtime_h", "cost")
    with pytest.raises(AttributeError):
        row.cost = 0.0
    assert row == ("c5.2xl", 1, 8, 4.5, 1.25)


def render_recommend_grid(records, catalog):
    """Every FE system x region x payment x deadline x objective, one line per query."""
    lines = []
    for system in sorted({r.system for r in records}):
        for region in catalog.regions:
            for payment in (cat.SPOT, cat.ON_DEMAND, cat.RESERVED_UPFRONT):
                for deadline in (4.0, 20.0):
                    for objective in ("min_cost", "min_time"):
                        try:
                            ranked = pm.recommend(
                                records, catalog, system, max_runtime_h=deadline,
                                objective=objective, payment=payment, region=region,
                            )
                            body = " ".join(
                                f"{r.instance}/{r.ranks}x{r.threads}/{r.runtime_h!r}/{r.cost!r}" for r in ranked
                            )
                        except MissingRecordError as exc:
                            body = f"MissingRecordError: {exc}"
                        lines.append(f"{system} {region} {payment} {deadline!r} {objective} -> {body}\n")
    return "".join(lines)


# SHA-256 of render_recommend_grid over the bundled FE tables and catalog.
# It pins every ranked answer, and the reserved-rate MissingRecordError
# raised where a priced instance has no reserved quote.
RECOMMEND_GRID_DIGEST = "c89afd207462cc74e3b1d7a654f1fddfecdf2c2199a933579ede38931f7d5ee8"


def test_recommend_grid_is_golden(fe_records, aws_catalog):
    rendered = render_recommend_grid(fe_records, aws_catalog)
    assert "MissingRecordError: " in rendered
    assert hashlib.sha256(rendered.encode()).hexdigest() == RECOMMEND_GRID_DIGEST


# -- CSV ingestion -----------------------------------------------------------


def test_bench_csv_round_trip(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(
        "system,instance,ranks,threads,pme_ranks,phase,ns_per_day\n"
        "mem,c5.2xl,1,8,0,plain,12.5\n"
    )
    (rec,) = pm.load_benchmarks(path)
    assert rec.system == "mem" and rec.ns_per_day == 12.5


def test_bench_csv_bad_header(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        pm.load_benchmarks(path)


def test_scaling_csv_groups_series(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "system,instance,n_instances,ns_per_day\n"
        "rib,c5n.18xl,1,5.0\n"
        "rib,c5n.18xl,2,9.0\n"
        "mem,c5n.18xl,1,89.0\n"
    )
    series = {s.system: s for s in pm.load_scaling(path)}
    assert series["rib"].points == ((1, 5.0), (2, 9.0))
    assert series["mem"].points == ((1, 89.0),)


NAN = float("nan")


@pytest.mark.parametrize(
    "make, named",
    [
        pytest.param(lambda: pm.BenchmarkRecord("s", "i", 1, 8, 0, "equilibration", NAN), "ns_per_day",
                     id="record-ns-per-day"),
        pytest.param(lambda: pm.BenchmarkRecord("s", "i", NAN, 8, 0, "equilibration", 1.0), "ranks",
                     id="record-ranks"),
        pytest.param(lambda: pm.ScalingSeries("s", "i", ((1, 5.0), (2, NAN))), "ns_per_day at n=2",
                     id="series-point"),
        pytest.param(lambda: pm.ScalingSeries("s", "i", ((1, 5.0), (NAN, 9.0))), ": n", id="series-count"),
        pytest.param(lambda: pm.PerfPoint("p", 1.0, NAN), "ns_per_day", id="point-ns-per-day"),
        pytest.param(lambda: pm.PerfPoint("p", NAN, 1.0), "price_per_hour", id="point-price"),
    ],
)
def test_records_reject_nan(make, named):
    with pytest.raises(ValidationError, match=re.escape(f"{named} must be a finite number")):
        make()
