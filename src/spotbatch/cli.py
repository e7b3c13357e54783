"""Command-line front end.

Subcommands: validate, bench, recommend, cost, simulate, report.
Exit codes: 0 on success, 1 on validation/infeasibility errors, 2 on
usage errors (bad flags, missing files).  Output tables always use ``.``
as the decimal point regardless of locale, and output files are fully
overwritten, never appended.  ``simulate`` writes its event log while the
run goes and puts it in place only when the run succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import catalog as cat
from . import costmodel, perfmodel, workload
from .errors import SpotbatchError
from .jsonfile import load, shaped
from .orchestrator import scenario as scen

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

PAYMENT_CHOICES = {"on_demand": cat.ON_DEMAND, "spot": cat.SPOT, "reserved": cat.RESERVED_UPFRONT}


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _require_files(*paths) -> int:
    for p in paths:
        if p is not None and not Path(p).exists():
            return _fail(f"no such file: {p}", EXIT_USAGE)
    return EXIT_OK


def _render_table(header, rows) -> str:
    cols = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    lines = []
    for r in cols:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def cmd_validate(args) -> int:
    code = _require_files(args.catalog, args.workload)
    if code:
        return code
    problems = []
    try:
        cat.load_catalog(args.catalog)
    except SpotbatchError as exc:
        problems += str(exc).splitlines()
    if args.workload:
        try:
            workload.load_workload(args.workload).expand()
        except SpotbatchError as exc:
            problems += str(exc).splitlines()
    if problems:
        for p in problems:
            print(p)
        return EXIT_VALIDATION
    print("OK")
    return EXIT_OK


def cmd_bench(args) -> int:
    code = _require_files(*(args.bench or []), args.catalog, args.scaling)
    if code:
        return code
    if args.scaling:
        rows = []
        for series in perfmodel.load_scaling(args.scaling):
            if args.system and series.system != args.system:
                continue
            for n, eff in perfmodel.parallel_efficiency(series):
                rows.append(
                    [
                        series.system,
                        series.instance,
                        n,
                        f"{series.performance_at(n):.4f}",
                        f"{eff:.3f}",
                        f"{perfmodel.speedup(series, n):.2f}",
                    ]
                )
        print(_render_table(["system", "instance", "n", "ns_per_day", "efficiency", "speedup"], rows))
        return EXIT_OK
    if not args.bench or not args.catalog:
        return _fail("bench needs --bench and --catalog (or --scaling)", EXIT_USAGE)
    catalog = cat.load_catalog(args.catalog)
    region = catalog.region(args.region).name if args.region else next(iter(catalog.regions))
    rows = []
    for r in perfmodel.load_many_benchmarks(args.bench):
        if args.system and r.system != args.system:
            continue
        if not catalog.has_price(r.instance, region):
            continue
        price = cat.lookup_rate(catalog, r.instance, region, cat.ON_DEMAND)
        rows.append(
            [
                r.system,
                r.instance,
                f"{r.ranks}x{r.threads}",
                r.pme_ranks,
                r.phase,
                f"{r.ns_per_day:.4f}",
                f"{price:.4f}",
                f"{perfmodel.pp_ratio(r.ns_per_day, price):.4f}",
            ]
        )
    print(
        _render_table(
            ["system", "instance", "config", "pme_ranks", "phase", "ns_per_day", "usd_per_h", "ns_per_usd"],
            rows,
        )
    )
    return EXIT_OK


def cmd_recommend(args) -> int:
    code = _require_files(*(args.bench or []), args.catalog)
    if code:
        return code
    catalog = cat.load_catalog(args.catalog)
    records = perfmodel.load_many_benchmarks(args.bench)
    ranked = perfmodel.recommend(
        records,
        catalog,
        args.system,
        max_runtime_h=args.deadline_h,
        objective="min_cost" if args.objective == "cost" else "min_time",
        payment=PAYMENT_CHOICES[args.payment],
        region=args.region,
        equil_ns=args.equil_ns,
        transition_ns=args.transition_ns,
    )
    if not ranked:
        # The table recommend has just read; its instances are the same at any slowdown.
        if not records.rates(args.system, 1.0):
            return _fail(f"system {args.system!r} has no equilibration record", EXIT_VALIDATION)
        print("no feasible instance", file=sys.stderr)
        print(_render_table(["instance", "config", "runtime_h", "cost"], []))
        return EXIT_VALIDATION
    rows = [
        [r.instance, f"{r.ranks}x{r.threads}", f"{r.runtime_h:.3f}", f"{r.cost:.3f}"] for r in ranked
    ]
    print(_render_table(["instance", "config", "runtime_h", "cost"], rows))
    return EXIT_OK


def _emit_cost_entries(entries, json_path=None) -> None:
    rows = []
    for e in entries:
        basis = "; ".join(f"{k}={v:.2f}" for k, v in e.basis.items())
        rows.append([e.label, f"{e.cost:.2f}", e.currency, basis])
    print(_render_table(["label", "cost", "currency", "basis"], rows))
    if json_path:
        doc = {
            "entries": [
                {"label": e.label, "cost": e.cost, "currency": e.currency, "basis": e.basis}
                for e in entries
            ]
        }
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")


def cmd_cost(args) -> int:
    if args.cost_command == "onprem":
        node = costmodel.OnPremNodeSpec(
            hardware_cost=args.hardware_cost,
            lifetime_years=args.lifetime_years,
            energy_cost_per_year=args.energy_per_year,
            rack_u=args.rack_u,
            ns_per_day=args.ns_per_day,
        )
        overheads = costmodel.OverheadSpec(
            rack_per_u_year=args.rack_per_u_year,
            staff_per_node_year=args.staff_per_node_year,
            room_per_node_year=args.room_per_node_year,
            mgmt_per_node_year=args.mgmt_per_node_year,
        )
        entry = costmodel.onprem_cost_entry(
            node, overheads, args.base_per_us, args.utilization, currency=args.currency
        )
    elif args.cost_command == "cloud":
        value = costmodel.cloud_cost_per_microsecond(args.rate, args.ns_per_day)
        entry = costmodel.make_entry(
            "cloud_per_microsecond", {"instance_hours": value}, currency=args.currency
        )
    elif args.cost_command == "fe":
        runs = (args.replicas, args.directions)
        complex_runs = costmodel.cost_per_fe(args.complex_runtime_h, args.complex_rate, 0.0, 0.0, *runs)
        ligand_runs = costmodel.cost_per_fe(0.0, 0.0, args.ligand_runtime_h, args.ligand_rate, *runs)
        entry = costmodel.make_entry(
            "cost_per_fe_difference",
            {"complex_runs": complex_runs, "ligand_runs": ligand_runs},
            currency=args.currency,
        )
    else:
        return _fail("unknown cost subcommand", EXIT_USAGE)
    _emit_cost_entries([entry], args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    code = _require_files(args.scenario)
    if code:
        return code
    scenario = scen.load_scenario(args.scenario)
    engine = scen.build_engine(scenario, seed=args.seed)
    out = Path(args.out)
    with contextlib.ExitStack() as stack:
        if args.event_log:
            out.mkdir(parents=True, exist_ok=True)
            engine.recorder = stack.enter_context(scen.write_event_log(out / "events.log"))
        report = engine.run()
    out.mkdir(parents=True, exist_ok=True)
    scen.write_metrics_csv(engine.samples, out / "metrics.csv")
    scen.write_summary_json(report, out / "summary.json")
    print(f"seed: {report.seed}")
    print(f"makespan_s: {report.makespan_s:g}")
    print(f"total_cost: {report.total_cost:.2f}")
    if report.cost_per_fe is not None:
        print(f"cost_per_fe: {report.cost_per_fe:.2f}")
    if report.n_failed:
        print(f"failed_jobs: {report.n_failed}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_report(args) -> int:
    code = _require_files(args.summary)
    if code:
        return code
    data = load(args.summary, lambda doc: shaped(doc, dict, "summary"))
    rows = [[k, f"{v:g}" if isinstance(v, float) else str(v)] for k, v in sorted(data.items())]
    print(_render_table(["field", "value"], rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spotbatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check catalog (and optional workload) invariants")
    p.add_argument("--catalog", required=True)
    p.add_argument("--workload")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="render performance/price or scaling tables")
    p.add_argument("--bench", action="append", help="benchmark CSV (repeatable)")
    p.add_argument("--catalog")
    p.add_argument("--scaling", help="scaling CSV; renders efficiency/speedup instead")
    p.add_argument("--system")
    p.add_argument("--region")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("recommend", help="rank instance types for a system under constraints")
    p.add_argument("--bench", action="append", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--deadline-h", type=float, default=None)
    p.add_argument("--objective", choices=["cost", "time"], default="cost")
    p.add_argument("--payment", choices=sorted(PAYMENT_CHOICES), default="spot")
    p.add_argument("--region")
    p.add_argument("--equil-ns", type=float, default=6.0)
    p.add_argument("--transition-ns", type=float, default=4.0)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("cost", help="total-cost arithmetic")
    costsub = p.add_subparsers(dest="cost_command", required=True)

    q = costsub.add_parser("onprem", help="owned-node cost per microsecond of trajectory")
    q.add_argument("--ns-per-day", type=float, required=True)
    q.add_argument("--base-per-us", type=float, required=True)
    q.add_argument("--hardware-cost", type=float, default=2000.0)
    q.add_argument("--lifetime-years", type=float, default=3.0)
    q.add_argument("--energy-per-year", type=float, default=300.0)
    q.add_argument("--rack-u", type=int, default=1)
    q.add_argument("--rack-per-u-year", type=float, default=100.0)
    q.add_argument("--staff-per-node-year", type=float, default=200.0)
    q.add_argument("--room-per-node-year", type=float, default=60.0)
    q.add_argument("--mgmt-per-node-year", type=float, default=40.0)
    q.add_argument("--utilization", type=float, default=1.0)
    q.add_argument("--currency", default="EUR")
    q.add_argument("--json", help="also write the entries as a JSON report")
    q.set_defaults(func=cmd_cost)

    q = costsub.add_parser("cloud", help="instance cost per microsecond of trajectory")
    q.add_argument("--rate", type=float, required=True, help="hourly rate, as in the catalog")
    q.add_argument("--ns-per-day", type=float, required=True)
    q.add_argument("--currency", default="USD")
    q.add_argument("--json", help="also write the entries as a JSON report")
    q.set_defaults(func=cmd_cost)

    q = costsub.add_parser("fe", help="cost of one free-energy difference")
    q.add_argument("--complex-runtime-h", type=float, required=True)
    q.add_argument("--complex-rate", type=float, required=True)
    q.add_argument("--ligand-runtime-h", type=float, required=True)
    q.add_argument("--ligand-rate", type=float, required=True)
    q.add_argument("--replicas", type=int, default=3)
    q.add_argument("--directions", type=int, default=2)
    q.add_argument("--currency", default="USD")
    q.add_argument("--json", help="also write the entries as a JSON report")
    q.set_defaults(func=cmd_cost)

    p = sub.add_parser("simulate", help="run a scenario and write metrics/summary")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--event-log", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="render a summary JSON as an aligned table")
    p.add_argument("--summary", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpotbatchError as exc:
        return _fail(str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
