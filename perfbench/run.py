"""spotbatch benchmark: time a workload end to end, check its outputs, or trace it per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

``--trace 0`` times whole passes with nothing patched and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` makes untraced passes
for half the run length, then one traced pass, and reports the per-layer
metrics of BENCHMARK.json plus the tracing overhead.  Every pass's outputs
are checked (see workloads.py).  A table for people comes first; the last
line of standard output is one JSON object for machines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - started


def run_passes(wl, seed: int, out_dir: Path, seconds: float, walls: list, problems: list, before=None) -> None:
    """Run untraced passes until the next one would end after ``seconds``; at least one.

    ``before(elapsed)`` is called ahead of each pass.
    """
    start = time.perf_counter()
    while True:
        if before is not None:
            before(time.perf_counter() - start)
        walls.append(one_pass(wl, seed, out_dir, problems))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def one_pass(wl, seed: int, out_dir: Path, problems: list, tracer=None) -> float:
    """Time one pass, then check its outputs; problems get one entry per failed operation."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = wl.run_pass(seed, out_dir)
        else:
            with tracer.installed():
                outcome = tracer.traced("bench.pass", wl.run_pass)(seed, out_dir)
    except Exception as exc:  # a pass that raises is a failed operation, not a crash
        wall = time.perf_counter() - t0
        problems.append([f"pass raised {exc!r}"] * wl.ops_per_pass())
        return wall
    wall = time.perf_counter() - t0
    problems.append(wl.check(seed, out_dir, outcome))
    return wall


def error_counts(wl, problems) -> tuple:
    """(operations attempted, operations failed) over the passes made."""
    return wl.ops_per_pass() * len(problems), sum(len(p) for p in problems)


def tail(values, better: str):
    """Highest percentile with at least ten samples beyond it, on the worse side: (label, value)."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    if better == "lower":
        return f"p{100 * (n - 10) / n:.0f}", ordered[n - 11]
    return f"p{100 * 10 / n:.0f}", ordered[10]


def end_to_end(wl, seed, out_dir, seconds):
    setups, walls, problems = [], [], []

    def probe_until(due: int) -> None:
        while len(setups) < min(due, SETUP_PROBES):
            setups.append(measure_setup(wl.name, seed))

    # The host's speed drifts over seconds, so set-up probes are spread over
    # the run instead of all made at its start.
    run_passes(wl, seed, out_dir, seconds, walls, problems,
               before=lambda elapsed: probe_until(1 + int(elapsed / seconds * SETUP_PROBES)))
    probe_until(SETUP_PROBES)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "ops_per_s": [wl.work_per_pass() / w for w in walls],
        "peak_rss_mb": [rss_mib],
    }
    return samples, problems


def per_layer(wl, seed, out_dir, seconds):
    import workloads
    from tracing import LAYERS, Tracer

    walls, problems = [], []
    run_passes(wl, seed, out_dir, seconds / 2, walls, problems)
    tracer = Tracer(f"{wl.name}-{seed}-{os.getpid()}")
    traced_wall = one_pass(wl, seed, out_dir, problems, tracer)
    tracer.write(out_dir / "spans.jsonl")
    calls, inclusive, name_self, layer_self = tracer.totals()
    # A failed traced pass may have left no outputs to count.
    counts = wl.engine_counts(out_dir) if not problems[-1] else workloads.no_engine_counts()
    run_s = inclusive["orchestrator.engine.run"]
    values = {
        "catalog.load_s": inclusive["catalog.load"],
        "catalog.lookup_rate_calls": calls["catalog.lookup_rate"],
        "workload.load_s": inclusive["workload.load"],
        "workload.expand_s": inclusive["workload.expand"],
        "perfmodel.load_s": inclusive["perfmodel.load"],
        "perfmodel.recommend_calls": calls["perfmodel.recommend"],
        "perfmodel.recommend_s": inclusive["perfmodel.recommend"],
        "perfmodel.recommend_raised": tracer.raised["perfmodel.recommend"],
        "perfmodel.best_config_calls": calls["perfmodel.best_config"],
        "perfmodel.best_config_s": inclusive["perfmodel.best_config"],
        "perfmodel.pareto_s": inclusive["perfmodel.pareto"],
        "costmodel.calls": sum(n for name, n in calls.items() if name.startswith("costmodel.")),
        "costmodel.s": layer_self["costmodel"],
        "orchestrator.scenario.load_s": inclusive["orchestrator.scenario.load"],
        "orchestrator.engine.init_s": inclusive["orchestrator.engine.init"],
        "orchestrator.engine.run_s": run_s,
        "orchestrator.engine.self_s": name_self["orchestrator.engine.run"],
        "orchestrator.engine.events_per_s": counts["events"] / run_s if run_s else 0.0,
        "orchestrator.engine.events": counts["events"],
        "orchestrator.engine.events_per_job": counts["events"] / counts["jobs"] if counts["jobs"] else 0.0,
        "orchestrator.engine.submissions": counts["submissions"],
        "orchestrator.engine.instances": counts["instances"],
        "orchestrator.engine.preemptions": counts["preemptions"],
        "orchestrator.engine.samples": counts["samples"],
        "orchestrator.routing.route_calls": calls["orchestrator.routing.route"],
        "orchestrator.routing.route_s": inclusive["orchestrator.routing.route"],
        "orchestrator.preemption.draw_calls": calls["orchestrator.preemption.draw"],
        "orchestrator.preemption.draw_s": inclusive["orchestrator.preemption.draw"],
        "orchestrator.scenario.write_metrics_s": inclusive["orchestrator.scenario.write_metrics"],
        "orchestrator.scenario.write_summary_s": inclusive["orchestrator.scenario.write_summary"],
        "orchestrator.scenario.write_events_s": inclusive["orchestrator.scenario.write_events"],
        "orchestrator.scenario.bytes_written": counts["bytes_written"],
        "trace.overhead_s": traced_wall - statistics.median(walls),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    notes = [
        f"untraced passes: {len(walls)}, median wall_s {statistics.median(walls):.6g}",
        f"traced pass wall_s {traced_wall:.6g}, spans {len(tracer.spans)} -> {out_dir / 'spans.jsonl'}",
    ]
    return values, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's reference seed")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spotbatch").is_dir():
        print(f"error: spotbatch sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(spec, args)

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"workload {wl.name}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, problems, notes = per_layer(wl, seed, out_dir, args.seconds)
        rows = [[m["name"], m["unit"], f"{values[m['name']]:.6g}"] for m in declared]
        print_table(["metric", "unit", "value"], rows)
    else:
        samples, problems = end_to_end(wl, seed, out_dir, args.seconds)
        notes = [
            f"ops_per_s counts {wl.work_unit}: {wl.work_per_pass()} per pass",
            "wall_s per pass: " + " ".join(f"{w:.4g}" for w in samples["wall_s"]),
        ]
        values = {name: statistics.median(v) for name, v in samples.items()}
        rows = []
        for m in declared:
            v = samples[m["name"]]
            t = tail(v, m["better"])
            rows.append([m["name"], m["unit"], f"{values[m['name']]:.6g}",
                         f"{t[0]}={t[1]:.6g}" if t else "-", str(len(v))])
        print_table(["metric", "unit", "median", "tail", "n"], rows)
    attempted, failed = error_counts(wl, problems)
    notes.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} {wl.op_unit} failed)")
    for note in notes:
        print(note)
    for line in sorted({line for p in problems for line in p})[:20]:
        print(f"FAILED: {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(spec, args) -> int:
    """Each benchmark workload in its own fresh process, one after another."""
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(done.stdout, end="")
        last = done.stdout.strip().splitlines()[-1:] or ["{}"]
        if done.returncode or not json.loads(last[0]).get("correct"):
            code = 1
    return code


def print_table(header, rows) -> None:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    sys.exit(main())
