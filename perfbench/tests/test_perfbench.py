"""Tests for the benchmark itself, on the 240-job ``study2_toy`` input.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "events/job", "B"}


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study2_toy", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def timed():
    return bench("--trace", "0")


@pytest.fixture(scope="module")
def traced_twice():
    return bench("--trace", "1"), bench("--trace", "1")


def check_printed(done, group):
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    table = done.stdout.splitlines()[:-1]
    for name, unit in declared.items():
        assert any(line.split()[:2] == [name, unit] for line in table), name


def test_every_end_to_end_metric_is_printed_with_its_unit(timed):
    check_printed(timed, "end_to_end")
    assert "error_rate 0 " in timed.stdout


def test_every_per_layer_metric_is_printed_with_its_unit(traced_twice):
    check_printed(traced_twice[0], "per_layer")


def test_count_metrics_repeat_exactly(traced_twice):
    first, second = (last_json(d)["metrics"] for d in traced_twice)
    counts = {n: m["value"] for n, m in first.items() if m["unit"] in COUNT_UNITS}
    assert counts == {n: second[n]["value"] for n in counts}
    assert counts["orchestrator.engine.events"] > 0
    assert counts["orchestrator.routing.route_calls"] >= 240


def corrupt_metrics_byte(out_dir):
    path = out_dir / "metrics.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def swap_event_lines(out_dir):
    path = out_dir / "events.log"
    lines = path.read_text().splitlines(keepends=True)
    last = len(lines) - 1
    lines[1], lines[last] = lines[last], lines[1]
    path.write_text("".join(lines))


def drop_completed_job(out_dir):
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["n_completed"] -= 1
    path.write_text(json.dumps(summary))


class Tampered:
    """A workload whose pass output is altered after it is written."""

    def __init__(self, wl, tamper):
        self.wl, self.tamper = wl, tamper

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def run_pass(self, seed, out_dir):
        outcome = self.wl.run_pass(seed, out_dir)
        self.tamper(out_dir)
        return outcome


@pytest.mark.parametrize(
    "seed, tamper",
    [(42, corrupt_metrics_byte), (7, swap_event_lines), (7, drop_completed_job)],
    ids=["digest", "event-order", "job-count"],
)
def test_a_tampered_output_raises_the_error_rate(tmp_path, seed, tamper):
    wl = workloads.WORKLOADS["study2_toy"]
    problems = []
    run.one_pass(wl, seed, tmp_path, problems)
    assert run.error_counts(wl, problems) == (1, 0)
    run.one_pass(Tampered(wl, tamper), seed, tmp_path, problems)
    assert run.error_counts(wl, problems) == (2, 1)


def test_a_misordered_recommendation_fails_its_query(tmp_path):
    wl = workloads.WORKLOADS["plan_sweep"]
    seed = 7
    catalog, queries = wl.run_pass(seed, tmp_path)
    assert wl.check(seed, tmp_path, (catalog, queries)) == []
    q = next(q for q in queries if isinstance(q.result, list) and len(q.result) > 1)
    q.result.reverse()
    assert len(wl.check(seed, tmp_path, (catalog, queries))) == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
