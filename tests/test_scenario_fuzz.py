"""Fuzzed input documents load and build cleanly or fail with an input error.

One value anywhere in a scenario document, or in the catalog or workload
document it names, is replaced with an arbitrary JSON value.  Loading and
building an engine must then either succeed or raise one of the package's
input errors, which ``spotbatch simulate`` reports as exit code 1 with an
``error:`` line; any other exception would escape as a traceback.  The
runs themselves are not started: under a very high preemption hazard, a
valid value, no job ever finishes.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spotbatch
from spotbatch.errors import MissingRecordError, ParseError, ValidationError
from spotbatch.orchestrator.scenario import build_engine, load_scenario
from spotbatch.workload import load_workload


def _base_document() -> dict:
    """study2_toy with absolute paths and every optional knob set, so each shape can be fuzzed."""
    scenarios = spotbatch.data_path("scenarios")
    doc = json.loads((scenarios / "study2_toy.json").read_text())
    doc["catalog"] = str(scenarios / doc["catalog"])
    doc["workload"] = str(scenarios / doc["workload"])
    doc["benchmarks"] = [str(scenarios / p) for p in doc["benchmarks"]]
    doc.update(
        preemption_hazards={"*/*": 0.1, "us-east-1/g4dn": 0.2},
        transition_slowdown=1.5,
        acquisition_latency_s=30,
        acquisitions_per_region_minute=2,
        waves=[{"time_s": 0, "kinds": ["complex"]}, {"time_s": 600, "kinds": ["ligand"]}],
        pool_overrides={"us-east-1": {"g4dn": 4, "*": 8}},
        scripted_preemptions=[{"instance_id": "i0001", "time_s": 900}],
    )
    return doc


BASE = _base_document()


def _key_paths(value, prefix=()):
    """The path of every value nested in ``value``, as tuples of keys and list indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


KEY_PATHS = list(_key_paths(BASE))

# The catalog and workload documents of BASE, by the scenario key that names them.
NAMED = {role: json.loads(Path(BASE[role]).read_text()) for role in ("catalog", "workload")}
NAMED_KEY_PATHS = {role: list(_key_paths(doc)) for role, doc in NAMED.items()}

# A workload is expanded, and an engine built for it, only up to this many jobs, to keep the test fast.
MAX_FUZZED_JOBS = 10_000

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda items: st.lists(items, max_size=3) | st.dictionaries(st.text(max_size=8), items, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_base_document_builds(scenario_file):
    scenario_file.write_text(json.dumps(BASE))
    build_engine(load_scenario(scenario_file))


@settings(max_examples=250, deadline=None)
@given(path=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
def test_fuzzed_scenario_builds_or_raises_an_input_error(scenario_file, path, value):
    scenario_file.write_text(json.dumps(_replaced(BASE, path, value)))
    try:
        build_engine(load_scenario(scenario_file))
    except (ParseError, ValidationError, MissingRecordError):
        # MissingRecordError: an instance type the catalog does not list.
        pass


@pytest.mark.parametrize("role", sorted(NAMED))
@settings(max_examples=100, deadline=None)
@given(pick=st.integers(min_value=0), value=JSON_VALUES)
# A transition count this large once built a work table until memory ran out.
@example(pick=NAMED_KEY_PATHS["workload"].index(("n_transitions",)), value=2.584234497615869e16)
def test_fuzzed_catalog_or_workload_builds_or_raises_an_input_error(scenario_file, role, pick, value):
    """``pick`` chooses the replaced value's path among the role's key paths, modulo their count."""
    paths = NAMED_KEY_PATHS[role]
    path = paths[pick % len(paths)]
    named_file = scenario_file.with_name(f"{role}.json")
    named_file.write_text(json.dumps(_replaced(NAMED[role], path, value)))
    scenario_file.write_text(json.dumps(dict(BASE, **{role: str(named_file)})))
    try:
        if role == "workload":
            if load_workload(named_file).spec.n_jobs > MAX_FUZZED_JOBS:
                return
        build_engine(load_scenario(scenario_file))
    except (ParseError, ValidationError, MissingRecordError):
        pass
