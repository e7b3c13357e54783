"""Spans around the calls into each spotbatch module, recorded from outside it.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS``
(module attributes, or methods on their classes) with wrappers that record
one span per call, and restores the originals on exit.  Because the
wrappers replace the attributes themselves, calls made from inside
spotbatch (``recommend`` calling ``best_config``, the engine calling
``Router.route``) are caught too.

A span is ``(name, start, end, parent)``; the layer of a span is the first
dotted part of its name.  Spans stay in memory until ``write`` is called.
Calls that raise are counted per span name in ``raised``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict

from spotbatch import catalog, costmodel, perfmodel, workload
from spotbatch.orchestrator import engine, preemption, routing, scenario

# Layers reporting `<layer>.self_s`; costmodel reports its self time as `costmodel.s`.
LAYERS = ("catalog", "workload", "perfmodel", "orchestrator")

# (owner, attribute, span name)
TARGETS = [
    (catalog, "load_catalog", "catalog.load"),
    (catalog, "lookup_rate", "catalog.lookup_rate"),
    (scenario, "load_workload", "workload.load"),
    (workload.Workload, "expand", "workload.expand"),
    (perfmodel, "load_many_benchmarks", "perfmodel.load"),
    (perfmodel, "recommend", "perfmodel.recommend"),
    (perfmodel, "best_config", "perfmodel.best_config"),
    (perfmodel, "pareto_frontier", "perfmodel.pareto"),
    (scenario, "load_scenario", "orchestrator.scenario.load"),
    (engine.Engine, "__init__", "orchestrator.engine.init"),
    (engine.Engine, "run", "orchestrator.engine.run"),
    (routing.Router, "route", "orchestrator.routing.route"),
    (preemption.PreemptionModel, "draw_seconds_until_preemption", "orchestrator.preemption.draw"),
    (scenario, "write_metrics_csv", "orchestrator.scenario.write_metrics"),
    (scenario, "write_summary_json", "orchestrator.scenario.write_summary"),
    (scenario, "write_event_log", "orchestrator.scenario.write_events"),
] + [
    (costmodel, name, f"costmodel.{name}")
    for name, fn in inspect.getmembers(costmodel, inspect.isfunction)
    if fn.__module__ == costmodel.__name__ and not name.startswith("_")
]

START, END = 1, 2  # fields of a span record: [name, start, end, parent index]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.raised = Counter()
        self._open = []

    def traced(self, name: str, fn):
        """``fn`` wrapped to record one span per call, under the innermost open span."""
        spans, open_spans, raised, clock = self.spans, self._open, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                record[END] = clock()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self.traced(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def totals(self):
        """Per span name: (calls, summed duration); per layer: self time.

        A span's self time is its duration minus that of its direct
        children; a layer's self time sums the self time of its spans.
        """
        calls = Counter()
        inclusive = defaultdict(float)
        self_by_span = []
        for name, start, end, parent in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            self_by_span.append(end - start)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_by_span[parent] -= end - start
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_by_span):
            layer_self[name.split(".", 1)[0]] += own
            name_self[name] += own
        return calls, inclusive, name_self, layer_self

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps({"run": self.run_id, "id": i, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
