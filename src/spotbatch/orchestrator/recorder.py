"""Run recorders: where an engine hands the rows of a run as they happen.

A run produces three kinds of row:

- event rows ``(time_s, seq, kind, job_id, instance_id)``, one per processed
  event, in processing order (empty ids are ``""``);
- instance bills ``(instance_id, duration_s, rate_per_hour, cost)``, one per
  instance, when it terminates;
- preemption waste ``(instance_id, job_id, wasted_s, item_kind,
  item_duration_s)``, one per job resident on a reclaimed instance.

Event rows come in blocks: the engine collects them in a list and hands
the list over with ``record_events`` once it holds
``engine.EVENT_BLOCK_ROWS`` rows, and at the end of every ``advance``,
also one that raises.  The recorder owns the list it is handed; the engine
starts a new one.  So a recorder sees every row in processing order, and
the engine never holds more than one block.  Bills and waste rows, far
fewer, come one by one.

The engine keeps none of these rows itself.  ``MemoryRecorder`` holds them
for tests and library callers; ``scenario.write_event_log`` gives a recorder
that streams the event rows to a file.
"""

from __future__ import annotations

from typing import List, Tuple

EventRow = Tuple[float, int, str, str, str]
BillRow = Tuple[str, float, float, float]
WasteRow = Tuple[str, str, float, str, float]


class RunRecorder:
    """Takes the rows of one run; this base class drops them all."""

    def record_events(self, rows: List[EventRow]) -> None:
        pass

    def record_bill(self, row: BillRow) -> None:
        pass

    def record_waste(self, row: WasteRow) -> None:
        pass


class MemoryRecorder(RunRecorder):
    """Holds every row in lists, in the order the engine hands them over."""

    def __init__(self):
        self.events: List[EventRow] = []
        self.bills: List[BillRow] = []
        self.waste: List[WasteRow] = []

    def record_events(self, rows: List[EventRow]) -> None:
        self.events += rows

    def record_bill(self, row: BillRow) -> None:
        self.bills.append(row)

    def record_waste(self, row: WasteRow) -> None:
        self.waste.append(row)
