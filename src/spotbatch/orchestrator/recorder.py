"""Run recorders: where an engine hands the rows of a run as they happen.

A run produces three kinds of row:

- event rows ``(time_s, seq, kind, job_id, instance_id)``, one per processed
  event, in processing order (empty ids are ``""``);
- instance bills ``(instance_id, duration_s, rate_per_hour, cost)``, one per
  instance, when it terminates;
- preemption waste ``(instance_id, job_id, wasted_s, item_kind,
  item_duration_s)``, one per job resident on a reclaimed instance.

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

    def record_event(self, row: EventRow) -> None:
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

    def record_event(self, row: EventRow) -> None:
        self.events.append(row)

    def record_bill(self, row: BillRow) -> None:
        self.bills.append(row)

    def record_waste(self, row: WasteRow) -> None:
        self.waste.append(row)
