"""Deterministic discrete-event simulation of a global batch run."""

from .engine import (  # noqa: F401
    BillingLedger,
    Engine,
    EngineConfig,
    InstanceState,
    SummaryReport,
)
from .preemption import PreemptionModel  # noqa: F401
from .recorder import MemoryRecorder, RunRecorder  # noqa: F401
from .routing import Router, RoutingPolicy  # noqa: F401
from .scenario import Scenario, load_scenario  # noqa: F401
