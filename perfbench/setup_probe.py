"""Set-up probe: import spotbatch, build a workload's engine (or load its tables), print the clock.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  It prints
``time.monotonic()`` at the moment set-up ends; the parent, which read the
same system-wide clock just before starting this process, subtracts to get
set-up time from process start, interpreter start-up and imports included.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports spotbatch)

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].setup(seed)
    print(repr(time.monotonic()))
