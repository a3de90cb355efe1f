"""One command run in a new process to its end, and what it cost.

The report-only steps of the tests workflow print what `measure` returns to
the step summary, for example:

    python -c 'import sys; sys.path.insert(0, ".github"); from measure import measure
    print("detect on a synthetic day:", measure(["triarb", "detect", ...]))'
"""

import os
import subprocess
import sys
import time
from typing import NamedTuple


class Run(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_mb: float
    minor_faults: int

    def __str__(self):
        return (f"wall time {self.wall_s:.2f} s, CPU {self.cpu_s:.2f} s, "
                f"peak RSS {self.peak_mb:.1f} MB, minor page faults {self.minor_faults}")


def measure(argv, **popen) -> Run:
    """Run `argv` (with `subprocess.Popen`'s keyword arguments `popen`) to its
    end: its wall time from the spawn, and its CPU time, peak RSS and minor
    page faults from `os.wait4`. A command that fails ends the report with its
    wait status."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, **popen)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if status:
        sys.exit(f"{' '.join(argv)} failed with wait status {status}")
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, usage.ru_minflt)
