"""Start the benchmark's children from a small process of their own.

Usage: python3 spawner.py   (started by run.py; requests on stdin)

Linux carries a process's peak RSS across fork and exec, so a command
started straight from run.py would report as its own ``ru_maxrss`` at least
run.py's peak, and run.py holds numpy, the machine-speed probe's array and,
for raw-tick workloads, the rewritten data. This process imports nothing
heavy, so the peak RSS that ``wait4`` reports for a command it starts is
the command's own.

Each request is one JSON line on stdin: ``{"argv": [...], "log": path,
"timeout": seconds}``. The command runs with stdout and stderr in ``log``,
and the reply is one JSON line on stdout: ``{"rc", "wall_s", "cpu_s",
"maxrss_kb"}``, where wall time runs from ``Popen`` to ``wait4`` and the
rest is the command's rusage. The process exits at the end of stdin. On
SIGTERM it kills the running command, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

running: subprocess.Popen | None = None


def stop(signum, frame):
    if running is not None and running.returncode is None:
        running.kill()
        running.wait()
    sys.exit(128 + signum)


def run(argv: list[str], log_path: str, timeout: float) -> dict:
    global running
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        running = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                   stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, running.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(running.pid, 0)
            running.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return {"rc": running.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}  # KiB on Linux


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
