"""Starts the benchmark's child processes on request and reports their rusage.

Linux gives a child's ru_maxrss at least the peak resident set of the
process that spawned it, so children spawned straight from run.py, which
holds numpy and the speed sensor's data, would report run.py's memory when
they use less. run.py therefore starts this small, stdlib-only process once
and has it spawn every child.

Protocol: one JSON request per line on stdin, {"argv", "stdout", "stderr",
"core"}; one JSON reply per line on stdout, {"wall", "code", "rss_kib",
"cpu"}. The child runs pinned to `core` (null: unpinned) with this process's
environment and no stdin. A child that outlives the timeout given as the
only argument is killed. The process exits at the end of stdin.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def run(request: dict, timeout_s: float) -> dict:
    if request["core"] is not None:
        os.sched_setaffinity(0, {request["core"]})
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o644),
    ]
    reaped = threading.Event()
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)

    def kill() -> None:
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout_s, kill)
    watchdog.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    reaped.set()
    watchdog.cancel()
    watchdog.join()
    return {
        "wall": wall,
        "code": os.waitstatus_to_exitcode(status),
        "rss_kib": usage.ru_maxrss,
        "cpu": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), timeout_s)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
