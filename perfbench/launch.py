"""Runs one command and prints its exit code, wall time and rusage as JSON.

    python3 perfbench/launch.py <timeout_s> <stdout> <stderr> <program> [args...]

perfbench/run.py starts every timed process through this small launcher.
Linux carries a process's peak-RSS mark across exec, so a child spawned
straight from the benchmark (which holds parsed Run JSON) would report the
benchmark's own peak as its `ru_maxrss`; spawned from this launcher it
reports its own. The child is killed after `timeout_s` seconds.
"""

import json
import os
import signal
import sys
import threading
import time


def main():
    timeout, out, err, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
