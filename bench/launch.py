"""Run one command and print its wall time and its own rusage as JSON.

    python3 -S bench/launch.py TIMEOUT_S STDOUT_PATH|- CMD [ARG ...]

A child's ru_maxrss starts from the RSS of the process that forked it, so
the benchmark, which holds the oracle and parsed outputs, forks ops through
this small process to keep their peak RSS their own.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout, stdout_path, cmd = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    actions = []
    if stdout_path != "-":
        actions.append((os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    start = time.perf_counter()
    # perf_counter is CLOCK_MONOTONIC, shared by all processes: a traced
    # child turns this into a span for its own interpreter start.
    env = dict(os.environ, PSIBENCH_SPAWN_T=repr(start))
    pid = os.posix_spawnp(cmd[0], cmd, env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(json.dumps({
        "wall_s": wall,
        "returncode": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
