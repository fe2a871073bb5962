"""Starts one process per request and reports how it ran.

On Linux the peak RSS that ``wait4`` reports for a child also counts the
memory of the process that spawned it, up to the moment of ``exec``.  The
benchmark process holds numpy, picgof and exact-law tables, so it spawns its
CLI processes through this launcher, which imports almost nothing and stays
smaller than any child it starts.

Run with ``python3 -S launcher.py`` in the directory the children should run
in.  Each stdin line is a JSON request ``{"args", "stdout", "stderr",
"timeout"}``; each reply line is ``{"wall", "cpu", "rss_kb", "rc"}``.  A
child still running after ``timeout`` seconds is killed.  The launcher exits
when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main():
    running = []

    def kill_child(signum, frame):
        if running:
            os.kill(running[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_child)
    truncate = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], truncate, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], truncate, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["args"][0], request["args"], os.environ, file_actions=actions)
        running[:] = [pid]
        signal.alarm(max(1, int(request["timeout"])))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        running.clear()
        signal.alarm(0)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "rc": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
