"""Run one command as the child of a small process and report its usage.

Usage: python3 -E -S bench/launch.py REPORT_FILE -- COMMAND [ARG ...]

A process's peak RSS (``ru_maxrss``) includes the resident memory of the
process it was forked from, so the benchmark does not fork its workload
children itself: it starts this interpreter, which imports nothing beyond
``os``, ``sys`` and ``time``, and this one forks the command.  The report is
one JSON object: wall seconds from fork to reaped exit, user + system CPU
seconds, peak RSS in KiB and the exit code.
"""

import os
import sys
import time


def main():
    report, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--" or not argv:
        sys.exit("usage: launch.py REPORT_FILE -- COMMAND [ARG ...]")
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        fh.write('{"wall": %r, "cpu": %r, "maxrss_kb": %d, "rc": %d}\n' % (
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            os.waitstatus_to_exitcode(status)))


if __name__ == "__main__":
    main()
