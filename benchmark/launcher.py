"""Runs the benchmark's child processes from a process of small resident size.

    python benchmark/launcher.py SRC_DIR

Linux carries a process's peak resident size across fork and exec, so the
ru_maxrss of a child is at least the peak of the process that spawned it.
The benchmark's main process holds numpy arrays for its checks; children it
spawned itself would report that memory as their own.  This launcher imports
only the standard library, so the floor it passes on stays far below the
peak of any program process.

Protocol: one JSON request per line on standard input, ``{"cmd": [...],
"until_line": bool}``; one JSON reply per line on standard output with the
child's exit code, stdout, stderr, wall and CPU seconds, and peak resident
size.  Children run in the launcher's working directory with SRC_DIR as
their PYTHONPATH.  The launcher exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def run_child(cmd, env, log, until_line):
    """Run one child to its end; with ``until_line`` time it to its first output line."""
    log.seek(0)
    log.truncate()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=log)
    try:
        out = proc.stdout.readline() if until_line else b""
        wall = time.perf_counter() - start
        out += proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if not until_line:
        wall = time.perf_counter() - start
    log.seek(0)
    return {
        "code": proc.returncode,
        "stdout": out.decode(errors="replace"),
        "stderr": log.read().decode(errors="replace"),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024.0,
    }


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = sys.argv[1]
    with open("stderr.log", "w+b") as log:
        for line in sys.stdin:
            request = json.loads(line)
            reply = run_child(request["cmd"], env, log, request["until_line"])
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
