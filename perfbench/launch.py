"""Command launcher for the cli workload.

Reads one JSON argv list per line on stdin, runs ``python -m projgeo``
with it, and answers with one JSON line: exit code, stdout and wall
seconds from spawn to exit.  A command still running after TIMEOUT
seconds is killed and reported with exit code -9.  After stdin closes
it prints the peak resident memory of the largest child.

It imports nothing beyond the standard library and is started before
the worker loads numpy: a child's peak RSS starts from its parent's RSS
at spawn, so a small parent keeps the children's figure their own.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter

TIMEOUT = 60


def main():
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "projgeo", *argv],
                stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=TIMEOUT,
            )
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = -9, ""
        reply = {"code": code, "stdout": stdout, "seconds": perf_counter() - t0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps({"peak_kib": peak_kib}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
