#!/usr/bin/env python3
"""Time every check of the selfcheck registry in fresh processes.

Each run is a new Python process that imports weilchar and calls every
check of checks.CHECKS once, in registry order (as `weilchar selfcheck`
does, so a check finds the caches its predecessors filled), timing each
call with time.perf_counter.  The script prints one JSON object: per check,
the median and the quartiles of its seconds over the runs, and the same
for the whole registry.  When a child fails (say, weilchar is not
importable: install the package or put src on PYTHONPATH), the script
prints the child's standard error and exits nonzero.

Usage: python scripts/registry_times.py [runs]   (default 7)
"""

import json
import subprocess
import sys

import numpy as np

CHILD = """
import json, time
from weilchar import checks
out = {}
for name, fn in checks.CHECKS:
    start = time.perf_counter()
    fn()
    out[name] = time.perf_counter() - start
print(json.dumps(out))
"""


def run_child() -> dict:
    """One fresh process's seconds per check; on a failed child, its
    standard error and exit status 1."""
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit("registry_times.py: the child process exited with status %d" % proc.returncode)
    return json.loads(proc.stdout)


def main(runs: int) -> None:
    samples = [run_child() for _ in range(runs)]
    times = {name: [s[name] for s in samples] for name in samples[0]}
    times["registry"] = [sum(s.values()) for s in samples]
    summary = {}
    for name, vals in times.items():
        q1, median, q3 = np.percentile(vals, [25, 50, 75])
        summary[name] = {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}
    print(json.dumps({"runs": runs, "checks": summary}, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
