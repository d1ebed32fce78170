#!/usr/bin/env python3
"""Time every check of the selfcheck registry in fresh processes.

Each run is a new Python process that imports weilchar and calls every
check of checks.CHECKS once, in registry order (as `weilchar selfcheck`
does, so a check finds the caches its predecessors filled), timing each
call with time.perf_counter.  The script prints one JSON object: per check,
the median and the quartiles of its seconds over the runs, and the same
for the whole registry.

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


def main(runs: int) -> None:
    samples = [json.loads(subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                                         check=True).stdout) for _ in range(runs)]
    times = {name: [s[name] for s in samples] for name in samples[0]}
    times["registry"] = [sum(s.values()) for s in samples]
    summary = {}
    for name, vals in times.items():
        q1, median, q3 = np.percentile(vals, [25, 50, 75])
        summary[name] = {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}
    print(json.dumps({"runs": runs, "checks": summary}, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
