#!/usr/bin/env python3
"""Sweep the sign-formula scenario matrix and print one summary row per
family: scenario count, worst formula-vs-oracle error, observed signs.

Usage: python scripts/sign_survey.py [max_degree] [eta_cap]

max_degree (default 2) bounds the degree of k_alpha over F_p; eta_cap
(default 12) caps the etas per family, drawn by a fixed-seed subsample when
the admissible group is larger.  Both primes 3 and 5 are swept.
"""

import sys
import time

from weilchar import checks


def main(max_degree: int, eta_cap: int) -> None:
    t0 = time.time()
    stats = checks.sign_sweep((3, 5), max_degree, eta_cap)
    print("%-30s %5s %10s %s" % ("family", "n", "worst err", "signs seen"))
    for label, st in sorted(stats.items()):
        print("%-30s %5d %10.2e %s" % (label, st.count, st.worst, sorted(st.signs)))
    print("%d scenarios in %.1fs" % (sum(st.count for st in stats.values()), time.time() - t0))


if __name__ == "__main__":
    md = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    cap = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    main(md, cap)
