#!/usr/bin/env python3
"""Print the Weil character of Sp_2(F_p) on all semisimple classes, formula
next to oracle.

Usage: python scripts/character_table.py [p]
"""

import collections
import sys

from weilchar import gerardin, symplectic as sym, weil


def main(p: int) -> None:
    space = sym.standard_polarized_space(p, 1)
    model = weil.WeilModel(space)
    buckets = collections.defaultdict(list)
    for g in sym.sp_elements(space):
        if g.is_semisimple():
            buckets[sym.eigen_multiset_key(sym.eigen_multiset(g))].append(g)
    print("Sp_2(F_%d): %d semisimple classes" % (p, len(buckets)))
    print("%-28s %6s %22s %22s" % ("eigenvalues (index key)", "size", "recursive formula", "oracle trace"))
    keys = sorted(buckets)
    oracles = model.trace_stack([buckets[key][0] for key in keys]).tolist()
    for key, oracle in zip(keys, oracles):
        members = buckets[key]
        formula = gerardin.weil_char(members[0])
        print(
            "%-28s %6d %11.4f%+9.4fj %11.4f%+9.4fj"
            % (key, len(members), formula.real, formula.imag, oracle.real, oracle.imag)
        )
        assert abs(formula - oracle) < 1e-8


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
