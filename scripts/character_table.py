#!/usr/bin/env python3
"""Print the Weil character of Sp_2(F_p) on all semisimple classes, formula
next to oracle: the classes are symplectic.classes labels, and each class
reads one eigen multiset and one formula, on its representative.  A class
whose formula misses its oracle trace ends the run with exit status 1.

Usage: python scripts/character_table.py [p]
"""

import sys

import numpy as np

from weilchar import gerardin, symplectic as sym, weil


def main(p: int) -> None:
    space = sym.standard_polarized_space(p, 1)
    model = weil.WeilModel(space)
    grp = sym.sp_group(space)
    reps, sizes = np.unique(sym.classes(grp)[grp.orders % p != 0], return_counts=True)
    # one eigen multiset per class, read on its representative; no two
    # classes share one, so the rows sort by it
    rows = sorted((sym.eigen_multiset_key(sym.eigen_multiset(grp.elem(r))), r, size)
                  for r, size in zip(reps.tolist(), sizes.tolist()))
    print("Sp_2(F_%d): %d semisimple classes" % (p, len(rows)))
    print("%-28s %6s %22s %22s" % ("eigenvalues (index key)", "size", "recursive formula", "oracle trace"))
    oracles = model.trace_stack(grp.mats[[r for _, r, _ in rows]]).tolist()
    for (key, r, size), oracle in zip(rows, oracles):
        formula = gerardin.weil_char(grp.elem(r))
        print(
            "%-28s %6d %11.4f%+9.4fj %11.4f%+9.4fj"
            % (key, size, formula.real, formula.imag, oracle.real, oracle.imag)
        )
        if not abs(formula - oracle) < 1e-8:
            sys.exit("class %s: the formula %r is not the oracle trace %r" % (key, formula, oracle))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
