"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import collections
import itertools
import time

import numpy as np
import pytest

from weilchar import checks, cli, ffield, gerardin, lattice, modp, symplectic as sym

import polyref


def report(num, label, ok, detail=""):
    line = "[%s] acceptance %02d: %s" % ("PASS" if ok else "FAIL", num, label)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_gerardin_semisimple():
    t0 = time.time()
    rows = checks.check_gerardin_semisimple()
    elapsed = time.time() - t0
    worst = max(r.abs_error for r in rows)
    ok = all(r.passed for r in rows) and worst <= 1e-8 and elapsed <= 60
    report(1, "Gerardin semisimple formula = oracle on all tori", ok,
           "%d tori, worst %.1e, %.1fs" % (len(rows), worst, elapsed))


def test_criterion_02_polarization_corollary():
    rows = checks.check_polarized_formula()
    ok = all(r.passed for r in rows)
    report(2, "polarization corollary exact after integer snap", ok,
           "; ".join(r.quantity for r in rows))


def test_criterion_03_cyclic_tensor_trace():
    rows = checks.check_cyclic_tensor_trace(seed=2024, trials=500)
    ok = all(r.passed for r in rows) and all(r.abs_error <= 1e-9 for r in rows)
    report(3, "cyclic tensor trace: 500 seeded chains agree to 1e-9", ok,
           "worst %.1e" % max(r.abs_error for r in rows))


def test_criterion_04_twisted_decomposition():
    rows = checks.check_twisted_trace_decomposition(seed=7)
    ok = all(r.passed for r in rows) and all(r.abs_error <= 1e-8 for r in rows)
    report(4, "twisted decomposition: product = direct trace on both fixtures", ok,
           "worst %.1e" % max(r.abs_error for r in rows))


def test_criterion_05_sign_formulas():
    # cap 80 enumerates every multiplicative / norm-one group fully at
    # p = 3 (and p = 5 up to degree 2); p = 5 degrees 3-4 use the fixed
    # deterministic subsample (ledgered); two structure constants C per family
    stats = {}
    for p, cap in ((3, 80), (5, 16)):
        stats.update(checks.sign_sweep((p,), max_degree=4, eta_cap=cap, c_variants=2))
    branches = {l.split(" ")[0] for l in stats}
    worst = max(st.worst for st in stats.values())
    ok = (
        branches == {"asym/asym", "asym/sym-ur", "asym/sym-ram", "sym-ur/sym-ur", "sym-ur/sym-ram"}
        and worst <= 1e-8
        and all(len(st.signs) == 1 for label, st in stats.items() if "sym-ram" in label)
    )
    report(5, "sign formulas = oracle on every branch; ramified eta-independence exact", ok,
           "%d scenarios over %d families, worst %.1e" % (sum(st.count for st in stats.values()), len(stats), worst))


def test_criterion_06_intertwiner_normalization():
    rows = checks.check_intertwiner_normalization()
    ok = all(r.passed for r in rows) and all(r.abs_error <= 1e-9 for r in rows)
    report(6, "lifted Schur intertwiner = word-model Weil operator on every loop", ok,
           "%d loops, worst %.1e" % (len(rows), max(r.abs_error for r in rows)))


def test_criterion_07_finite_field_lemmas():
    rows = checks.check_finite_field_lemma_1() + checks.check_finite_field_lemma_2()
    ok = all(r.passed for r in rows)
    # eigen-s-th-root: char poly of D phi^r equals prod (X^s - products),
    # exactly over Z and over F_p, for n <= 8
    rng = np.random.default_rng(99)
    for n in range(2, 9):
        for r in [d for d in range(1, n) if n % d == 0]:
            s = n // r
            a = [int(x) for x in rng.integers(-4, 5, size=n)]
            phi = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                phi[(i + 1) % n, i] = 1
            m = np.diag(a) @ np.linalg.matrix_power(phi, r)
            want = [1]
            for i in range(r):
                prod = 1
                for j in range(s):
                    prod *= a[(i + j * r) % n]
                factor = [-prod] + [0] * (s - 1) + [1]
                new = [0] * (len(want) + s)
                for ii, x in enumerate(want):
                    for jj, y in enumerate(factor):
                        new[ii + jj] += x * y
                want = new
            ok = ok and polyref.charpoly_int(m.astype(object)) == want
            for p in (3, 5, 7):
                ok = ok and modp.charpoly(m, p) == [c % p for c in want]
    report(7, "finite-field lemmas exhaustive; permuted-diagonal eigenvalue lemma exact", ok,
           "%d lemma rows" % len(rows))


def test_criterion_08_lattice_layer():
    rows = checks.check_pi0_property(seed=31337, trials=200)
    rows += checks.check_restricted_roots_catalogue()
    rows += checks.check_descended_roots()
    cat = lattice.catalogue()
    tags2 = sorted(r.type_tag for r in lattice.restrict_roots(cat["A2.flip"]).restricted)
    tags3 = sorted(r.type_tag for r in lattice.restrict_roots(cat["A3.flip"]).restricted)
    ok = all(r.passed for r in rows) and tags2 == [2, 2, 3, 3] and tags3 == [1] * 8
    report(8, "pi0 property on 200 seeded matrices; A2/A3 involution types; descended roots", ok)


def test_criterion_09_eigenvalue_conjugacy():
    ok = True
    detail = []
    for p in (3, 5, 7):
        space = sym.standard_polarized_space(p, 1)
        els = [g for g in sym.sp_elements(space) if g.is_semisimple()]
        buckets = collections.defaultdict(list)
        for g in els:
            buckets[sym.eigen_multiset_key(sym.eigen_multiset(g))].append(g)
        # within each eigenvalue class every element is conjugate to the rep
        for key, members in buckets.items():
            rep = members[0]
            for g in members:
                w = sym.conjugate_in_sp(g, rep)
                ok = ok and w is not None and w * rep * w.inverse() == g
        # across distinct classes no witness exists
        reps = [members[0] for members in buckets.values()]
        for a, b in itertools.combinations(reps, 2):
            ok = ok and sym.conjugate_in_sp(a, b) is None
        detail.append("p=%d: %d elements in %d classes" % (p, len(els), len(buckets)))
    report(9, "equal eigen multisets <=> Sp-conjugacy witness (exhaustive classes)", ok,
           "; ".join(detail))


def test_criterion_10_selfcheck_and_determinism():
    t0 = time.time()
    rows, elapsed = checks.run_checks()
    ok = all(r.passed for r in rows) and elapsed < 600
    rep1 = cli.render_report(rows, "json")
    rows2, _ = checks.run_checks(filter_substr="ffield")
    rep_a = cli.render_report(rows2, "json")
    rows3, _ = checks.run_checks(filter_substr="ffield")
    rep_b = cli.render_report(rows3, "json")
    ok = ok and rep_a == rep_b and len(rep1) > 0
    report(10, "selfcheck green under 10 minutes; reports byte-deterministic", ok,
           "%d rows, %.1fs" % (len(rows), elapsed))
