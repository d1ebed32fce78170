"""Registry of the built-in invariant checks: one function per documented
invariant, shared between `weilchar selfcheck` and the pytest suite.

Each check returns a list of Row records; a check passes when every row does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import ffield, gerardin, lattice, modp, signcalc, symplectic as sym, weil

DEFAULT_TOL = 1e-8


@dataclass
class Row:
    scenario_id: str
    quantity: str
    formula: complex | float | int | str
    oracle: complex | float | int | str
    abs_error: float
    passed: bool
    seed: int = 0

    @staticmethod
    def compare(scenario_id, quantity, formula, oracle, tol=DEFAULT_TOL, seed=0):
        if isinstance(formula, str) or isinstance(oracle, str):
            ok = formula == oracle
            return Row(scenario_id, quantity, formula, oracle, 0.0 if ok else float("inf"), ok, seed=seed)
        err = abs(complex(formula) - complex(oracle))
        ok = bool(err <= tol) and not (math.isnan(err))
        return Row(scenario_id, quantity, formula, oracle, err, ok, seed=seed)


def max_error(errors) -> float:
    """The largest of some errors, 0.0 for none and NaN if any is NaN, so
    that Row.compare fails it: a running max(worst, err) from 0.0 drops a
    NaN, as max(0.0, nan) is 0.0."""
    return float(np.max(np.array(list(errors), dtype=float), initial=0.0))


# ---------------------------------------------------------------------------
# ffield


def check_ffield_frobenius_fixed_field() -> list[Row]:
    """Frobenius fixed field of GF(p^k) over GF(p^j) is exactly GF(p^j)."""
    rows = []
    for p, k in ((3, 6), (5, 4), (7, 3)):
        big = ffield.field(p, k)
        for j in (d for d in range(1, k + 1) if k % d == 0):
            expected = p**j
            count = sum(1 for x in big.elements() if x.frobenius(j) == x)
            rows.append(Row.compare("ffield", "fixed-field p=%d k=%d j=%d" % (p, k, j), count, expected, 0))
    return rows


def _finite_field_lemma_pairs():
    # q ranges over {3,5,7,9}; admissible f <= 3 coprime to p within the cap
    for q, p, qdeg in ((3, 3, 1), (5, 5, 1), (7, 7, 1), (9, 3, 2)):
        for f in (1, 2, 3):
            if f % p == 0:
                continue
            if q ** (2 * f) > ffield.FIELD_CAP:
                continue
            yield q, p, qdeg, f


def check_finite_field_lemma_1() -> list[Row]:
    """Every 2f-th root of every x in F_{q^2}^1 lies in F_{q^{2f}}: exhaustive."""
    rows = []
    for q, p, qdeg, f in _finite_field_lemma_pairs():
        kq = ffield.field(p, qdeg)
        kq2 = ffield.field(p, 2 * qdeg)
        big = ffield.field(p, 2 * qdeg * f)
        bad = 0
        total = 0
        for x in ffield.norm_one_group(kq2, kq):
            xb = ffield.embed(x, big)
            roots = ffield.nth_roots(xb, 2 * f)
            total += len(roots)
            if len(roots) != 2 * f:
                bad += 1
        rows.append(Row.compare("ffield", "lemma1 q=%d f=%d (roots found)" % (q, f), total, (q + 1) * 2 * f, 0))
        rows.append(Row.compare("ffield", "lemma1 q=%d f=%d (defects)" % (q, f), bad, 0, 0))
    return rows


def check_finite_field_lemma_2() -> list[Row]:
    """For odd f, every f-th root of x in F_{q^2}^1 lies in F_{q^{2f}}^1."""
    rows = []
    for q, p, qdeg, f in _finite_field_lemma_pairs():
        if f % 2 == 0:
            continue
        kq = ffield.field(p, qdeg)
        kq2 = ffield.field(p, 2 * qdeg)
        big = ffield.field(p, 2 * qdeg * f)
        sub = ffield.field(p, qdeg * f)
        bad = 0
        for x in ffield.norm_one_group(kq2, kq):
            xb = ffield.embed(x, big)
            for r in ffield.nth_roots(xb, f):
                if ffield.norm_to(r, sub) != 1:
                    bad += 1
        rows.append(Row.compare("ffield", "lemma2 q=%d f=%d (non-norm-one roots)" % (q, f), bad, 0, 0))
    return rows


def check_sgn_norm_transitivity() -> list[Row]:
    """sgn_sub(norm(x)) equals sgn_big(x) (quadratic characters under norm)."""
    rows = []
    for p, k, j in ((3, 4, 2), (3, 6, 3), (5, 2, 1), (7, 2, 1)):
        big = ffield.field(p, k)
        sub = ffield.field(p, j)
        bad = sum(
            1 for x in big.units() if ffield.sgn_mult(ffield.norm_to(x, sub)) != ffield.sgn_mult(x)
        )
        rows.append(Row.compare("ffield", "sgn-norm p=%d %d->%d" % (p, k, j), bad, 0, 0))
    return rows


def check_sgn_multiplicative() -> list[Row]:
    f25 = ffield.field(5, 2)
    bad = 0
    units = list(f25.units())
    for x in units:
        for y in units:
            if ffield.sgn_mult(x * y) != ffield.sgn_mult(x) * ffield.sgn_mult(y):
                bad += 1
    return [Row.compare("ffield", "sgn multiplicative GF(25)", bad, 0, 0)]


# ---------------------------------------------------------------------------
# lattice


def _mixed_diagonal(rng: random.Random, rows_n: int, cols_n: int) -> list[list[int]]:
    """A rows_n x cols_n diagonal matrix with entries among 1-6, 9 and 10,
    mixed by a few elementary row and column operations: its invariant
    factors are seldom its diagonal, which need not divide each other."""
    m = [[rng.choice((1, 2, 3, 4, 5, 6, 9, 10)) if i == j else 0 for j in range(cols_n)] for i in range(rows_n)]
    for _ in range(rng.randint(2, 6)):
        c = rng.randint(-2, 2)
        if rows_n > 1:  # row_i += c row_j
            i, j = rng.sample(range(rows_n), 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if cols_n > 1:  # col_i += c col_j
            i, j = rng.sample(range(cols_n), 2)
            for row in m:
                row[i] += c * row[j]
    return m


def check_snf_unimodular() -> list[Row]:
    """U m V = D with U and V unimodular, D diagonal and d_i | d_i+1, on 96
    random matrices and 24 mixed diagonal ones (_mixed_diagonal): random
    entries in -9..9 seldom give two invariant factors above 1, so only the
    mixed ones reach the divisibility fixup."""
    rng = random.Random(0)
    bad = 0
    for trial in range(120):
        rows_n = rng.randint(1, 8)
        cols_n = rng.randint(1, 8)
        if trial < 96:
            m = [[rng.randint(-9, 9) for _ in range(cols_n)] for _ in range(rows_n)]
        else:
            m = _mixed_diagonal(rng, rows_n, cols_n)
        u, d, v = lattice.smith_normal_form(m)
        prod = np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object)
        if not (prod == np.array(d, dtype=object)).all():
            bad += 1
            continue
        if abs(lattice.det_int(u)) != 1 or abs(lattice.det_int(v)) != 1:
            bad += 1
            continue
        diag = [d[i][i] for i in range(min(rows_n, cols_n))]
        if any(d[i][j] for i in range(rows_n) for j in range(cols_n) if i != j):
            bad += 1
            continue
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                bad += 1
                break
            if a != 0 and b % a:
                bad += 1
                break
    return [Row.compare("lattice", "snf UMV=D, unimodular, divisibility (120 trials)", bad, 0, 0)]


# (order, block): the blocks make_finite_order_matrix draws from, the
# rank-1 blocks first
_FINITE_ORDER_BLOCKS = (
    (1, [[1]]),
    (2, [[-1]]),
    (3, [[0, -1], [1, -1]]),
    (4, [[0, -1], [1, 0]]),
    (6, [[1, -1], [1, 0]]),
)


def make_finite_order_matrix(rng: random.Random) -> tuple[list[list[int]], int]:
    """Random finite-order integer matrix and its order: rotation blocks
    conjugated by a random unimodular matrix.  The order is the lcm of the
    block orders (conjugation keeps it), one of 1, 2, 3, 4, 6 and 12."""
    chosen = []
    size = 0
    while size < rng.randint(2, 6):
        order, b = rng.choice(_FINITE_ORDER_BLOCKS)
        if size + len(b) > 6:
            order, b = rng.choice(_FINITE_ORDER_BLOCKS[:2])
        chosen.append((order, b))
        size += len(b)
    n = size
    m = [[0] * n for _ in range(n)]
    off = 0
    for _, b in chosen:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[off + i][off + j] = x
        off += len(b)
    # conjugate by elementary unimodular operations
    for _ in range(rng.randint(3, 10)):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        # row_i += c row_j on m, col_j -= c col_i (conjugation)
        for t in range(n):
            m[i][t] += c * m[j][t]
        for t in range(n):
            m[t][j] -= c * m[t][i]
    return m, math.lcm(*(order for order, _ in chosen))


def check_pi0_property(seed: int = 0, trials: int = 200) -> list[Row]:
    """Lemma: primes dividing the torsion of coker(1-theta) divide ord(theta)."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        m, order = make_finite_order_matrix(rng)
        for factor in lattice.pi0_torsion(m):
            bad += sum(order % r != 0 for r in modp.prime_factors(factor))
    return [Row.compare("lattice", "pi0 torsion primes divide order (%d trials)" % trials, bad, 0, 0, seed=seed)]


def check_restricted_roots_catalogue() -> list[Row]:
    rows = []
    cat = lattice.catalogue()
    for name, datum in cat.items():
        res = lattice.restrict_roots(datum)  # raises if not injective
        tags = sorted(r.type_tag for r in res.restricted)
        has23 = any(t in (2, 3) for t in tags)
        # type 2/3 only for A_{2n} moved nontrivially by theta
        a2n_moved = name in ("A2.flip", "A4.flip")
        rows.append(Row.compare("lattice", "%s type-2/3 iff moved A_2n" % name, has23, a2n_moved, 0))
    expected = {"A2.flip": {2: 2, 3: 2}, "A3.flip": {1: 8}, "A4.flip": {1: 4, 2: 4, 3: 4}}
    for name, want in expected.items():
        res = lattice.restrict_roots(cat[name])
        got = {}
        for r in res.restricted:
            got[r.type_tag] = got.get(r.type_tag, 0) + 1
        rows.append(Row.compare("lattice", "%s type counts" % name, str(sorted(got.items())), str(sorted(want.items())), 0))
    return rows


def check_descended_roots() -> list[Row]:
    rows = []
    cat = lattice.catalogue()
    d = cat["A2.flip"]
    # nu = 1: N(alpha)(nu) = 1, so type-3 restricted roots (sigma = -1) drop
    nu_one = {a: 1 for a in d.roots}
    res = lattice.restrict_roots(d)
    got = lattice.descended_roots(d, nu_one)
    want = {r.vector for r in res.restricted if r.type_tag != 3}
    rows.append(Row.compare("lattice", "A2.flip descended at nu=1", str(sorted(got)), str(sorted(want)), 0))
    ident = cat["A2"]
    got2 = lattice.descended_roots(ident, {a: 1 for a in ident.roots})
    rows.append(Row.compare("lattice", "identity theta keeps all roots", len(got2), len(ident.roots), 0))
    # generic evaluation kills everything (torus case)
    got3 = lattice.descended_roots(d, {a: 7 for a in d.roots})
    rows.append(Row.compare("lattice", "generic nu kills all roots", len(got3), 0, 0))
    return rows


# ---------------------------------------------------------------------------
# symplectic


def check_heis_associativity() -> list[Row]:
    rows = []
    # n = 1: (ab)c = a(bc) on every triple, as two gathers of the product table
    mul = sym.heis_group(sym.standard_polarized_space(3, 1)).mul
    bad = int((mul[mul] != mul[:, mul]).sum())
    rows.append(Row.compare("symplectic", "heis associativity p=3 n=1 (exhaustive)", bad, 0, 0))
    center = np.flatnonzero((mul == mul.T).all(axis=1))
    rows.append(Row.compare("symplectic", "heis center p=3 n=1", len(center), 3, 0))
    # n = 2: (ab)c = a(bc) on every triple of vectors, z = 0 (the n = 1 row
    # walks every z), gathered from two tables of heis_law products that
    # hold every product the triples reach: right[x, c] = x (c, 0) and
    # left[a, y] = (a, 0) y, x and y over all 243 elements.  Position (v, 0)
    # is 3 times v's; a is taken 9 at a time, so no 81^3 array is built.
    v2, weights = sym.standard_polarized_space(3, 2), 3 ** np.arange(4, 0, -1)  # of v's digits; z is the last
    vs, zs = sym.heis_decode(v2, np.arange(3**5))
    v, z = sym.heis_law(v2, vs[:, None], zs[:, None], vs[None, ::3], 0)
    right = v @ weights + z
    v, z = sym.heis_law(v2, vs[::3, None], 0, vs[None], zs[None])
    left = v @ weights + z
    defect = 0
    for a in np.split(np.arange(81), 9):
        defect += int((right[right[3 * a]] != left[a][:, right[::3]]).sum())
    rows.append(Row.compare("symplectic", "heis cocycle p=3 n=2 (exhaustive triples)", defect, 0, 0))
    return rows


def _factor_name(norm_one: bool) -> str:
    """The name a report label gives a torus factor."""
    return "NormOneFactor" if norm_one else "SplitFactor"


def check_torus_maximality() -> list[Row]:
    rows = []
    for p in (3, 5, 7):
        for norm_one in (False, True):
            torus = sym.Torus(p, ((1, norm_one),))
            ts = np.array([t.elem.mat for t in torus.elements()])
            group = sym.sp_group(torus.space).mats[:, None]
            commuting = int(((group @ ts - ts @ group) % p == 0).all(axis=(1, 2, 3)).sum())
            label = "%s torus p=%d centralizer = torus" % (_factor_name(norm_one), p)
            # split torus at p=3 is the central {+-1}: its centralizer is the
            # whole group (frozen honest value; the algebraic torus is still
            # maximal but its rational points are too small to pin it)
            expected = 24 if (p == 3 and not norm_one) else len(ts)
            rows.append(Row.compare("symplectic", label, commuting, expected, 0))
    return rows


CLASS_EXTRA_MEMBERS = 2  # members per class, past its representative, whose eigenvalues eigen-conjugacy reads


def _classes_of(grp: sym.SpGroup, positions: np.ndarray) -> list[np.ndarray]:
    """The conjugacy classes of grp that meet `positions`, each as the
    increasing positions of its members, so that members[0] is the class's
    representative (its symplectic.classes label); in order of the
    representatives."""
    labels = sym.classes(grp)
    return [np.flatnonzero(labels == rep) for rep in sorted(set(labels[positions].tolist()))]


def _spread(members: np.ndarray, k: int) -> np.ndarray:
    """The members that start each of k equal parts of a class (fewer when
    the class is smaller): the representative, members[0], first, and the
    others spread over the class rather than at the positions right after it.
    Sorted sets, here and in _classes_of, where np.unique would import
    numpy.ma (about 5 ms and 1 MB) into the registry."""
    return members[sorted(set((np.arange(k) * len(members) // k).tolist()))]


def check_eigen_conjugacy() -> list[Row]:
    """Equal eigen multisets iff conjugate in Sp(V) (Springer-Steinberg),
    over the semisimple classes of symplectic.classes: the representative of
    each class and CLASS_EXTRA_MEMBERS more members, spread over the class,
    share one eigen multiset, and no two classes share one."""
    rows = []
    for p in (3, 5, 7):
        grp = sym.sp_group(sym.standard_polarized_space(p, 1))
        keys, bad = [], 0
        for members in _classes_of(grp, np.flatnonzero(grp.orders % p)):
            read = _spread(members, 1 + CLASS_EXTRA_MEMBERS)
            own = [sym.eigen_multiset_key(sym.eigen_multiset(grp.elem(i))) for i in read]
            bad += sum(key != own[0] for key in own[1:])
            keys.append(own[0])
        bad += len(keys) - len(set(keys))
        rows.append(Row.compare("symplectic", "eigen<->conjugacy p=%d (%d classes)" % (p, len(keys)), bad, 0, 0))
    return rows


def check_torus_weights_vs_eigen() -> list[Row]:
    rows = []
    for torus in (sym.Torus(3, ((1, True), (1, False))), sym.Torus(5, ((1, True),))):
        bad = sum(0 if sym.weight_charpoly_check(t) else 1 for t in torus.elements())
        rows.append(Row.compare("symplectic", "weights match eigenvalues p=%d" % torus.p, bad, 0, 0))
    return rows


# ---------------------------------------------------------------------------
# weil


def check_stone_von_neumann() -> list[Row]:
    """Any two models with the same central character are intertwined, and the
    Schur intertwiner one way is proportional to the inverse of the other:
    their composite is scalar."""
    rows = []
    for p, n in ((3, 1), (5, 1), (3, 2)):
        space = sym.standard_polarized_space(p, n)
        m1 = weil.WeilModel(space)
        # a different polarization: the images g e_i, g's columns, of the
        # unit vectors under some group element
        g = sym.sp_generators(space)[0]
        m2 = weil.WeilModel(space, (g[:, :n].T, g[:, n:].T))
        t1 = weil.schur_intertwiner(m1, m2, sym.sp_identity(space))
        t2 = weil.schur_intertwiner(m2, m1, sym.sp_identity(space))
        ratio = t2 @ t1
        off = np.abs(ratio - ratio[0, 0] * np.eye(ratio.shape[0])).max()
        rows.append(Row.compare("weil", "SvN proportional intertwiners p=%d n=%d" % (p, n), off, 0, 1e-8))
    return rows


def check_rho_homomorphism() -> list[Row]:
    rows = []
    for p, n in ((3, 1), (5, 1)):
        space = sym.standard_polarized_space(p, n)
        model = weil.WeilModel(space)
        grp = sym.heis_group(space)
        cols, phases = model.rho_parts(grp.vs, grp.zs)
        errs = []
        for a in range(len(cols)):
            # rho(a) rho(b) for every b by one gather: row t goes to column
            # cols[b, cols[a, t]] with phase phases[a, t] phases[b, cols[a, t]]
            got_cols, got = cols[:, cols[a]], phases[a] * phases[:, cols[a]]
            errs.append(weil.monomial_distance(got_cols, got, cols[grp.mul[a]], phases[grp.mul[a]]))
        worst = max_error(errs)
        rows.append(Row.compare("weil", "rho homomorphism p=%d exhaustive" % p, worst, 0, 1e-10))
        # irreducibility: sum |tr rho(h)|^2 = |H|, the trace read off the diagonal
        traces = np.where(cols == np.arange(model.dim), phases, 0).sum(axis=1)
        total = float((np.abs(traces) ** 2).sum())
        rows.append(Row.compare("weil", "rho irreducible p=%d (char norm)" % p, total, len(cols), 1e-6))
    return rows


def cell_element(model: weil.WeilModel, r: int, rng: np.random.Generator) -> sym.SpElem:
    """A random element of the Bruhat cell P w_S P with |S| = r, P the Siegel
    parabolic of the model's standard coordinates: its C block has rank r."""
    p, n = model.p, model.n

    def parabolic():  # m(a) n(b + b^T)
        a = rng.integers(0, p, (n, n))
        while modp.det(a, p) == 0:
            a = rng.integers(0, p, (n, n))
        b = rng.integers(0, p, (n, n))
        out = np.zeros((2 * n, 2 * n), dtype=np.int64)
        out[:n, :n], out[:n, n:], out[n:, n:] = a, a @ (b + b.T), modp.mat_inv(a, p).T
        return out

    # w_S: [[I - E, E], [-E, I - E]], E the projection on the first r coordinates
    w, s = np.eye(2 * n, dtype=np.int64), np.arange(r)
    w[s, s] = w[n + s, n + s] = 0
    w[s, n + s], w[n + s, s] = 1, -1
    std = parabolic() @ w @ parabolic() % p
    return sym.sp_elem(model.space, model.from_std @ std @ model.to_std % p)


def check_omega_multiplicative() -> list[Row]:
    """omega(g1) omega(g2) = omega(g1 g2) for all pairs, both constructions;
    beyond the group model's cap, the word model on one seeded pair per pair
    of cell ranks (r1, r2)."""
    rows = []
    for p in (3, 5, 7):
        space = sym.standard_polarized_space(p, 1)
        model = weil.WeilModel(space)
        grp, _, traces = _group_traces(p)
        ops = model.omega_group(grp.mats)
        d = model.dim
        side = ops.transpose(1, 0, 2).reshape(d, -1)  # every operator side by side, (d, size * d)
        errs = []
        for i, row in enumerate(_product_table(grp)):  # omega(g_i) omega(g) against omega(g_i g) for every g
            want = ops[row].transpose(1, 0, 2)
            errs.append(np.abs((ops[i] @ side).reshape(d, -1, d) - want).max())
        worst = max_error(errs)
        rows.append(Row.compare("weil", "omega multiplicative p=%d (all pairs)" % p, worst, 0, 1e-8))
        words = model.omega_stack(grp.mats)
        word_worst = float(np.abs(words - ops).max())
        rows.append(Row.compare("weil", "word model = group model p=%d" % p, word_worst, 0, 1e-8))
        trace_worst = _trace_distance(traces, words)
        rows.append(Row.compare("weil", "word trace = trace of word model p=%d" % p, trace_worst, 0, 1e-10))
    rng = np.random.default_rng(0)
    for p, n in ((3, 2), (3, 3)):
        model = weil.WeilModel(sym.standard_polarized_space(p, n))
        ranks = range(n + 1)
        pairs = [(cell_element(model, r1, rng), cell_element(model, r2, rng)) for r1 in ranks for r2 in ranks]
        els = [g for g1, g2 in pairs for g in (g1, g2, g1 * g2)]
        words = model.omega_stack(els)
        o1, o2, o12 = (words[i::3] for i in range(3))
        mult_worst = float(np.abs(o1 @ o2 - o12).max())
        trace_worst = _trace_distance(model.trace_stack(els).tolist(), words)
        group = "Sp_%d(F_%d)" % (2 * n, p)
        rows.append(Row.compare("weil", "word model multiplicative %s (%d pairs, ranks 0-%d)" % (group, len(pairs), n),
                                mult_worst, 0, 1e-8))
        rows.append(Row.compare("weil", "word trace = trace of word model %s" % group, trace_worst, 0, 1e-10))
    return rows


def _product_table(grp: sym.SpGroup) -> np.ndarray:
    """table[i, j] = the position of g_i g_j, for all pairs of grp.  Row 0,
    the identity's, is 0..size-1; the row of g s, s a generator, is g's row
    permuted by left multiplication by s, pos(g s h) = table[g, pos(s h)].
    The rows are filled breadth-first from the identity along right
    multiplication by grp.gens: one positions call per generator and side."""
    by_left = [grp.positions(s @ grp.mats) for s in grp.gens]
    by_right = [grp.positions(grp.mats @ s) for s in grp.gens]
    size = len(grp.mats)
    table = np.full((size, size), -1, dtype=np.int64)  # -1: a row not yet reached
    table[0] = np.arange(size)
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        reached = []
        for left, right in zip(by_left, by_right):
            new = right[frontier]  # distinct: right multiplication by s is a permutation
            fresh = table[new, 0] < 0
            table[new[fresh]] = table[frontier[fresh]][:, left]
            reached.append(new[fresh])
        frontier = np.concatenate(reached)
    return table


def _trace_distance(traces, ops: np.ndarray) -> float:
    """The largest |traces[i] - tr ops[i]|, traces a sequence of complex
    scalars, each difference taken as one complex scalar."""
    return max_error(abs(v - d) for v, d in zip(traces, np.trace(ops, axis1=1, axis2=2)))


@functools.lru_cache(maxsize=None)
def _group_traces(p: int) -> tuple[sym.SpGroup, np.ndarray, tuple[complex, ...]]:
    """Sp_2(F_p) in standard coordinates, the positions of its semisimple
    elements (order prime to p) and tr omega of every element, by one
    trace_stack.  Taken once per p for every whole-group row of a registry
    run (_clear_caches empties it), so the positions are read-only and the
    traces a tuple."""
    grp = sym.sp_group(sym.standard_polarized_space(p, 1))
    semisimple = np.flatnonzero(grp.orders % p)
    semisimple.flags.writeable = False
    return grp, semisimple, tuple(weil.WeilModel(grp.space).trace_stack(grp.mats).tolist())


def check_omega_values_algebraic() -> list[Row]:
    """Character values snap to Z + Z sqrt(+-p)."""
    rows = []
    for p in (3, 5, 7):
        root = math.sqrt(p)
        # try v = a + b sqrt(p) or a + b i sqrt(p) with a, b in (1/2)Z
        worst = max_error(min(
            abs(v - (round(v.real * 2) / 2 + (round(v.imag * 2 / root) / 2) * root * 1j)),
            abs((v.real - round(v.real * 2 / root) / 2 * root)) + abs(v.imag),
        ) for v in _group_traces(p)[2])
        rows.append(Row.compare("weil", "character values algebraic p=%d" % p, worst, 0, 1e-6))
    return rows


def check_cyclic_tensor_trace(seed: int = 0, trials: int = 500) -> list[Row]:
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(trials):
        l = int(rng.integers(0, 5))
        dim = int(rng.integers(1, 5))
        maps = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(l + 1)]
        big, comp = weil.cyclic_tensor_trace(maps)
        errs.append(abs(big - comp) / max(1.0, abs(comp)))
    return [Row.compare("weil", "cyclic tensor trace (%d chains)" % trials, max_error(errs), 0, 1e-9, seed=seed)]


def _order_3_loop() -> sym.SpElem:
    # L and L^-1 give different twisted traces
    return sym.sp_elem(sym.standard_polarized_space(5, 1), [[0, 4], [1, 4]])


def twisted_trace_fixtures(seed: int = 0) -> list[tuple[str, tuple[weil.TwistChain, ...], list[list[sym.SpElem]]]]:
    """Criterion 04's fixtures as (label, block twist, elements) triples, each
    element a list of parts, one per block: two swapped blocks at p = 3 with
    every pair, and at p = 5 one fixed block plus a swapped pair, both closed
    by a loop of order 3, on torus elements and a sample."""
    v3 = sym.standard_polarized_space(3, 1)
    twist = weil.block_twist([(sym.sp_identity(v3), 2)])
    grp = sym.sp_group(v3)
    els = [grp.elem(i) for i in range(len(grp.mats))]
    pairs = [[g1, g2] for g1 in els for g2 in els]

    loop = _order_3_loop()
    v2 = loop.space
    twist3 = weil.block_twist([(loop, 1), (loop, 2)])
    torus = [sym.sp_elem(v2, [[a, 0], [0, pow(a, 3, 5)]]) for a in (1, 2, 3, 4)]
    grp = sym.sp_group(v2)
    pool = torus + [grp.elem(i) for i in random.Random(seed).sample(range(len(grp.mats)), 4)]
    triples = [[g0, g1, g2] for g0 in pool for g1 in pool[:5] for g2 in pool[:5]]
    return [
        ("twisted trace p=3 two swapped blocks (all pairs)", twist, pairs),
        ("twisted trace p=5 fixed + swapped pair, loops of order 3", twist3, triples),
    ]


def check_twisted_trace_decomposition(seed: int = 0) -> list[Row]:
    """The trace at each chain's norm, multiplied over the chains, equals the
    direct trace on each whole chain."""
    rows = []
    for label, twist, gs in twisted_trace_fixtures(seed):
        worst = max_error(abs(r.product_value - r.direct_value) for r in weil.twisted_trace_stack(twist, gs))
        rows.append(Row.compare("weil", label, worst, 0, 1e-8, seed=seed))
    return rows


def check_intertwiner_normalization() -> list[Row]:
    """A loop's Weil operator by two constructions: its Schur intertwiner,
    scaled by the group model's rule (weil.linear_lift), against the word
    model's omega_stack; the loops of one space are averaged as one stack.
    The loops are those of criterion 04's fixtures, then in Sp_2(F_3),
    Sp_2(F_7) and Sp_4(F_3) one seeded cell element of order prime to p per
    cell rank."""
    fixtures = [sym.sp_identity(sym.standard_polarized_space(3, 1)), _order_3_loop()]
    loops = [("p=%d fixture loop" % g.space.p, g, g.order()) for g in fixtures]
    rng = np.random.default_rng(0)
    for p, n in ((3, 1), (7, 1), (3, 2)):
        model = weil.WeilModel(sym.standard_polarized_space(p, n))
        for r in range(n + 1):
            order = 0
            while order % p == 0:
                loop = cell_element(model, r, rng)
                order = loop.order()
            loops.append(("Sp_%d(F_%d) cell rank %d" % (2 * n, p, r), loop, order))
    by_space = {}
    for entry in loops:
        by_space.setdefault(entry[1].space, []).append(entry)
    rows = []
    for space, group in by_space.items():
        model = weil.WeilModel(space)
        labels, gs, orders = zip(*group)
        averages = weil.schur_intertwiners(model, model, gs)
        lifted = weil.linear_lift(averages, np.array(orders))
        errs = np.abs(lifted - model.omega_stack(gs)).max(axis=(1, 2))
        rows += [Row.compare("weil", "lifted Schur intertwiner = omega(L), %s" % label, float(err), 0, 1e-9)
                 for label, err in zip(labels, errs)]
    return rows


def check_character_conjugacy_invariance() -> list[Row]:
    """Weil character constant on conjugacy classes: the trace of every
    element of Sp_2(F_p) against its class representative's."""
    rows = []
    for p in (3, 5, 7):
        grp, _, traces = _group_traces(p)
        worst = max_error(abs(tr - traces[rep]) for tr, rep in zip(traces, sym.classes(grp).tolist()))
        rows.append(Row.compare("weil", "character conjugacy invariance p=%d (%d elements)" % (p, len(traces)),
                                worst, 0, 1e-8))
    return rows


# ---------------------------------------------------------------------------
# gerardin


def check_gerardin_semisimple() -> list[Row]:
    tori = []
    for p in (3, 5, 7):
        for norm_one in (False, True):
            tori.append((sym.Torus(p, ((1, norm_one),)), "semisimple Sp_2(F_%d) %s" % (p, _factor_name(norm_one))))
    for n1 in (True, False):
        for n2 in (True, False):
            label = "semisimple Sp_4(F_3) %s+%s" % (_factor_name(n1)[:5], _factor_name(n2)[:5])
            tori.append((sym.Torus(3, ((1, n1), (1, n2))), label))
    # beyond the required block tori: the irreducible degree-2 factors
    for norm_one in (True, False):
        tori.append((sym.Torus(3, ((2, norm_one),)), "semisimple Sp_4(F_3) %s deg 2" % _factor_name(norm_one)[:5]))
    rows = []
    for torus, label in tori:
        model = weil.WeilModel(torus.space)
        els = list(torus.elements())
        traces = model.trace_stack([t.elem for t in els]).tolist()
        worst = max_error(abs(gerardin.char_semisimple(t) - tr) for t, tr in zip(els, traces))
        rows.append(Row.compare("gerardin", label, worst, 0, 1e-8))
    return rows


def check_polarized_formula() -> list[Row]:
    """Exhaustive over polarization-preserving semisimple g; exact after snap.
    On Sp_2 the formula runs on each class's representative, once per
    invariant polarization, and its value meets the oracle trace of every
    member: x g x^-1 keeps x V+, so a (g, polarization) pair stands for one
    pair per member."""
    rows = []
    groups = {p: _group_traces(p) for p in (3, 5, 7)}
    for p, (grp, ss, traces) in groups.items():
        bad = 0
        count = 0
        for members in _classes_of(grp, ss):
            rep = grp.elem(members[0])
            for pol in gerardin.invariant_polarizations(rep):
                val = gerardin.char_polarized(rep, pol)
                count += len(members)
                bad += sum(abs(val - complex(round(oracle.real), round(oracle.imag))) > 1e-9
                           or abs(oracle - round(oracle.real)) > 1e-6 for oracle in (traces[i] for i in members))
        rows.append(Row.compare("gerardin", "polarized Sp_2(F_%d) (%d pairs, snapped)" % (p, count), bad, 0, 0))
    # diagonal-block g in Sp_4(F_3): per-block polarizations combine to a
    # g-invariant polarization of the sum; oracle is the tensor product
    grp, ss, traces = groups[3]
    vsum = sym.direct_sum([grp.space, grp.space])
    firsts = [(grp.elem(i), traces[i]) for i in ss]
    seconds = [(g2, list(gerardin.invariant_polarizations(g2)), trace2) for g2, trace2 in firsts[:4]]
    zero = np.zeros((1, 2), dtype=np.int64)  # a line of one block, placed in the sum
    bad = 0
    count = 0
    for g1, trace1 in firsts:
        pols1 = list(gerardin.invariant_polarizations(g1))
        if not pols1:
            continue
        for g2, pols2, trace2 in seconds:
            if not pols2:
                continue
            gbig = sym.block_diagonal(vsum, [g1.mat, g2.mat])
            oracle = trace1 * trace2
            for (vp1, vm1), (vp2, vm2) in itertools.product(pols1[:2], pols2[:2]):
                vplus = np.block([[vp1, zero], [zero, vp2]])
                vminus = np.block([[vm1, zero], [zero, vm2]])
                val = gerardin.char_polarized(gbig, (vplus, vminus))
                count += 1
                if abs(val - complex(round(oracle.real), round(oracle.imag))) > 1e-9:
                    bad += 1
    rows.append(Row.compare("gerardin", "polarized Sp_4(F_3) diagonal blocks (%d)" % count, bad, 0, 0))
    return rows


def check_polarized_agrees_with_semisimple() -> list[Row]:
    rows = []
    for p in (3, 5, 7):
        torus = sym.Torus(p, ((1, False),))
        errs = [abs(gerardin.char_semisimple(t) - gerardin.char_polarized(t.elem, pol))
                for t in torus.elements() for pol in gerardin.invariant_polarizations(t.elem)]
        worst, count = max_error(errs), len(errs)
        rows.append(Row.compare("gerardin", "polarized = semisimple p=%d (%d pairs)" % (p, count), worst, 0, 1e-9))
    return rows


def check_no_fixed_point_choice_independence() -> list[Row]:
    """The fixed-point-free formula does not depend on the choice of V'; it
    runs on each class's representative, and its value meets the oracle
    trace of every member."""
    rows = []
    grp, ss, traces = _group_traces(5)
    space = grp.space
    checked = 0
    bad = 0
    for members in _classes_of(grp, ss):
        g = grp.elem(members[0])
        if g.fixed_space_dim():
            continue
        vals = set()
        for vp in gerardin._all_subspaces(space, 1):
            try:
                vals.add(gerardin.char_no_fixed_point(g, vp))
            except gerardin.GerardinError:
                continue
        try:
            vals.add(gerardin.char_no_fixed_point(g, []))
        except gerardin.GerardinError:
            pass
        if len(vals) != 1:
            bad += len(members)
        else:
            val = vals.pop()
            bad += sum(abs(val - traces[i]) > 1e-8 for i in members)
        checked += len(members)
    rows.append(Row.compare("gerardin", "V' choice independence p=5 (%d elements)" % checked, bad, 0, 0))
    return rows


def check_fixed_line_formula() -> list[Row]:
    """Recursive evaluation matches the oracle on all semisimple elements: on
    Sp_2, one evaluation per class representative against the trace of every
    member."""
    rows = []
    groups = {p: _group_traces(p) for p in (3, 5)}
    for p, (grp, ss, traces) in groups.items():
        errs = []
        for members in _classes_of(grp, ss):
            val = gerardin.weil_char(grp.elem(members[0]))
            errs += [abs(val - traces[i]) for i in members]
        rows.append(Row.compare("gerardin", "recursive char Sp_2(F_%d)" % p, max_error(errs), 0, 1e-8))
    # Sp_4(F_3) fixed-line cases (Jordan-free fixed lines) with tensor oracle;
    # position 0 is the identity
    grp, ss, traces = groups[3]
    vsum = sym.direct_sum([grp.space, grp.space])
    cases = [i for i in ss if not grp.elem(i).fixed_space_dim()]
    worst = max_error(abs(gerardin.weil_char(sym.block_diagonal(vsum, [grp.mats[i], np.eye(2, dtype=np.int64)]))
                          - traces[i] * traces[0]) for i in cases)
    count = len(cases)
    rows.append(Row.compare("gerardin", "fixed line Sp_4(F_3) (%d cases)" % count, worst, 0, 1e-8))
    return rows


def check_weil_char_fixed_point_free() -> list[Row]:
    """gerardin.weil_char = trace_omega on seeded fixed-point-free semisimple
    elements of Sp_4(F_p): cell-element conjugates of Levi elements
    diag(A, A^-T) whose A has no eigenvalue 1.  When A splits over F_p, V'
    takes more than one greedy step; the row fails if no element needs one."""
    rng = np.random.default_rng(0)
    zero, ident = np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    errs, several = [], 0
    for p in (3, 5):
        model = weil.WeilModel(sym.standard_polarized_space(p, 2))
        found = 0
        while found < 8:
            a = rng.integers(0, p, (2, 2))
            if modp.det(a, p) == 0 or modp.det((a - ident) % p, p) == 0:
                continue
            levi = np.block([[a, zero], [zero, modp.mat_inv(a, p).T]])
            m = sym.sp_elem(model.space, model.from_std @ levi @ model.to_std % p)
            if not m.is_semisimple():
                continue
            c = cell_element(model, found % 3, rng)
            g = c * m * c.inverse()
            found += 1
            several += len(gerardin.maximal_invariant_isotropic(g)) > 1
            errs.append(abs(gerardin.weil_char(g) - model.trace_omega(g)))
    label = "weil_char fixed-point-free Sp_4(F_3/5) (16 elements, %d with a multi-line V')" % several
    row = Row.compare("gerardin", label, max_error(errs), 0, 1e-8)
    row.passed = row.passed and several > 0
    return [row]


# ---------------------------------------------------------------------------
# signcalc


def _eta_pool(group: list, cap: int):
    if len(group) <= cap:
        return group
    idx = sorted(random.Random(11).sample(range(len(group)), cap))
    return [group[i] for i in idx]


# (symmetric, d, shift, neg, label suffix): the one-orbit action
# one_orbit_action(d, symmetric, shift, neg), theta = neg^[neg] gamma^shift
SIGN_FAMILIES = (
    (False, 2, 1, False, "d=2 f=2"),  # asym/asym, varsigma a genuine Frobenius power
    (False, 4, 2, False, "d=4 f=2"),
    (False, 2, 1, True, "f=1"),  # asym/sym-ur
    (False, 4, 1, True, "f=2"),
    (True, 2, 0, False, "g=1"),  # sym-ur/sym-ur
    (True, 4, 0, False, "g=2"),
    (False, 1, 0, True, "d=1 f=1"),  # asym/sym-ram
    (False, 2, 0, True, "d=2 f=1"),
    (False, 3, 1, True, "f=3"),  # theta of order 6: none at p = 3
    (True, 2, 0, True, "g=1"),  # sym-ur/sym-ram
    (True, 4, 0, True, "g=2"),
)


def orbit_scenarios(action: signcalc.OrbitAction, alpha: int, p: int, eta_cap: int = 80, c_variants: int = 1):
    """Generator of the scenarios of root alpha's orbit in `action` over F_p.

    The fields are GF(p^k) for the stabilizer indices of action.roots[alpha]
    (k_alpha: the Gamma-orbit's length; k_pm_alpha, k_res, k_pm_res: its
    deg_pm_alpha, deg_res, deg_pm_res) and the branch is orbit_branch's.
    C runs over [1, gen] ([1, 2] in degree 1) for asymmetric alpha and over
    the tau-antiinvariant units for symmetric alpha, the first c_variants of
    them.  eta runs over the units meeting the form constraint, sampled
    down to eta_cap by _eta_pool: on a symmetric root the fibre of the norm
    to k_pm_alpha over the family's eta target (signcalc.family_target,
    which each scenario's validation then reads from its cache), on an
    asymmetric one every unit, with eta_minus = target / eta.  Nothing is
    yielded when the twist order or f = [k_alpha : k_res] is divisible by p."""
    root = action.roots[alpha]
    d = len(root.gamma)
    k, k_pm, k_res, k_pm_res = (ffield.field(p, deg) for deg in (d, root.deg_pm_alpha, root.deg_res, root.deg_pm_res))
    if action.theta_order % p == 0 or (d // root.deg_res) % p == 0:
        return
    branch = signcalc.orbit_branch(action, alpha, d, root.deg_res, root.deg_pm_res)
    if root.symmetric:
        cs = sym.anti_invariant_units(k, root.tau_exp)
    else:
        cs = [k.one(), k.gen()] if d > 1 else [k.one(), k.from_int(2)]
    for c in cs[: max(1, c_variants)]:
        target = signcalc.family_target(action, alpha, k, k_pm, k_res, k_pm_res, c, branch)
        if root.symmetric:
            pairs = [(eta, None) for eta in _eta_pool(ffield.units_of_norm(k, k_pm, target), eta_cap)]
        else:
            pairs = [(eta, target / eta) for eta in _eta_pool(list(k.units()), eta_cap)]
        for eta, eta_minus in pairs:
            yield signcalc.OrbitScenario(action, alpha, k, k_pm, k_res, k_pm_res, c, eta, eta_minus, branch)


def sign_branch_scenarios(p: int, max_degree: int = 2, eta_cap: int = 80, c_variants: int = 1):
    """Generator of (label, scenario) pairs across all five classification
    branches, for k_alpha of degree <= max_degree.

    The families are theta = id on an asymmetric orbit of every degree
    d <= max_degree (asym/asym, f = 1), then SIGN_FAMILIES.  Each family is
    the orbit_scenarios of root 0 of its one-orbit action, labelled
    "<classification> p=<p> <suffix>"."""
    families = [(False, d, 0, False, "d=%d f=1" % d) for d in range(1, max_degree + 1)] + list(SIGN_FAMILIES)
    for symmetric, d, shift, neg, suffix in families:
        if d > max_degree:
            continue
        act = signcalc.one_orbit_action(d, symmetric, shift, neg)
        for sc in orbit_scenarios(act, 0, p, eta_cap, c_variants):
            yield "%s p=%d %s" % (sc.classification, p, suffix), sc


@dataclass
class FamilyStats:
    """One sign-sweep family: blocks seen, worst |formula - oracle|, signs."""

    count: int = 0
    worst: float = 0.0
    signs: set[int] = dc_field(default_factory=set)


def sign_sweep(ps, max_degree: int = 2, eta_cap: int = 80, c_variants: int = 1) -> dict[str, FamilyStats]:
    """Closed-form block value against the brute-force Weil trace of the
    scenario's block, for every scenario of sign_branch_scenarios over ps.
    The formula builds no block, so each scenario builds one.  Each run of
    consecutive blocks on one block space (a family's, as the generator
    yields them) is traced as one stack and then let go; WeilModel.trace_stack
    takes each element's trace on its own, so a trace is trace_omega's bit
    for bit."""
    stats: dict[str, FamilyStats] = {}
    for p in ps:
        blocks = ((label, signcalc.build_block(sc), signcalc.block_sign_formula(sc))
                  for label, sc in sign_branch_scenarios(p, max_degree, eta_cap, c_variants))
        for space, run in itertools.groupby(blocks, key=lambda block: block[1].space):
            run = list(run)
            oracle = weil.WeilModel(space).trace_stack([bb.op for _, bb, _ in run]).tolist()
            for (label, _, bv), val in zip(run, oracle):
                st = stats.setdefault(label, FamilyStats())
                st.count += 1
                st.worst = max_error([st.worst, abs(bv.value - val)])
                st.signs.add(bv.sign)
    return stats


def check_sign_formula_vs_oracle() -> list[Row]:
    """The central sign-formula test: closed form times fixed factor equals
    the brute-force Weil trace of the built block."""
    stats = sign_sweep((3,), 2)
    return [
        Row.compare("signcalc", "%s (%d etas)" % (label, st.count), st.worst, 0, 1e-8)
        for label, st in sorted(stats.items())
    ]


def check_ram_empty() -> list[Row]:
    """No tau-antiinvariant C exists on a symmetric ramified root: the
    constructor rejects every attempted C."""
    # symmetric alpha with trivial residue tau: Gamma of order 2 acting with
    # k_alpha = F_p (total ramification): every C fails
    act = signcalc.one_orbit_action(2, True)
    f1 = ffield.field(3, 1)
    bad = 0
    for c in f1.units():
        try:
            signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, c, f1.one(), None, "sym-ur/sym-ur")
            bad += 1
        except (signcalc.SignCalcError, ffield.FieldError):
            pass
    return [Row.compare("signcalc", "ram-empty rejects all C (3 tried)", bad, 0, 0)]


def _every_eta(d: int, symmetric: bool, shift: int = 0, neg: bool = False) -> list[signcalc.OrbitScenario]:
    """Every scenario of the one-orbit family at p = 3, with every eta."""
    act = signcalc.one_orbit_action(d, symmetric, shift, neg)
    return list(orbit_scenarios(act, 0, 3, eta_cap=ffield.FIELD_CAP))


def check_eta_constraint_both_directions() -> list[Row]:
    """Constructed twists satisfy the Sp invariant iff the eta constraint holds."""
    first = _every_eta(2, False, shift=1, neg=True)[0]  # asym/sym-ur f=1
    want = -(first.C.frobenius(1) / first.C)
    good = wrong = 0
    for eta, eta_minus in itertools.product(first.k_alpha.units(), repeat=2):
        legal = eta * eta_minus == want
        try:
            dataclasses.replace(first, eta_alpha=eta, eta_minus_alpha=eta_minus)
            accepted = True
        except signcalc.FormDegenerate:
            accepted = False
        good += legal and accepted
        wrong += legal != accepted
    return [Row.compare("signcalc", "eta constraint acceptance (%d legal)" % good, wrong, 0, 0)]


def _accepts(sc: signcalc.OrbitScenario, eta: ffield.FieldElem) -> bool:
    try:
        dataclasses.replace(sc, eta_alpha=eta)
        return True
    except signcalc.SignCalcError:
        return False


def check_ramified_eta_independence() -> list[Row]:
    """Block traces agree across all admissible eta in ramified branches."""
    rows = []
    asym_ram, sym_ram = _every_eta(1, False, neg=True), _every_eta(2, True, neg=True)
    for label, scs in (("asym/sym-ram", asym_ram), ("sym-ur/sym-ram", sym_ram)):
        vals = set()
        for sc in scs:
            bb = signcalc.build_block(sc)
            vals.add(round(weil.WeilModel(bb.space).trace_omega(bb.op).real, 6))
        rows.append(Row.compare("signcalc", "%s eta independence" % label, len(vals), 1, 0))
    # the ramified norm identity Nr(eta) = -1 is forced
    first = sym_ram[0]
    forced = all(ffield.norm_to(eta, first.k_res) == -1 or not _accepts(first, eta) for eta in first.k_alpha.units())
    rows.append(Row.compare("signcalc", "sym-ram forces Nr(eta) = -1", forced, True, 0))
    return rows


def check_asym_symur_norm_minus_one_fixed_space() -> list[Row]:
    """In the asym/sym-ur branch with Nr(beta) = -1 the fixed space is zero:
    the formula's torus algorithm says which case beta is in."""
    bad = seen = 0
    for sc in _every_eta(2, False, shift=1, neg=True):
        bv = signcalc.block_sign_formula(sc)
        if bv.pieces.trace[0] == "case1":
            seen += 1
            bad += signcalc.build_block(sc).op.fixed_space_dim() != 0
    return [Row.compare("signcalc", "Nr(beta)=-1 => trivial fixed space (%d cases)" % seen, bad, 0, 0)]


def check_assemble_dual_path() -> list[Row]:
    """Factored vs unfactored agreement and the full-space oracle, f=1 regime."""
    rows = []
    p = 3
    f1 = ffield.field(p, 1)
    k2 = ffield.field(p, 2)
    c2 = sym.anti_invariant_unit(k2, 1)
    no = ffield.norm_one_group(k2, f1)
    act = signcalc.OrbitAction(4, (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    scen = {
        0: signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, f1.one(), f1.from_int(2), f1.from_int(2), "asym/asym"),
        2: signcalc.OrbitScenario(act, 2, k2, f1, k2, f1, c2, no[2], None, "sym-ur/sym-ur"),
    }
    errs = []
    eps_vals = {}
    for v0 in f1.units():
        for v2 in no:
            svals = {0: v0, 2: v2}
            asm = signcalc.assemble_product(act, scen, svals)  # asserts dual-path internally
            res = signcalc.full_space_oracle(act, scen, svals)
            errs += [abs(asm.value - res.product_value), abs(res.product_value - res.direct_value)]
            eps_vals[(v0.index(), v2.index())] = asm.eps_tilde
    rows.append(Row.compare("signcalc", "assemble dual path + oracle (8 s-values)", max_error(errs), 0, 1e-8))
    # eps_tilde is a character: multiplicative under componentwise s-products
    ok = True
    units = list(f1.units())
    for (a, u), (b, v) in itertools.product(itertools.product(units, no), repeat=2):
        lhs = eps_vals[(a.index(), u.index())] * eps_vals[(b.index(), v.index())]
        if lhs != eps_vals[((a * b).index(), (u * v).index())]:
            ok = False
    rows.append(Row.compare("signcalc", "eps_tilde multiplicative in s", ok, True, 0))
    # theta_rho sign flip and composite check
    asm = signcalc.assemble_product(act, scen, {0: f1.from_int(2), 2: no[2]})
    th = signcalc.theta_rho(asm, 1.0 + 0j)
    res = signcalc.full_space_oracle(act, scen, {0: f1.from_int(2), 2: no[2]})
    rows.append(Row.compare("signcalc", "theta_rho = oracle * vartheta", th, res.product_value, 1e-8))
    return rows


def check_f1_closed_forms() -> list[Row]:
    """The general torus-algorithm engine reduces to the displayed f=1 forms."""
    rows = []
    bad = 0
    for sc in _every_eta(2, False, shift=1, neg=True):
        bv = signcalc.block_sign_formula(sc)
        closed = (-1) ** bv.n_alpha * ffield.sgn_mult(sc.eta_minus_alpha * sc.C) * bv.fixed_factor
        if abs(closed - bv.value) > 1e-9:
            bad += 1
    rows.append(Row.compare("signcalc", "f=1 asym/sym-ur closed form", bad, 0, 0))
    bad2 = 0
    for sc in _every_eta(2, True):
        bv = signcalc.block_sign_formula(sc)
        closed = (-1) ** (1 - bv.n_alpha) * ffield.sgn_norm_one(sc.eta_alpha, sc.k_pm_res) * bv.fixed_factor
        if abs(closed - bv.value) > 1e-9:
            bad2 += 1
    rows.append(Row.compare("signcalc", "f=1 sym-ur closed form", bad2, 0, 0))
    return rows


# ---------------------------------------------------------------------------
# registry

CHECKS = [
    ("ffield.fixed-field", check_ffield_frobenius_fixed_field),
    ("ffield.lemma1", check_finite_field_lemma_1),
    ("ffield.lemma2", check_finite_field_lemma_2),
    ("ffield.sgn-norm", check_sgn_norm_transitivity),
    ("ffield.sgn-mult", check_sgn_multiplicative),
    ("lattice.snf", check_snf_unimodular),
    ("lattice.pi0", check_pi0_property),
    ("lattice.catalogue", check_restricted_roots_catalogue),
    ("lattice.descended", check_descended_roots),
    ("symplectic.heis", check_heis_associativity),
    ("symplectic.torus-maximal", check_torus_maximality),
    ("symplectic.eigen-conjugacy", check_eigen_conjugacy),
    ("symplectic.weights", check_torus_weights_vs_eigen),
    ("weil.svn", check_stone_von_neumann),
    ("weil.rho", check_rho_homomorphism),
    ("weil.omega-mult", check_omega_multiplicative),
    ("weil.algebraic", check_omega_values_algebraic),
    ("weil.tensor-trace", check_cyclic_tensor_trace),
    ("weil.twisted-trace", check_twisted_trace_decomposition),
    ("weil.normalization", check_intertwiner_normalization),
    ("weil.conjugacy", check_character_conjugacy_invariance),
    ("gerardin.semisimple", check_gerardin_semisimple),
    ("gerardin.polarized", check_polarized_formula),
    ("gerardin.polarized-agrees", check_polarized_agrees_with_semisimple),
    ("gerardin.vprime", check_no_fixed_point_choice_independence),
    ("gerardin.fixed-line", check_fixed_line_formula),
    ("gerardin.weil-char", check_weil_char_fixed_point_free),
    ("signcalc.oracle", check_sign_formula_vs_oracle),
    ("signcalc.ram-empty", check_ram_empty),
    ("signcalc.eta-constraint", check_eta_constraint_both_directions),
    ("signcalc.eta-independence", check_ramified_eta_independence),
    ("signcalc.fixed-space", check_asym_symur_norm_minus_one_fixed_space),
    ("signcalc.assemble", check_assemble_dual_path),
    ("signcalc.f1-forms", check_f1_closed_forms),
]


# ---------------------------------------------------------------------------
# seeded faults
#
# Each entry is a deliberate bug in one layer, there to show that some check
# catches it.  A fault patches the one named function that holds the rule it
# breaks, and never a copy of library code: a copy runs code the library
# never runs, and drifts when the original changes.  So a fault either
# transforms its target's value or replaces a function whose whole body is
# the one rule it breaks; where a rule had no function of its own, the
# library gives it a seam on the live path (such as modp._exchange).
#
# FAULTS[name]() is a context manager that, on entry, clears the
# weilchar caches (this module's _group_traces and weil's block memo among
# them), looks its target up and puts the faulty version in its place, and
# on exit puts the original back and clears the caches again, so what a
# fault turns red does not depend on what ran before.  ffield.field stays:
# it hands out the one object per field, and no fault reaches it.


def _clear_caches() -> None:
    for mod in (ffield, gerardin, lattice, modp, signcalc, sym, weil, sys.modules[__name__]):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj is not ffield.field:
                obj.cache_clear()


def _fault(owner, path: str, faulty):
    """A FAULTS entry: while entered, owner.<path> calls faulty with the
    original as its first argument."""

    @contextlib.contextmanager
    def seeded():
        *head, attr = path.split(".")
        target = functools.reduce(getattr, head, owner)
        orig = getattr(target, attr)
        _clear_caches()
        setattr(target, attr, lambda *args, **kwargs: faulty(orig, *args, **kwargs))
        try:
            yield
        finally:
            setattr(target, attr, orig)
            _clear_caches()

    return seeded


def _restrict_merged(orig, d):
    # the last Theta-orbit folded into the first restricted root, so that
    # Phi/Theta -> Phi_res is no longer injective; by_root stays
    res = orig(d)
    first, *middle, last = res.restricted
    return dataclasses.replace(res, restricted=(dataclasses.replace(first, orbit=first.orbit + last.orbit), *middle))


def _block_sign_negated(orig, s):
    bv = orig(s)
    return dataclasses.replace(bv, value=-bv.value)


def _split_class(orig, g):
    # a duplicate eigenvalue on every g with g[0][1] = 0 splits conjugacy
    # classes across two eigenvalue keys
    vals = orig(g)
    return vals + vals[:1] if g.mat[0, 1] == 0 else vals


def _pieces_symmetric(orig, torus, coords):
    # every piece of a torus element marked symmetric, so a split factor's
    # x^-1 orbit is dropped; the element's matrix stays
    t = orig(torus, coords)
    return dataclasses.replace(t, pieces=tuple(dataclasses.replace(pc, symmetric=True) for pc in t.pieces))


def _rho_columns_shifted(orig, model, vs, zs):
    cols, phases = orig(model, vs, zs)
    return (cols + 1) % model.dim, phases


def _twisted_sign_dropped(orig, chains):
    # the direct path's Levi sign dropped: -1 on criterion 04's p = 3 pair,
    # +1 at p = 5
    return tuple(dataclasses.replace(chain, sign=1) for chain in orig(chains))


def _twisted_loop_dropped(orig, chains):
    # the twist closed by the identity in place of the loop (criterion 04's
    # p = 3 pair's loop is the identity)
    return tuple(dataclasses.replace(chain, iota=weil.block_cycle(chain.whole.space, sym.sp_identity(chain.loop.space)))
                 for chain in orig(chains))


def _off_sample_trace(orig, model, gs):
    # off by 0.5 on diag(2, 3), a semisimple element that a 40-pair random
    # sample at seed 0 never draws; gs is a stack that orig has checked to be
    # of the model's space, SpElems or matrices
    vals = orig(model, gs).tolist()
    on = model.space == sym.standard_polarized_space(5, 1)
    mats = gs if isinstance(gs, np.ndarray) else (g.mat for g in gs)
    return np.array([v + (0.5 if on and (m % 5 == ((2, 0), (0, 3))).all() else 0) for v, m in zip(vals, mats)],
                    dtype=complex)


def _hyperbolic_e_f(orig, space):
    # e and f swapped in the symplectic Gram-Schmidt, so B^T G B is minus the
    # standard Gram
    return np.roll(orig(space), space.dim // 2, axis=1)


FAULTS = {
    "sgn": _fault(ffield, "sgn_mult", lambda orig, *args, **kwargs: -orig(*args, **kwargs)),
    # (-1)^l dropped from the one Gerardin sign that tori, the twisted sign
    # blocks and the assembled product share; the fixed-space test stays
    "orbit-sign-parity": _fault(gerardin, "_moving_orbits", lambda orig, pieces: 0),
    # [B | gB] read off without asking whether gB stays in span(B)
    "restrict-map": _fault(gerardin, "_in_span", lambda orig, piv, k: True),
    # no vector of the big basis is recognised as lying in the span
    "complement-in": _fault(gerardin, "complement_in",
                            lambda orig, big, small, p: np.asarray(big, dtype=np.int64) % p),
    # the greedy V' returns after its first vector
    "one-step-vprime": _fault(gerardin, "maximal_invariant_isotropic", lambda orig, g: orig(g)[:1]),
    # a row swap leaves the determinant reduce_rows tracks unchanged
    "swap-sign": _fault(modp, "_exchange", lambda orig, rows, i, j: -orig(rows, i, j)),
    # no row fails divisibility, so U m V is diagonal by unimodular U and V
    # but d_i need not divide d_i+1
    "snf-fixup": _fault(lattice, "_divisibility_offender", lambda orig, d, s: None),
    "restrict-merge": _fault(lattice, "restrict_roots", _restrict_merged),
    "block-sign-negated": _fault(signcalc, "block_sign_formula", _block_sign_negated),
    # <v1,v2>/2 dropped from the law, which leaves H(V) abelian and still
    # associative
    "abelian-law": _fault(sym, "_cocycle", lambda orig, space, v1, v2: 0),
    "split-class": _fault(sym, "eigen_multiset", _split_class),
    "split-piece-symmetric": _fault(sym, "Torus.element", _pieces_symmetric),
    # each root once, whatever its multiplicity; a repeated eigenvalue (of
    # +-1, for one) then never fills the characteristic polynomial
    "poly-roots-distinct": _fault(ffield, "poly_roots", lambda orig, coeffs, desc, within=None: sorted(
        set(orig(coeffs, desc, within)), key=ffield.FieldElem.index)),
    # the <x,y>/2 term dropped from every rho phase; rho(a) rho(b) then
    # misses theta(<a,b>/2), and the traces (x = 0) do not move
    "rho-half-phase": _fault(weil, "_half_pairing", lambda orig, x, y, p: 0),
    "rho-columns": _fault(weil, "WeilModel.rho_parts", _rho_columns_shifted),
    # the word model's Levi sign forced to 1
    "levi-sign": _fault(weil, "WeilModel.normal_forms", lambda orig, model, gs: [
        (pos, dataclasses.replace(f, sgn=np.ones_like(f.sgn))) for pos, f in orig(model, gs)]),
    # the first two maps trade slots in the rotation, which changes its trace
    # for chains of three or more maps
    "rotation-wiring": _fault(weil, "_rotation_diagonal",
                              lambda orig, ms: orig([ms[1], ms[0]] + ms[2:] if len(ms) > 2 else ms)),
    "twisted-sign": _fault(weil, "block_twist", _twisted_sign_dropped),
    "twisted-loop": _fault(weil, "block_twist", _twisted_loop_dropped),
    "off-sample-trace": _fault(weil, "WeilModel.trace_stack", _off_sample_trace),
    # sgn(-2) -> sgn(2) = sgn(-1) sgn(-2) in the Fourier scalar: the partial
    # Fourier operator of rank r, and the trace evaluator with it, flip by
    # (-1)^r where (-1/p) = -1
    "fourier-scalar": _fault(weil, "_fourier_scalar", lambda orig, p, r: orig(p, r) * modp.legendre(-1, p) ** r),
    # the Fourier phase (t s)_S . (a2 s)_S dropped from the trace's Q
    "trace-cross-term": _fault(weil, "_cross_phase", lambda orig, f: 0),
    # the trace's support taken where t s = -a2 s off S
    "trace-support": _fault(weil, "_trace_support", lambda orig, f, p: (f.t + f.a2)[:, f.rank :] % p),
    "hyperbolic-e-f": _fault(sym, "hyperbolic_basis", _hyperbolic_e_f),
    # the Nr(b) = -1 case split inverted, in the halving step's recursion too
    "case-split": _fault(signcalc, "_inverse_closed", lambda orig, b, sub: not orig(b, sub)),
    # the form constraint's target negated: the generator draws its twists
    # against it and the scenario validation accepts them, but they do not
    # preserve the block's form
    "eta-target-negated": _fault(signcalc, "eta_target", lambda orig, root, C: -orig(root, C)),
    # Hilbert 90's fixed K0-line counted as one dimension over F_p, which
    # is wrong wherever [K0 : F_p] > 1
    "fixed-line-over-fp": _fault(ffield, "twisted_fixed_dim", lambda orig, eta, j: min(orig(eta, j), 1)),
}


def run_checks(filter_substr: str = "", fault: str = "") -> tuple[list[Row], float]:
    """Run the registry, or only the checks whose name contains
    `filter_substr`.  `fault` names a FAULTS entry to run under, a deliberate
    bug that some check must catch; an unknown name raises ValueError."""
    if fault and fault not in FAULTS:
        raise ValueError("unknown fault %r; known faults: %s" % (fault, ", ".join(FAULTS)))
    rows: list[Row] = []
    start = time.time()
    with FAULTS[fault]() if fault else contextlib.nullcontext():
        for name, fn in CHECKS:
            if filter_substr and filter_substr not in name:
                continue
            try:
                out = fn()
            except Exception as exc:  # a crash is a failure, not a silent skip
                out = [Row(name, "exception", repr(exc), "no exception", float("inf"), False)]
            for r in out:
                r.scenario_id = name
            rows.extend(out)
    return rows, time.time() - start
