"""Registry of the built-in invariant checks: one function per documented
invariant, shared between `weilchar selfcheck` and the pytest suite.

Each check returns a list of Row records; a check passes when every row does.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import ffield, gerardin, lattice, modp, signcalc, symplectic as sym, weil
from .signcalc import _perm_mul, _perm_pow

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


def check_snf_unimodular(seed: int = 0, trials: int = 120) -> list[Row]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        rows_n = rng.randint(1, 8)
        cols_n = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols_n)] for _ in range(rows_n)]
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
    return [Row.compare("lattice", "snf UMV=D, unimodular, divisibility (%d trials)" % trials, bad, 0, 0, seed=seed)]


def make_finite_order_matrix(rng: random.Random):
    """Random finite-order integer matrix: permutation/rotation blocks
    conjugated by a random unimodular matrix; order in {1,2,3,4,6}."""
    blocks = {
        1: [[1]],
        -1: [[-1]],
        3: [[0, -1], [1, -1]],
        4: [[0, -1], [1, 0]],
        6: [[1, -1], [1, 0]],
    }
    chosen = []
    size = 0
    while size < rng.randint(2, 6):
        key = rng.choice(list(blocks))
        b = blocks[key]
        if size + len(b) > 6:
            key = rng.choice([1, -1])
            b = blocks[key]
        chosen.append(b)
        size += len(b)
    n = size
    m = [[0] * n for _ in range(n)]
    off = 0
    for b in chosen:
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
    return m


def check_pi0_property(seed: int = 0, trials: int = 200) -> list[Row]:
    """Lemma: primes dividing the torsion of coker(1-theta) divide ord(theta)."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        m = make_finite_order_matrix(rng)
        order = lattice.matrix_order(m)
        for factor in lattice.pi0_torsion(m):
            ff_ = factor
            d = 2
            while d * d <= ff_:
                if ff_ % d == 0:
                    if order % d:
                        bad += 1
                    while ff_ % d == 0:
                        ff_ //= d
                d += 1
            if ff_ > 1 and order % ff_:
                bad += 1
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
    v1 = sym.standard_space(3, 1)
    els = list(sym.heis_elements(v1))
    bad = 0
    for a in els:
        for b in els:
            ab = sym.heis_mul(a, b)
            for c in els:
                if sym.heis_mul(ab, c) != sym.heis_mul(a, sym.heis_mul(b, c)):
                    bad += 1
    rows.append(Row.compare("symplectic", "heis associativity p=3 n=1 (exhaustive)", bad, 0, 0))
    center = [h for h in els if all(sym.heis_mul(h, x) == sym.heis_mul(x, h) for x in els)]
    rows.append(Row.compare("symplectic", "heis center p=3 n=1", len(center), 3, 0))
    # n = 2: associativity reduces to bilinearity of the z-cocycle; check the
    # cocycle identity vectorized over all triples
    v2 = sym.standard_space(3, 2)
    g = v2.gram_mat
    vecs = np.array(list(itertools.product(range(3), repeat=4)), dtype=np.int64)
    fv = vecs @ g % 3  # form pairing rows
    pair = fv @ vecs.T % 3  # <u, w> table
    n = len(vecs)
    # cocycle defect <a,b> + <a+b, c> - <b,c> - <a, b+c> over all triples
    s_idx = {tuple(v): i for i, v in enumerate(vecs)}
    sums = np.array([[s_idx[tuple((vecs[i] + vecs[j]) % 3)] for j in range(n)] for i in range(n)], dtype=np.int32)
    defect = 0
    for i in range(n):
        lhs = (pair[i, :, None] + pair[sums[i], :]) % 3
        rhs = (pair[:, :] + pair[i, sums]) % 3
        defect += int((lhs != rhs).sum())
    rows.append(Row.compare("symplectic", "heis cocycle p=3 n=2 (exhaustive triples)", defect, 0, 0))
    return rows


def check_torus_maximality() -> list[Row]:
    rows = []
    for p in (3, 5, 7):
        for factory in ((sym.SplitFactor(1),), (sym.NormOneFactor(1),)):
            torus = sym.build_torus(sym.TorusDesc(p, factory))
            mats = {t.elem.mat for t in torus.elements()}
            group = sym.sp_elements(torus.space)
            commuting = [
                g.mat
                for g in group
                if all(((g.mat_np @ np.array(m) - np.array(m) @ g.mat_np) % p == 0).all() for m in mats)
            ]
            label = "%s torus p=%d centralizer = torus" % (factory[0].__class__.__name__, p)
            # split torus at p=3 is the central {+-1}: its centralizer is the
            # whole group (frozen honest value; the algebraic torus is still
            # maximal but its rational points are too small to pin it)
            expected = 24 if (p == 3 and isinstance(factory[0], sym.SplitFactor)) else len(mats)
            rows.append(Row.compare("symplectic", label, len(commuting), expected, 0))
    return rows


def check_eigen_conjugacy(ps=(3, 5, 7)) -> list[Row]:
    """Equal eigen multisets iff an Sp-conjugacy witness exists (exhaustive)."""
    rows = []
    for p in ps:
        space = sym.standard_polarized_space(p, 1)
        els = [g for g in sym.sp_elements(space) if g.is_semisimple()]
        keys = {g.mat: sym.eigen_multiset_key(sym.eigen_multiset(g)) for g in els}
        bad = 0
        rng = random.Random(p)
        sample = els if p == 3 else rng.sample(els, 40)
        for g in sample:
            for t in sample:
                witness = sym.conjugate_in_sp(g, t)
                same = keys[g.mat] == keys[t.mat]
                if same != (witness is not None):
                    bad += 1
                if witness is not None and (witness * t * witness.inverse()).mat != g.mat:
                    bad += 1
        rows.append(Row.compare("symplectic", "eigen<->conjugacy p=%d (%d elements)" % (p, len(sample)), bad, 0, 0))
    return rows


def check_torus_weights_vs_eigen() -> list[Row]:
    rows = []
    for p, factories in ((3, (sym.NormOneFactor(1), sym.SplitFactor(1))), (5, (sym.NormOneFactor(1),))):
        torus = sym.build_torus(sym.TorusDesc(p, factories))
        bad = sum(0 if sym.weight_charpoly_check(t) else 1 for t in torus.elements())
        rows.append(Row.compare("symplectic", "weights match eigenvalues p=%d" % p, bad, 0, 0))
    return rows


# ---------------------------------------------------------------------------
# weil


def check_stone_von_neumann(seed: int = 0) -> list[Row]:
    """Any two models with the same central character are intertwined, and two
    Schur intertwiners are proportional."""
    rows = []
    for p, n in ((3, 1), (5, 1), (3, 2)):
        space = sym.standard_polarized_space(p, n)
        m1 = weil.WeilModel(space)
        # a different polarization: rotate by some group element
        g = sym.sp_generators(space)[0]
        xs = [g.apply(v) for v in np.eye(2 * n, dtype=np.int64)[:n]]
        ys = [g.apply(v) for v in np.eye(2 * n, dtype=np.int64)[n:]]
        m2 = weil.WeilModel(space, (xs, ys))
        t1 = weil.schur_intertwiner(m1, m2, sym.sp_identity(space), seed=seed)
        t2 = weil.schur_intertwiner(m1, m2, sym.sp_identity(space), seed=seed + 101)
        ratio = t2 @ np.linalg.inv(t1)
        off = np.abs(ratio - ratio[0, 0] * np.eye(ratio.shape[0])).max()
        rows.append(Row.compare("weil", "SvN proportional intertwiners p=%d n=%d" % (p, n), off, 0, 1e-8, seed=seed))
    return rows


def check_rho_homomorphism(seed: int = 0) -> list[Row]:
    rows = []
    for p, n in ((3, 1), (5, 1)):
        space = sym.standard_polarized_space(p, n)
        model = weil.WeilModel(space)
        els = list(sym.heis_elements(space))
        worst = 0.0
        for a in els:
            for b in els:
                worst = max(worst, float(np.abs(model.rho(a) @ model.rho(b) - model.rho(sym.heis_mul(a, b))).max()))
        rows.append(Row.compare("weil", "rho homomorphism p=%d exhaustive" % p, worst, 0, 1e-10))
        # irreducibility: sum |tr rho(h)|^2 = |H|
        total = sum(abs(np.trace(model.rho(h))) ** 2 for h in els)
        rows.append(Row.compare("weil", "rho irreducible p=%d (char norm)" % p, total, len(els), 1e-6))
    return rows


def check_omega_multiplicative(ps=(3, 5, 7)) -> list[Row]:
    """omega(g1) omega(g2) = omega(g1 g2) for all pairs, both constructions."""
    rows = []
    for p in ps:
        space = sym.standard_polarized_space(p, 1)
        model = weil.WeilModel(space)
        model.build_group_model()
        els = sym.sp_elements(space)
        ops = np.stack([model.omega_group(g) for g in els])
        index = {g.mat: i for i, g in enumerate(els)}
        prod_idx = np.array([[index[(g * h).mat] for h in els] for g in els], dtype=np.int32)
        worst = 0.0
        for i, g in enumerate(els):
            lhs = ops[i] @ ops  # (N, d, d)
            rhs = ops[prod_idx[i]]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        rows.append(Row.compare("weil", "omega multiplicative p=%d (all pairs)" % p, worst, 0, 1e-8))
        words = [model.omega_word(g) for g in els]
        word_worst = max(float(np.abs(words[i] - ops[i]).max()) for i in range(len(els)))
        rows.append(Row.compare("weil", "word model = group model p=%d" % p, word_worst, 0, 1e-8))
        trace_worst = max(abs(model.trace_word(g) - np.trace(words[i])) for i, g in enumerate(els))
        rows.append(Row.compare("weil", "word trace = trace of word model p=%d" % p, trace_worst, 0, 1e-10))
    return rows


def check_omega_values_algebraic(ps=(3, 5, 7)) -> list[Row]:
    """Character values snap to Z + Z sqrt(+-p)."""
    rows = []
    for p in ps:
        space = sym.standard_polarized_space(p, 1)
        model = weil.WeilModel(space)
        model.build_group_model()
        root = math.sqrt(p)
        worst = 0.0
        for g in sym.sp_elements(space):
            v = model.trace_omega(g)
            # try v = a + b sqrt(p) or a + b i sqrt(p) with a, b in (1/2)Z
            best = min(
                abs(v - (round(v.real * 2) / 2 + (round(v.imag * 2 / root) / 2) * root * 1j)),
                abs((v.real - round(v.real * 2 / root) / 2 * root)) + abs(v.imag),
            )
            worst = max(worst, best)
        rows.append(Row.compare("weil", "character values algebraic p=%d" % p, worst, 0, 1e-6))
    return rows


def check_cyclic_tensor_trace(seed: int = 0, trials: int = 500) -> list[Row]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        l = int(rng.integers(0, 5))
        dim = int(rng.integers(1, 5))
        maps = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(l + 1)]
        big, comp = weil.cyclic_tensor_trace(maps)
        scale = max(1.0, abs(comp))
        worst = max(worst, abs(big - comp) / scale)
    return [Row.compare("weil", "cyclic tensor trace (%d chains)" % trials, worst, 0, 1e-9, seed=seed)]


def _two_swapped_blocks(p: int):
    v2 = sym.standard_polarized_space(p, 1)
    vsum = sym.direct_sum([v2, v2])
    swap = np.zeros((4, 4), dtype=np.int64)
    swap[:2, 2:] = np.eye(2, dtype=np.int64)
    swap[2:, :2] = np.eye(2, dtype=np.int64)
    return vsum, sym.sp_elem(vsum, swap)


def check_twisted_trace_decomposition(seed: int = 0) -> list[Row]:
    """Product formula equals the direct tensor trace on the fixtures."""
    rows = []
    # p = 3: two swapped blocks, every block-preserving pair
    vsum, iota = _two_swapped_blocks(3)
    bt = weil.block_twist(vsum, [(0, 1)], iota, seed=seed)
    els = sym.sp_elements(sym.standard_polarized_space(3, 1))
    worst = 0.0
    for g1 in els:
        for g2 in els:
            big = np.zeros((4, 4), dtype=np.int64)
            big[:2, :2] = g1.mat_np
            big[2:, 2:] = g2.mat_np
            r = weil.twisted_trace(bt, sym.sp_elem(vsum, big))
            worst = max(worst, abs(r.product_value - r.direct_value))
    rows.append(Row.compare("weil", "twisted trace p=3 two swapped blocks (all pairs)", worst, 0, 1e-8, seed=seed))

    # p = 5: one fixed plus two swapped blocks; torus elements and a sample
    v2 = sym.standard_polarized_space(5, 1)
    vsum3 = sym.direct_sum([v2, v2, v2])
    imat = np.zeros((6, 6), dtype=np.int64)
    imat[:2, :2] = np.eye(2, dtype=np.int64)
    imat[2:4, 4:] = np.eye(2, dtype=np.int64)
    imat[4:, 2:4] = np.eye(2, dtype=np.int64)
    iota3 = sym.sp_elem(vsum3, imat)
    bt3 = weil.block_twist(vsum3, [(0,), (1, 2)], iota3, seed=seed)
    torus = [sym.sp_elem(v2, [[a, 0], [0, pow(a, 3, 5)]]) for a in (1, 2, 3, 4)]
    rng = random.Random(seed)
    els5 = sym.sp_elements(v2)
    pool = torus + rng.sample(els5, 4)
    worst3 = 0.0
    for g0 in pool:
        for g1 in pool[:5]:
            for g2 in pool[:5]:
                big = np.zeros((6, 6), dtype=np.int64)
                big[:2, :2] = g0.mat_np
                big[2:4, 2:4] = g1.mat_np
                big[4:, 4:] = g2.mat_np
                r = weil.twisted_trace(bt3, sym.sp_elem(vsum3, big))
                worst3 = max(worst3, abs(r.product_value - r.direct_value))
    rows.append(Row.compare("weil", "twisted trace p=5 fixed + swapped pair", worst3, 0, 1e-8, seed=seed))
    return rows


def check_intertwiner_normalization(seed: int = 0) -> list[Row]:
    """Composite equals the block Weil operator on every fixture; scalar
    redistribution leaves every reported trace unchanged."""
    rows = []
    vsum, iota = _two_swapped_blocks(3)
    bt = weil.block_twist(vsum, [(0, 1)], iota, seed=seed)
    b0 = vsum.blocks[0]
    model0 = bt.models[0]
    ipow = modp.mat_pow(iota.mat_np, 2, 3)
    loop = sym.sp_elem(model0.space, ipow[np.ix_(b0, b0)] % 3)
    target = model0.omega(loop)
    err = float(np.abs(bt.composite(0) - target).max())
    rows.append(Row.compare("weil", "composite = omega(iota^2|block)", err, 0, 1e-9, seed=seed))

    # p = 5 fixture (one fixed block plus a swapped pair): every group
    v2 = sym.standard_polarized_space(5, 1)
    vsum3 = sym.direct_sum([v2, v2, v2])
    imat = np.zeros((6, 6), dtype=np.int64)
    imat[:2, :2] = np.eye(2, dtype=np.int64)
    imat[2:4, 4:] = np.eye(2, dtype=np.int64)
    imat[4:, 2:4] = np.eye(2, dtype=np.int64)
    bt3 = weil.block_twist(vsum3, [(0,), (1, 2)], sym.sp_elem(vsum3, imat), seed=seed)
    for i, grp in enumerate(bt3.groups):
        b0i = vsum3.blocks[grp[0]]
        mi = bt3.models[grp[0]]
        ip = modp.mat_pow(imat, len(grp), 5)
        loop_i = sym.sp_elem(mi.space, ip[np.ix_(b0i, b0i)] % 5)
        err_i = float(np.abs(bt3.composite(i) - mi.omega(loop_i)).max())
        rows.append(Row.compare("weil", "composite group %d p=5 fixture" % i, err_i, 0, 1e-9, seed=seed))

    g = sym.sp_identity(vsum)
    before = weil.twisted_trace(bt, g)
    import cmath

    bt.redistribute(0, [cmath.exp(0.4j), cmath.exp(-0.4j)])
    after = weil.twisted_trace(bt, g)
    rows.append(
        Row.compare("weil", "trace invariant under scalar redistribution", after.product_value, before.product_value, 1e-9, seed=seed)
    )
    err2 = float(np.abs(bt.composite(0) - target).max())
    rows.append(Row.compare("weil", "composite invariant under redistribution", err2, 0, 1e-9, seed=seed))
    return rows


def check_character_conjugacy_invariance(seed: int = 0) -> list[Row]:
    """Weil character constant on conjugacy classes, via explicit witnesses."""
    p = 5
    space = sym.standard_polarized_space(p, 1)
    model = weil.WeilModel(space)
    model.build_group_model()
    els = [g for g in sym.sp_elements(space) if g.is_semisimple()]
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(40):
        g, t = rng.choice(els), rng.choice(els)
        w = sym.conjugate_in_sp(g, t)
        if w is not None:
            worst = max(worst, abs(model.trace_omega(g) - model.trace_omega(t)))
    return [Row.compare("weil", "character conjugacy invariance p=5", worst, 0, 1e-8, seed=seed)]


# ---------------------------------------------------------------------------
# gerardin


def _tori_for(p: int):
    yield sym.build_torus(sym.TorusDesc(p, (sym.SplitFactor(1),)))
    yield sym.build_torus(sym.TorusDesc(p, (sym.NormOneFactor(1),)))


def check_gerardin_semisimple(ps=(3, 5, 7), include_sp4=True) -> list[Row]:
    rows = []
    for p in ps:
        for torus in _tori_for(p):
            model = weil.WeilModel(torus.space)
            wd = sym.weights(torus)
            worst = 0.0
            for t in torus.elements():
                worst = max(worst, abs(gerardin.char_semisimple(t, wd) - model.trace_omega(t.elem)))
            name = torus.desc.factors[0].__class__.__name__
            rows.append(Row.compare("gerardin", "semisimple Sp_2(F_%d) %s" % (p, name), worst, 0, 1e-8))
    if include_sp4:
        for f1 in (sym.NormOneFactor(1), sym.SplitFactor(1)):
            for f2 in (sym.NormOneFactor(1), sym.SplitFactor(1)):
                torus = sym.build_torus(sym.TorusDesc(3, (f1, f2)))
                model = weil.WeilModel(torus.space)
                wd = sym.weights(torus)
                worst = max(abs(gerardin.char_semisimple(t, wd) - model.trace_omega(t.elem)) for t in torus.elements())
                label = "semisimple Sp_4(F_3) %s+%s" % (f1.__class__.__name__[:5], f2.__class__.__name__[:5])
                rows.append(Row.compare("gerardin", label, worst, 0, 1e-8))
        # beyond the required block tori: the irreducible degree-2 factors
        for factory in (sym.NormOneFactor(2), sym.SplitFactor(2)):
            torus = sym.build_torus(sym.TorusDesc(3, (factory,)))
            model = weil.WeilModel(torus.space)
            wd = sym.weights(torus)
            worst = max(abs(gerardin.char_semisimple(t, wd) - model.trace_omega(t.elem)) for t in torus.elements())
            rows.append(Row.compare("gerardin", "semisimple Sp_4(F_3) %s deg 2" % factory.__class__.__name__[:5], worst, 0, 1e-8))
    return rows


def check_polarized_formula(ps=(3, 5, 7)) -> list[Row]:
    """Exhaustive over polarization-preserving semisimple g; exact after snap."""
    rows = []
    for p in ps:
        space = sym.standard_polarized_space(p, 1)
        model = weil.WeilModel(space)
        model.build_group_model()
        bad = 0
        count = 0
        for g in sym.sp_elements(space):
            if not g.is_semisimple():
                continue
            for pol in gerardin.invariant_polarizations(g):
                val = gerardin.char_polarized(g, pol)
                oracle = model.trace_omega(g)
                count += 1
                if abs(val - complex(round(oracle.real), round(oracle.imag))) > 1e-9 or abs(oracle - round(oracle.real)) > 1e-6:
                    bad += 1
        rows.append(Row.compare("gerardin", "polarized Sp_2(F_%d) (%d pairs, snapped)" % (p, count), bad, 0, 0))
    # diagonal-block g in Sp_4(F_3): per-block polarizations combine to a
    # g-invariant polarization of the sum; oracle is the tensor product
    p = 3
    v2 = sym.standard_polarized_space(p, 1)
    vsum = sym.direct_sum([v2, v2])
    m2 = weil.WeilModel(v2)
    m2.build_group_model()
    ss = [g for g in sym.sp_elements(v2) if g.is_semisimple()]
    bad = 0
    count = 0
    for g1 in ss:
        pols1 = list(gerardin.invariant_polarizations(g1))
        if not pols1:
            continue
        for g2 in ss[:4]:
            pols2 = list(gerardin.invariant_polarizations(g2))
            if not pols2:
                continue
            big = np.zeros((4, 4), dtype=np.int64)
            big[:2, :2] = g1.mat_np
            big[2:, 2:] = g2.mat_np
            gbig = sym.sp_elem(vsum, big)
            oracle = np.trace(m2.omega(g1)) * np.trace(m2.omega(g2))
            for (vp1, vm1), (vp2, vm2) in itertools.product(pols1[:2], pols2[:2]):
                vplus = [tuple(v) + (0, 0) for v in vp1] + [(0, 0) + tuple(v) for v in vp2]
                vminus = [tuple(v) + (0, 0) for v in vm1] + [(0, 0) + tuple(v) for v in vm2]
                val = gerardin.char_polarized(gbig, (vplus, vminus))
                count += 1
                if abs(val - complex(round(oracle.real), round(oracle.imag))) > 1e-9:
                    bad += 1
    rows.append(Row.compare("gerardin", "polarized Sp_4(F_3) diagonal blocks (%d)" % count, bad, 0, 0))
    return rows


def check_polarized_agrees_with_semisimple() -> list[Row]:
    rows = []
    for p in (3, 5, 7):
        torus = sym.build_torus(sym.TorusDesc(p, (sym.SplitFactor(1),)))
        wd = sym.weights(torus)
        worst = 0.0
        count = 0
        for t in torus.elements():
            for pol in gerardin.invariant_polarizations(t.elem):
                worst = max(worst, abs(gerardin.char_semisimple(t, wd) - gerardin.char_polarized(t.elem, pol)))
                count += 1
        rows.append(Row.compare("gerardin", "polarized = semisimple p=%d (%d pairs)" % (p, count), worst, 0, 1e-9))
    return rows


def check_no_fixed_point_choice_independence() -> list[Row]:
    """The fixed-point-free formula does not depend on the choice of V'."""
    rows = []
    p = 5
    space = sym.standard_polarized_space(p, 1)
    model = weil.WeilModel(space)
    model.build_group_model()
    checked = 0
    bad = 0
    for g in sym.sp_elements(space):
        if not g.is_semisimple() or g.fixed_space_dim():
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
            bad += 1
        elif abs(vals.pop() - model.trace_omega(g)) > 1e-8:
            bad += 1
        checked += 1
    rows.append(Row.compare("gerardin", "V' choice independence p=5 (%d elements)" % checked, bad, 0, 0))
    return rows


def check_fixed_line_formula() -> list[Row]:
    """Recursive evaluation matches the oracle on all semisimple elements."""
    rows = []
    for p in (3, 5):
        space = sym.standard_polarized_space(p, 1)
        model = weil.WeilModel(space)
        model.build_group_model()
        worst = 0.0
        for g in sym.sp_elements(space):
            if g.is_semisimple():
                worst = max(worst, abs(gerardin.weil_char(g) - model.trace_omega(g)))
        rows.append(Row.compare("gerardin", "recursive char Sp_2(F_%d)" % p, worst, 0, 1e-8))
    # Sp_4(F_3) fixed-line cases (Jordan-free fixed lines) with tensor oracle
    p = 3
    v2 = sym.standard_polarized_space(p, 1)
    vsum = sym.direct_sum([v2, v2])
    m2 = weil.WeilModel(v2)
    m2.build_group_model()
    count = 0
    worst = 0.0
    for g1 in sym.sp_elements(v2):
        if not g1.is_semisimple() or g1.fixed_space_dim():
            continue
        big = np.zeros((4, 4), dtype=np.int64)
        big[:2, :2] = g1.mat_np
        big[2:, 2:] = np.eye(2, dtype=np.int64)
        gbig = sym.sp_elem(vsum, big)
        oracle = np.trace(m2.omega(g1)) * np.trace(m2.omega(sym.sp_identity(v2)))
        worst = max(worst, abs(gerardin.weil_char(gbig) - complex(oracle)))
        count += 1
    rows.append(Row.compare("gerardin", "fixed line Sp_4(F_3) (%d cases)" % count, worst, 0, 1e-8))
    return rows


# ---------------------------------------------------------------------------
# signcalc


def make_asym_asym_action() -> signcalc.OrbitAction:
    return signcalc.OrbitAction(2, (0, 1), (1, 0), (0, 1))


def make_sym_ur_action() -> signcalc.OrbitAction:
    return signcalc.OrbitAction(2, (1, 0), (1, 0), (0, 1))


def make_asym_symur_action() -> signcalc.OrbitAction:
    # roots 0:a 1:ga 2:-a 3:-ga; frobenius 0<->1 2<->3; theta 0<->3 1<->2
    return signcalc.OrbitAction(4, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def make_asym_symram_action() -> signcalc.OrbitAction:
    return signcalc.OrbitAction(2, (0, 1), (1, 0), (1, 0))


def make_symram_action() -> signcalc.OrbitAction:
    return signcalc.OrbitAction(2, (1, 0), (1, 0), (1, 0))


def _eta_pool(group: list, cap: int = 80, seed: int = 11):
    if len(group) <= cap:
        return list(group)
    rng = random.Random(seed)
    idx = sorted(rng.sample(range(len(group)), cap))
    return [group[i] for i in idx]


def sign_branch_scenarios(p: int, max_degree: int = 2, eta_cap: int = 80, c_variants: int = 1):
    """Generator of (label, scenario) pairs across all five classification
    branches, k_alpha degrees up to max_degree, f up to 3 where reachable."""
    f1 = ffield.field(p, 1)
    k2 = ffield.field(p, 2)

    def c_pool(k, anti_exp=None):
        if anti_exp is None:
            pool = [k.one(), k.gen()] if k.degree > 1 else [k.one(), k.from_int(2)]
        else:
            pool = [x for x in k.units() if x.frobenius(anti_exp) == -x]
        return pool[: max(1, c_variants)]

    # asym/asym, f = 1, k_alpha degree d
    for d in range(1, max_degree + 1):
        k = ffield.field(p, d)
        act = _free_asym_action(d)
        for c in c_pool(k):
            for eta in _eta_pool(list(k.units()), cap=eta_cap):
                yield "asym/asym p=%d d=%d f=1" % (p, d), signcalc.OrbitScenario(
                    act, 0, k, k, k, k, c, eta, eta.inverse(), "asym/asym"
                )
    # asym/asym, f = 2: varsigma is a genuine Frobenius power, exercising the
    # sgn(-1)^{g(f-1)} factor
    for d, shift in [(2, 1)] + ([(4, 2)] if max_degree >= 4 else []):
        k = ffield.field(p, d)
        act = _free_asym_action_twisted(d, shift)
        f = d // math.gcd(shift, d)
        kres = ffield.field(p, d // f)
        vexp = (-act.sigma_exponent(0)) % d
        for c in c_pool(k):
            for eta in _eta_pool(list(k.units()), cap=eta_cap):
                eta_minus = (c.frobenius(vexp) / c) / eta
                yield "asym/asym p=%d d=%d f=%d" % (p, d, f), signcalc.OrbitScenario(
                    act, 0, k, k, kres, kres, c, eta, eta_minus, "asym/asym"
                )
    # asym/sym-ur, f = 1 (k_alpha quadratic)
    act = make_asym_symur_action()
    for c in c_pool(k2):
        for eta in _eta_pool(list(k2.units()), cap=eta_cap):
            eta_minus = -(c.frobenius(1) / c) / eta
            yield "asym/sym-ur p=%d f=1" % p, signcalc.OrbitScenario(
                act, 0, k2, k2, k2, f1, c, eta, eta_minus, "asym/sym-ur"
            )
    # asym/sym-ur, f = 2 (k_alpha of degree 4)
    if max_degree >= 4:
        k4 = ffield.field(p, 4)
        act = _neg_frob_action(4)
        vexp = (-act.sigma_exponent(0)) % 4
        for c in c_pool(k4):
            for eta in _eta_pool(list(k4.units()), cap=eta_cap):
                eta_minus = -(c.frobenius(vexp) / c) / eta
                yield "asym/sym-ur p=%d f=2" % p, signcalc.OrbitScenario(
                    act, 0, k4, k4, k2, f1, c, eta, eta_minus, "asym/sym-ur"
                )
    # sym-ur/sym-ur, f = 1, [k_pm_res : F_p] = g
    for g in (1,) + ((2,) if max_degree >= 4 else ()):
        k = ffield.field(p, 2 * g)
        sub = ffield.field(p, g)
        act = _sym_action(2 * g)
        for c in c_pool(k, anti_exp=g):
            for eta in _eta_pool(ffield.norm_one_group(k, sub), cap=eta_cap):
                yield "sym-ur/sym-ur p=%d g=%d" % (p, g), signcalc.OrbitScenario(
                    act, 0, k, sub, k, sub, c, eta, None, "sym-ur/sym-ur"
                )
    # asym/sym-ram, f = 1, k_alpha degree d
    for d in (1,) + ((2,) if max_degree >= 2 else ()):
        k = ffield.field(p, d)
        base = _free_asym_action(d)
        act = signcalc.OrbitAction(2 * d, base.frobenius, base.neg, base.neg)
        for c in c_pool(k):
            for eta in _eta_pool(list(k.units()), cap=eta_cap):
                yield "asym/sym-ram p=%d d=%d f=1" % (p, d), signcalc.OrbitScenario(
                    act, 0, k, k, k, k, c, eta, -eta.inverse(), "asym/sym-ram"
                )
    # asym/sym-ram, f = 3 (theta of order 6, so p must not divide 6)
    if max_degree >= 3 and p % 3 != 0:
        k3 = ffield.field(p, 3)
        act = _neg_frob_action(3)
        vexp = (-act.sigma_exponent(0)) % 3
        for c in c_pool(k3):
            for eta in _eta_pool(list(k3.units()), cap=eta_cap):
                eta_minus = -(c.frobenius(vexp) / c) / eta
                yield "asym/sym-ram p=%d f=3" % p, signcalc.OrbitScenario(
                    act, 0, k3, k3, f1, f1, c, eta, eta_minus, "asym/sym-ram"
                )
    # sym-ur/sym-ram, f = 2, k_alpha degree 2g
    for g in (1,) + ((2,) if max_degree >= 4 else ()):
        k = ffield.field(p, 2 * g)
        sub = ffield.field(p, g)
        act = _sym_ram_action(2 * g)
        admissible = [x for x in k.units() if x * x.frobenius(g) == -k.one()]
        for c in c_pool(k, anti_exp=g):
            for eta in _eta_pool(admissible, cap=eta_cap):
                yield "sym-ur/sym-ram p=%d g=%d" % (p, g), signcalc.OrbitScenario(
                    act, 0, k, sub, sub, sub, c, eta, None, "sym-ur/sym-ram"
                )


def _free_asym_action(d: int) -> signcalc.OrbitAction:
    """Gamma = Z/d acting freely on {gamma^i alpha} and its negatives; theta id."""
    n = 2 * d
    frob = tuple(list(range(1, d)) + [0] + list(range(d + 1, 2 * d)) + [d])
    neg = tuple(list(range(d, 2 * d)) + list(range(d)))
    theta = tuple(range(n))
    return signcalc.OrbitAction(n, frob, neg, theta)


def _free_asym_action_twisted(d: int, shift: int) -> signcalc.OrbitAction:
    """As above but theta(alpha) = gamma^shift(alpha): asym/asym with
    f = d / gcd(shift, d) > 1 when shift does not generate the stabilizer."""
    base = _free_asym_action(d)
    frob = base.frobenius
    theta = _perm_pow(frob, shift)
    return signcalc.OrbitAction(2 * d, frob, base.neg, theta)


def _sym_action(d: int) -> signcalc.OrbitAction:
    """Gamma = Z/d cyclic on one symmetric orbit: gamma^(d/2) = negation."""
    assert d % 2 == 0
    frob = tuple((i + 1) % d for i in range(d))
    neg = tuple((i + d // 2) % d for i in range(d))
    theta = tuple(range(d))
    return signcalc.OrbitAction(d, frob, neg, theta)


def _sym_ram_action(d: int) -> signcalc.OrbitAction:
    """Symmetric orbit of size d (gamma^(d/2) = neg) with theta = neg:
    sym-ur alpha whose restricted root is ramified (f = 2)."""
    base = _sym_action(d)
    return signcalc.OrbitAction(d, base.frobenius, base.neg, base.neg)


def _neg_frob_action(d: int) -> signcalc.OrbitAction:
    """Gamma = Z/d free, theta(alpha) = -gamma(alpha): asymmetric alpha with a
    symmetric restricted root, unramified with f = 2 for d = 4 and ramified
    with f = 3 for d = 3 (theta of order 6 there, so p != 3)."""
    base = _free_asym_action(d)
    return signcalc.OrbitAction(2 * d, base.frobenius, base.neg, _perm_mul(base.neg, base.frobenius))


@dataclass
class FamilyStats:
    """One sign-sweep family: blocks seen, worst |formula - oracle|, signs."""

    count: int = 0
    worst: float = 0.0
    signs: set[int] = dc_field(default_factory=set)


def sign_sweep(ps, max_degree: int = 2, eta_cap: int = 80, c_variants: int = 1) -> dict[str, FamilyStats]:
    """Closed-form block value against the brute-force Weil trace of the same
    built block, for every scenario of sign_branch_scenarios over ps."""
    stats: dict[str, FamilyStats] = {}
    for p in ps:
        for label, sc in sign_branch_scenarios(p, max_degree, eta_cap, c_variants):
            bv = signcalc.block_sign_formula(sc)
            oracle = weil.WeilModel(bv.block.space).trace_omega(bv.block.op)
            st = stats.setdefault(label, FamilyStats())
            st.count += 1
            st.worst = max(st.worst, abs(bv.value - oracle))
            st.signs.add(bv.sign)
    return stats


def check_sign_formula_vs_oracle(ps=(3,), max_degree: int = 2) -> list[Row]:
    """The central sign-formula test: closed form times fixed factor equals
    the brute-force Weil trace of the built block."""
    stats = sign_sweep(ps, max_degree)
    return [
        Row.compare("signcalc", "%s (%d etas)" % (label, st.count), st.worst, 0, 1e-8)
        for label, st in sorted(stats.items())
    ]


def check_ram_empty() -> list[Row]:
    """No tau-antiinvariant C exists on a symmetric ramified root: the
    constructor rejects every attempted C."""
    # symmetric alpha with trivial residue tau: Gamma of order 2 acting with
    # k_alpha = F_p (total ramification): every C fails
    act = make_sym_ur_action()
    f1 = ffield.field(3, 1)
    bad = 0
    for c in f1.units():
        try:
            signcalc.OrbitScenario(act, 0, f1, f1, f1, f1, c, f1.one(), None, "sym-ur/sym-ur")
            bad += 1
        except (signcalc.SignCalcError, ffield.FieldError):
            pass
    return [Row.compare("signcalc", "ram-empty rejects all C (3 tried)", bad, 0, 0)]


def check_eta_constraint_both_directions() -> list[Row]:
    """Constructed twists satisfy the Sp invariant iff the eta constraint holds."""
    p = 3
    k = ffield.field(p, 2)
    f1 = ffield.field(p, 1)
    act = make_asym_symur_action()
    c = k.one()
    good = bad_accepted = bad_rejected = 0
    for eta in k.units():
        for eta_minus in k.units():
            want = -(c.frobenius(1) / c)
            legal = eta * eta_minus == want
            try:
                signcalc.OrbitScenario(act, 0, k, k, k, f1, c, eta, eta_minus, "asym/sym-ur")
                if legal:
                    good += 1
                else:
                    bad_accepted += 1
            except signcalc.FormDegenerate:
                if legal:
                    bad_rejected += 1
    rows = [Row.compare("signcalc", "eta constraint acceptance (%d legal)" % good, bad_accepted + bad_rejected, 0, 0)]
    return rows


def check_ramified_eta_independence() -> list[Row]:
    """Block traces agree across all admissible eta in ramified branches."""
    rows = []
    p = 3
    f1 = ffield.field(p, 1)
    k2 = ffield.field(p, 2)
    c2 = sym.anti_invariant_unit(k2, 1)
    vals = set()
    for eta in f1.units():
        sc = signcalc.OrbitScenario(
            make_asym_symram_action(), 0, f1, f1, f1, f1, f1.one(), eta, -eta.inverse(), "asym/sym-ram"
        )
        bb = signcalc.build_block(sc)
        vals.add(round(weil.WeilModel(bb.space).trace_omega(bb.op).real, 6))
    rows.append(Row.compare("signcalc", "asym/sym-ram eta independence", len(vals), 1, 0))
    vals2 = set()
    for eta in k2.units():
        if ffield.norm_to(eta, f1) == -1:
            sc = signcalc.OrbitScenario(make_symram_action(), 0, k2, f1, f1, f1, c2, eta, None, "sym-ur/sym-ram")
            bb = signcalc.build_block(sc)
            vals2.add(round(weil.WeilModel(bb.space).trace_omega(bb.op).real, 6))
    rows.append(Row.compare("signcalc", "sym-ur/sym-ram eta independence", len(vals2), 1, 0))
    # the ramified norm identity Nr(eta) = -1 is forced
    forced = all(
        ffield.norm_to(eta, f1) == -1
        or not _scenario_ok(make_symram_action(), k2, f1, c2, eta)
        for eta in k2.units()
    )
    rows.append(Row.compare("signcalc", "sym-ram forces Nr(eta) = -1", forced, True, 0))
    return rows


def _scenario_ok(act, k2, f1, c2, eta) -> bool:
    try:
        signcalc.OrbitScenario(act, 0, k2, f1, f1, f1, c2, eta, None, "sym-ur/sym-ram")
        return True
    except signcalc.SignCalcError:
        return False


def check_asym_symur_norm_minus_one_fixed_space() -> list[Row]:
    """In the asym/sym-ur branch with Nr(beta) = -1 the fixed space is zero."""
    p = 3
    k = ffield.field(p, 2)
    f1 = ffield.field(p, 1)
    act = make_asym_symur_action()
    c = k.one()
    bad = 0
    seen = 0
    for eta in k.units():
        eta_minus = -(c.frobenius(1) / c) / eta
        sc = signcalc.OrbitScenario(act, 0, k, k, k, f1, c, eta, eta_minus, "asym/sym-ur")
        gamma = sc.varsigma(sc.eta_minus_alpha * sc.C) / (sc.eta_minus_alpha * sc.C)
        delta = ffield.norm_to(-gamma, sc.k_res)
        beta = ffield.nth_roots(delta, 2)[0]
        if ffield.norm_to(beta, f1) == -1:
            seen += 1
            if signcalc.build_block(sc).op.fixed_space_dim() != 0:
                bad += 1
    return [Row.compare("signcalc", "Nr(beta)=-1 => trivial fixed space (%d cases)" % seen, bad, 0, 0)]


def check_assemble_dual_path(seed: int = 0) -> list[Row]:
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
    worst = 0.0
    eps_vals = {}
    for v0 in f1.units():
        for v2 in no:
            svals = {0: v0, 2: v2}
            asm = signcalc.assemble_product(act, scen, svals)  # asserts dual-path internally
            res = signcalc.full_space_oracle(act, scen, svals, seed=seed)
            worst = max(worst, abs(asm.value - res.product_value), abs(res.product_value - res.direct_value))
            eps_vals[(v0.index(), v2.index())] = asm.eps_tilde
    rows.append(Row.compare("signcalc", "assemble dual path + oracle (8 s-values)", worst, 0, 1e-8, seed=seed))
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
    res = signcalc.full_space_oracle(act, scen, {0: f1.from_int(2), 2: no[2]}, seed=seed)
    rows.append(Row.compare("signcalc", "theta_rho = oracle * vartheta", th, res.product_value, 1e-8, seed=seed))
    return rows


def check_f1_closed_forms() -> list[Row]:
    """The general torus-algorithm engine reduces to the displayed f=1 forms."""
    rows = []
    p = 3
    f1 = ffield.field(p, 1)
    k2 = ffield.field(p, 2)
    act = make_asym_symur_action()
    c = k2.one()
    bad = 0
    for eta in k2.units():
        eta_minus = -(c.frobenius(1) / c) / eta
        sc = signcalc.OrbitScenario(act, 0, k2, k2, k2, f1, c, eta, eta_minus, "asym/sym-ur")
        bv = signcalc.block_sign_formula(sc)
        n_alpha = bv.n_alpha
        closed = (-1) ** n_alpha * ffield.sgn_mult(eta_minus * c) * bv.fixed_factor
        if abs(closed - bv.value) > 1e-9:
            bad += 1
    rows.append(Row.compare("signcalc", "f=1 asym/sym-ur closed form", bad, 0, 0))
    c2 = sym.anti_invariant_unit(k2, 1)
    bad2 = 0
    for eta in ffield.norm_one_group(k2, f1):
        sc = signcalc.OrbitScenario(make_sym_ur_action(), 0, k2, f1, k2, f1, c2, eta, None, "sym-ur/sym-ur")
        bv = signcalc.block_sign_formula(sc)
        closed = (-1) ** (1 - bv.n_alpha) * ffield.sgn_norm_one(eta, f1) * bv.fixed_factor
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
    ("signcalc.oracle", check_sign_formula_vs_oracle),
    ("signcalc.ram-empty", check_ram_empty),
    ("signcalc.eta-constraint", check_eta_constraint_both_directions),
    ("signcalc.eta-independence", check_ramified_eta_independence),
    ("signcalc.fixed-space", check_asym_symur_norm_minus_one_fixed_space),
    ("signcalc.assemble", check_assemble_dual_path),
    ("signcalc.f1-forms", check_f1_closed_forms),
]


def run_checks(filter_substr: str = "", fault: str = "") -> tuple[list[Row], float]:
    """Run the registry (optionally filtered); `fault` injects a deliberate
    bug to prove the harness catches failures."""
    rows: list[Row] = []
    start = time.time()
    patched = None
    if fault == "sgn":
        patched = ffield.sgn_mult

        def broken(*args, **kwargs):
            return -patched(*args, **kwargs)

        ffield.sgn_mult = broken
    try:
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
    finally:
        if patched is not None:
            ffield.sgn_mult = patched
    return rows, time.time() - start
