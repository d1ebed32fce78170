import cmath
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from weilchar import checks, modp, signcalc, symplectic as sym, weil

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def model5():
    m = weil.WeilModel(sym.standard_polarized_space(5, 1))
    m.build_group_model()
    return m


def test_dimension_and_central_character():
    for p, n in ((3, 1), (5, 1), (3, 2)):
        m = weil.WeilModel(sym.standard_polarized_space(p, n))
        assert m.dim == p**n
        z = m.rho(sym.HeisElem(m.space, (0,) * 2 * n, 1))
        assert np.abs(z - weil.theta_char(p, 1) * np.eye(p**n)).max() < 1e-12


def test_rho_character_shape():
    # trace rho(v, z) = 0 for v != 0 and theta(z) p^n at v = 0
    m = weil.WeilModel(sym.standard_polarized_space(3, 1))
    for h in sym.heis_elements(m.space):
        tr = np.trace(m.rho(h))
        if any(h.v):
            assert abs(tr) < 1e-12
        else:
            assert abs(tr - weil.theta_char(3, h.z) * 3) < 1e-12


def test_rho_irreducible():
    m = weil.WeilModel(sym.standard_polarized_space(3, 1))
    total = sum(abs(np.trace(m.rho(h))) ** 2 for h in sym.heis_elements(m.space))
    assert abs(total - 27) < 1e-9


def test_polarization_validation():
    space = sym.standard_polarized_space(3, 1)
    with pytest.raises(weil.NotAPolarization):
        weil.WeilModel(space, ([(1, 0)], [(2, 0)]))  # not complementary
    m = weil.WeilModel(space, ([(0, 1)], [(1, 0)]))  # swapped Lagrangians: fine
    h = sym.HeisElem(space, (1, 2), 0)
    g = sym.sp_elements(space)[5]
    og = m.omega(g)
    assert np.abs(og @ m.rho(h) @ np.linalg.inv(og) - m.rho(g.apply_heis(h))).max() < 1e-9


def test_weil_operator_examples(model5):
    space = model5.space
    assert np.abs(model5.omega(sym.sp_identity(space)) - np.eye(5)).max() < 1e-12
    # trace of omega(diag(a, a^{-1})) = sgn(a) for a != +-1
    for a, sgn in ((2, -1), (3, -1)):
        g = sym.sp_elem(space, [[a, 0], [0, pow(a, 3, 5)]])
        assert abs(model5.trace_omega(g) - sgn) < 1e-9


def test_weil_operator_multiplicative_all_pairs(model5):
    els = sym.sp_elements(model5.space)
    ops = np.stack([model5.omega_group(g) for g in els])
    idx = {g.mat: i for i, g in enumerate(els)}
    worst = 0.0
    for i, g in enumerate(els):
        rhs = ops[np.array([idx[(g * h).mat] for h in els])]
        worst = max(worst, float(np.abs(ops[i] @ ops - rhs).max()))
    assert worst < 1e-8


def test_schur_intertwiner_examples(model5):
    space = model5.space
    t = weil.schur_intertwiner(model5, model5, sym.sp_identity(space), seed=3)
    # Schur: self-intertwiner is scalar
    assert np.abs(t - t[0, 0] * np.eye(5)).max() < 1e-9
    # two seeds give proportional intertwiners
    m2 = weil.WeilModel(space, ([(0, 1)], [(1, 0)]))
    t1 = weil.schur_intertwiner(model5, m2, sym.sp_identity(space), seed=0)
    t2 = weil.schur_intertwiner(model5, m2, sym.sp_identity(space), seed=99)
    ratio = t2 @ np.linalg.inv(t1)
    assert np.abs(ratio - ratio[0, 0] * np.eye(5)).max() < 1e-9
    # T conjugates the Weil operators with trivial character for p >= 5
    m2.build_group_model()
    for g in sym.sp_elements(space):
        lhs = t1 @ model5.omega(g) @ np.linalg.inv(t1)
        assert np.abs(lhs - m2.omega(g)).max() < 1e-8


def test_cyclic_tensor_trace_examples():
    rng = np.random.default_rng(0)
    single = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    big, comp = weil.cyclic_tensor_trace([single])
    assert abs(big - np.trace(single)) < 1e-12 and abs(comp - np.trace(single)) < 1e-12
    big2, comp2 = weil.cyclic_tensor_trace([np.eye(2), np.eye(2)])
    assert abs(big2 - 2) < 1e-12 and abs(comp2 - 2) < 1e-12
    for _ in range(20):
        maps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(5)]
        b, c = weil.cyclic_tensor_trace(maps)
        assert abs(b - c) < 1e-9 * max(1, abs(c))
    with pytest.raises(weil.DimensionMismatch):
        weil.cyclic_tensor_trace([np.eye(2), np.ones((3, 2))])


def _swapped_fixture(p, seed=0):
    v2 = sym.standard_polarized_space(p, 1)
    vsum = sym.direct_sum([v2, v2])
    swap = np.zeros((4, 4), dtype=np.int64)
    swap[:2, 2:] = np.eye(2, dtype=np.int64)
    swap[2:, :2] = np.eye(2, dtype=np.int64)
    return weil.block_twist(vsum, [(0, 1)], sym.sp_elem(vsum, swap), seed=seed), vsum


def test_twisted_trace_examples():
    # iota = identity on a single block: ordinary omega-character
    v2 = sym.standard_polarized_space(3, 1)
    vone = sym.direct_sum([v2])
    bt1 = weil.block_twist(vone, [(0,)], sym.sp_identity(vone), seed=0)
    m = weil.WeilModel(v2)
    m.build_group_model()
    for g in sym.sp_elements(v2)[:8]:
        big = sym.sp_elem(vone, g.mat_np)
        r = weil.twisted_trace(bt1, big)
        assert abs(r.product_value - m.trace_omega(g)) < 1e-8
        assert abs(r.direct_value - m.trace_omega(g)) < 1e-8

    # two swapped blocks, g = identity: trace of the composite intertwiner
    bt, vsum = _swapped_fixture(3)
    r = weil.twisted_trace(bt, sym.sp_identity(vsum))
    b0 = vsum.blocks[0]
    from weilchar import modp

    loop = sym.sp_elem(bt.models[0].space, modp.mat_pow(bt.iota.mat_np, 2, 3)[np.ix_(b0, b0)])
    want = np.trace(bt.models[0].omega(loop))
    assert abs(r.product_value - want) < 1e-9
    assert abs(r.direct_value - want) < 1e-9


def test_twisted_trace_block_mismatch():
    bt, vsum = _swapped_fixture(3)
    off_block = np.eye(4, dtype=np.int64)
    off_block[:2, 2:] = np.eye(2, dtype=np.int64)  # upper-triangular across blocks
    # make it symplectic? it is not block-preserving either way
    with pytest.raises((weil.BlockMismatch, sym.SymplecticError)):
        weil.twisted_trace(bt, sym.sp_elem(vsum, off_block))


def test_scalar_distribution_freedom():
    bt, vsum = _swapped_fixture(3)
    g = sym.sp_elements(sym.standard_polarized_space(3, 1))[7]
    big = np.zeros((4, 4), dtype=np.int64)
    big[:2, :2] = g.mat_np
    big[2:, 2:] = g.inverse().mat_np
    gbig = sym.sp_elem(vsum, big)
    before = weil.twisted_trace(bt, gbig)
    bt.redistribute(0, [cmath.exp(1.234j), cmath.exp(-1.234j)])
    after = weil.twisted_trace(bt, gbig)
    assert abs(before.product_value - after.product_value) < 1e-9
    assert abs(before.direct_value - after.direct_value) < 1e-9
    with pytest.raises(weil.NotNormalized):
        bt.redistribute(0, [2.0, 0.5j])


def test_word_model_beyond_group_cap():
    # Sp_4(F_3) exceeds the enumeration cap; the word model still evaluates
    p = 3
    v4 = sym.standard_polarized_space(p, 2)
    m = weil.WeilModel(v4)
    gens = sym.sp_generators(v4)
    g = gens[0] * gens[1] * gens[2]
    h = gens[3] * gens[0]
    err = np.abs(m.omega_word(g) @ m.omega_word(h) - m.omega_word(g * h)).max()
    assert err < 1e-9


def test_operator_dump_format():
    m = weil.WeilModel(sym.standard_polarized_space(3, 1))
    dump = weil.dump_operator(m.rho(sym.HeisElem(m.space, (0, 0), 1)))
    assert len(dump) == 9
    assert all(len(entry) == 2 for entry in dump)
    theta = weil.theta_char(3, 1)
    assert abs(dump[0][0] - theta.real) < 1e-9 and abs(dump[0][1] - theta.imag) < 1e-9


def test_sl2_f3_convention_real_on_order_4_torus():
    # the scalar convention for SL_2(F_3) (classical unipotent seed) gives a
    # character that is real on the norm-one torus of order 4, and agrees
    # with the generator word model everywhere
    from weilchar import ffield as ff

    torus = sym.build_torus(sym.TorusDesc(3, (sym.NormOneFactor(1),)))
    model = weil.WeilModel(torus.space)
    model.build_group_model()
    for t in torus.elements():
        tr = model.trace_omega(t.elem)
        assert abs(tr.imag) < 1e-9
    for g in sym.sp_elements(torus.space):
        assert np.abs(model.omega_group(g) - model.omega_word(g)).max() < 1e-8


def test_even_characteristic_rejected():
    # 2 has no inverse mod 2, so the rho phase theta(<x,y>/2) is undefined
    with pytest.raises(weil.WeilError):
        weil.WeilModel(sym.standard_space(2, 1))


def test_schur_ball_ignores_seed_order():
    # Sp_2(F_5): all pairwise products fit under the cap; Sp_4(F_3): the cap
    # stops the products early, so the order they are taken in matters
    for p, n in ((5, 1), (3, 2)):
        space = sym.standard_polarized_space(p, n)
        gens = sym.sp_generators(space)
        seeds = [sym.sp_identity(space)] + gens + [g.inverse() for g in gens]
        want = [g.mat for g in weil._schur_ball(seeds)]
        products = {(g * h).mat for g in seeds for h in seeds}
        if n == 1:
            assert set(want) == products | {g.mat for g in seeds}
        else:
            assert len(want) == 41 and len(products) > 41
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(seeds)
            assert [g.mat for g in weil._schur_ball(seeds)] == want


_TABLE_DIGEST = """
import hashlib
from weilchar import symplectic as sym, weil
h = hashlib.sha256()
for p in (3, 5):
    space = sym.standard_polarized_space(p, 1)
    m = weil.WeilModel(space)
    for g in sym.sp_elements(space):
        h.update(m.omega_group(g).tobytes())
print(h.hexdigest())
"""


def test_group_model_identical_across_processes():
    # hash(None) inside SympSpace's hash changes from process to process;
    # the group model must not depend on it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digests = {
        subprocess.run([sys.executable, "-c", _TABLE_DIGEST], capture_output=True, text=True,
                       env=env, timeout=300, check=True).stdout
        for _ in range(3)
    }
    assert len(digests) == 1


# -- word model: the three factorization paths -----------------------------


def _path(model, g):
    f = model.word_factors(g)
    return "w-fallback" if f.fallback else ("perturbation" if f.d3 is not None else "big cell")


def _with_fallback(fn, g):
    """fn(g) while the first perturbation search fails, so that w g is factored."""
    orig = weil.WeilModel._find_perturbation
    calls = []

    def first_fails(self, c, d):
        calls.append(c)
        return None if len(calls) == 1 else orig(self, c, d)

    weil.WeilModel._find_perturbation = first_fails
    try:
        return fn(g)
    finally:
        weil.WeilModel._find_perturbation = orig


def _path_elements(p, n):
    """Standard-coordinate elements for the big cell, the perturbation with D
    invertible and (n > 1) the perturbation found by search (C, D singular)."""
    i, z = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    a = i + np.triu(np.ones((n, n), dtype=np.int64), 1)
    a[0, 0] = 2
    levi = np.block([[a, z], [z, modp.mat_inv(a, p).T]])
    s = (np.add.outer(np.arange(n), np.arange(n)) + 1) % p
    w = np.block([[z, i], [-i, z]])
    nbar = np.block([[i, z], [s, i]])
    up = np.block([[i, s], [z, i]])
    out = [("big cell", levi @ w @ nbar @ up), ("perturbation", levi @ up)]
    if n > 1:
        w0 = np.eye(2 * n, dtype=np.int64)  # w on the first coordinate pair only
        w0[0, 0] = w0[n, n] = 0
        w0[0, n], w0[n, 0] = 1, -1
        out.append(("perturbation", levi @ w0))
    return [(path, m % p) for path, m in out]


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (5, 4)])
def test_word_model_paths(p, n):
    # model dimensions 3, 5, 9, 25, 27, 81, 125, 625
    space = sym.standard_polarized_space(p, n)
    m = weil.WeilModel(space)
    ident = np.eye(m.dim)
    ops = []
    for path, mat in _path_elements(p, n):
        g = sym.sp_elem(space, mat)
        assert _path(m, g) == path
        dense = m.omega_word(g)
        ops.append((g, dense))
        assert np.abs(dense @ dense.conj().T - ident).max() < 1e-9
        assert abs(m.trace_word(g) - np.trace(dense)) < 1e-10
        if path == "perturbation":
            # w-fallback: another factorization of the same operator
            assert _with_fallback(lambda h: _path(m, h), g) == "w-fallback"
            assert np.abs(_with_fallback(m.omega_word, g) - dense).max() < 1e-10
            assert abs(_with_fallback(m.trace_word, g) - np.trace(dense)) < 1e-10
    (g1, o1), (g2, o2) = ops[:2]
    assert np.abs(o1 @ o2 - m.omega_word(g1 * g2)).max() < 1e-9


def test_trace_word_on_large_sign_blocks():
    # the six seeded blocks of model dimension 625 (one eta per family and C)
    blocks = [sc for _, sc in checks.sign_branch_scenarios(5, 4, 1, 2)
              if sc.p ** (sc.k_alpha.degree // 2 if sc.sym_alpha else sc.k_alpha.degree) == 625]
    assert len(blocks) == 6
    for sc in blocks:
        bv = signcalc.block_sign_formula(sc)
        m = weil.WeilModel(bv.block.space)
        tr = m.trace_word(bv.block.op)
        assert abs(tr - np.trace(m.omega_word(bv.block.op))) < 1e-10
        assert abs(bv.value - tr) < 1e-8


def test_fourier_scalar_fault_is_caught():
    # seeded fault: sgn(-2) -> sgn(2) in the Fourier scalar; it changes the
    # word model where n is odd and (-1/p) = -1, and the trace evaluator with it
    orig = weil._fourier_scalar
    weil._fourier_scalar = lambda p, n: (modp.legendre(2, p) / weil.gauss_sum(p)) ** n
    try:
        rows = checks.check_omega_multiplicative()
        stats = checks.sign_sweep((3,), 1, 4)
    finally:
        weil._fourier_scalar = orig
    failed = {r.quantity for r in rows if not r.passed}
    assert failed == {"word model = group model p=3", "word model = group model p=7"}
    assert max(st.worst for st in stats.values()) > 1e-8
    # the ramified signs are closed-form, so the sweep sees the fault there too
    for label in ("asym/sym-ram p=3 d=1 f=1", "sym-ur/sym-ram p=3 g=1"):
        assert stats[label].worst > 1e-8, label
