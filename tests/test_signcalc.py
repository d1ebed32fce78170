import dataclasses

import numpy as np
import pytest

from weilchar import checks, ffield as ff, gerardin, modp, signcalc as sc, symplectic as sym, weil


F3 = ff.field(3, 1)
F9 = ff.field(3, 2)
C9 = sym.anti_invariant_unit(F9, 1)


def test_action_validation():
    with pytest.raises(sc.SignCalcError):
        sc.OrbitAction(2, (0, 1), (0, 1), (0, 1))  # neg has fixed points
    with pytest.raises(sc.SignCalcError):
        sc.OrbitAction(3, (1, 2, 0), (1, 0, 2), (0, 1, 2))  # neg not an involution... and fixes 2
    with pytest.raises(sc.SignCalcError):
        # non-commuting actions
        sc.OrbitAction(4, (1, 0, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3))


def test_classify_orbits_examples():
    # theta identity: m = l = 1, restricted symmetry = root symmetry
    act = checks.make_asym_asym_action()
    row = sc.classify_orbits(act)[0]
    assert (row.m, row.l, row.sym_alpha, row.sym_res, row.branch_sign) == (1, 1, False, False, 1)
    # free theta of order 2: m = 2, theta^2(a) = a, restricted asymmetric
    act2 = sc.OrbitAction(4, (0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2))
    row2 = sc.classify_orbits(act2)[0]
    assert (row2.m, row2.l, row2.branch_sign, row2.sym_res) == (2, 2, 1, False)
    # theta = neg: m = 1, minus branch, restricted symmetric
    act3 = checks.make_asym_symram_action()
    row3 = sc.classify_orbits(act3)[0]
    assert (row3.m, row3.l, row3.branch_sign, row3.sym_res) == (1, 2, -1, True)


def test_classify_restricted_per_degree_lemma():
    # the constructor accepts exactly the restricted-root class the
    # residue-degree lemma gives, and rejects the other one
    # sym alpha, f odd -> unramified restricted root
    no = ff.norm_one_group(F9, F3)[2]
    s = sc.OrbitScenario(checks.make_sym_ur_action(), 0, F9, F3, F9, F3, C9, no, None, "sym-ur/sym-ur")
    assert s.f == 1 and s.g == 1
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(checks.make_sym_ur_action(), 0, F9, F3, F9, F3, C9, no, None, "sym-ur/sym-ram")
    # asym with [k_alpha : k_pm_res] even -> unramified
    act = checks.make_asym_symur_action()
    c = F9.one()
    eta = F9.gen()
    sc.OrbitScenario(act, 0, F9, F9, F9, F3, c, eta, -(c.frobenius(1) / c) / eta, "asym/sym-ur")
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(act, 0, F9, F9, F9, F3, c, eta, -(c.frobenius(1) / c) / eta, "asym/sym-ram")
    # asym with odd [k_alpha : k_pm_res] -> ramified
    sc.OrbitScenario(checks.make_asym_symram_action(), 0, F3, F3, F3, F3,
                     F3.one(), F3.one(), -F3.one(), "asym/sym-ram")
    # declaring the wrong classification is rejected
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(checks.make_asym_symram_action(), 0, F3, F3, F3, F3,
                         F3.one(), F3.one(), -F3.one(), "asym/sym-ur")


def test_build_block_examples():
    # asym/asym over F_3 with C = 1, eta = 1: identity automorphism on the plane
    s = sc.OrbitScenario(checks.make_asym_asym_action(), 0, F3, F3, F3, F3,
                         F3.one(), F3.one(), F3.one(), "asym/asym")
    bb = sc.build_block(s)
    assert bb.op.mat == ((1, 0), (0, 1))
    assert bb.space.gram == ((0, 1), (2, 0))
    # symmetric block over GF(9): nondegenerate 2-dim form
    s2 = sc.OrbitScenario(checks.make_sym_ur_action(), 0, F9, F3, F9, F3, C9,
                          ff.norm_one_group(F9, F3)[3], None, "sym-ur/sym-ur")
    bb2 = sc.build_block(s2)
    assert bb2.space.dim == 2
    # invariant violation rejected at construction (1 * 1 != -varsigma(C)/C)
    with pytest.raises(sc.FormDegenerate):
        sc.OrbitScenario(checks.make_asym_symur_action(), 0, F9, F9, F9, F3,
                         F9.one(), F9.one(), F9.one(), "asym/sym-ur")


def test_ram_empty_surfaced():
    # symmetric alpha with residue-trivial tau: no antisymmetric C can exist
    for c in F3.units():
        with pytest.raises(sc.FormDegenerate):
            sc.OrbitScenario(checks.make_sym_ur_action(), 0, F3, F3, F3, F3,
                             c, F3.one(), None, "sym-ur/sym-ur")


def test_torus_algorithm_examples():
    # f = 1: a single pair (k_res, beta)
    beta = F9.gen()  # order 8 generator? any unit with Nr = +-1 over F_3
    delta_ok = ff.norm_to(beta, F3)
    pieces = sc.torus_algorithm(beta, 1, "asym", ambient=F9) if delta_ok == 1 or delta_ok == -1 else None
    assert pieces is not None
    if delta_ok == -1:
        assert len(pieces.pieces) == 1 and pieces.trace == ("case1",)
    # f = 2 over F_5: X^2 - 1 factors into two split linear pieces (F5, 1), (F5, -1)
    f25 = ff.field(5, 2)
    f5 = ff.field(5, 1)
    one25 = f25.one()
    pieces2 = sc.torus_algorithm(one25, 2, "asym", ambient=ff.field(5, 4))
    assert pieces2.trace[0] == "case3"
    xs = sorted(str(p.x) for p in pieces2.pieces)
    assert len(pieces2.pieces) >= 2
    # case-3 recursion delegates to case 1/2 on the square root
    assert set(pieces2.trace[1:]) <= {"case1", "case2", "case3"}
    with pytest.raises(sc.NormConditionViolated):
        sc.torus_algorithm(f25.gen(), 5, "asym")  # f divisible by p


def test_block_sign_formula_branch_matrix():
    """Every branch, every admissible eta within the small pool: formula
    equals the brute-force Weil trace (the module's central property)."""
    rows = checks.check_sign_formula_vs_oracle(ps=(3,), max_degree=2)
    assert all(r.passed for r in rows), [r.quantity for r in rows if not r.passed]


def test_sign_sweep_goes_red_on_corrupted_formula():
    clean = checks.sign_sweep((3,), max_degree=1, eta_cap=4)
    assert clean and all(st.worst <= 1e-8 and st.count for st in clean.values())
    real = sc.block_sign_formula

    def corrupted(s):
        bv = real(s)
        return dataclasses.replace(bv, value=-bv.value)

    sc.block_sign_formula = corrupted
    try:
        bad = checks.sign_sweep((3,), max_degree=1, eta_cap=4)
        rows = checks.check_sign_formula_vs_oracle(ps=(3,), max_degree=1)
    finally:
        sc.block_sign_formula = real
    assert bad.keys() == clean.keys()
    assert all(st.worst > 1e-8 for st in bad.values())
    assert rows and not any(r.passed for r in rows)


def test_sym_f1_example_vs_oracle():
    # eta of order 4 in GF(9)^1: value fixed by oracle comparison
    eta = next(x for x in ff.norm_one_group(F9, F3) if x.mult_order() == 4)
    s = sc.OrbitScenario(checks.make_sym_ur_action(), 0, F9, F3, F9, F3, C9, eta, None, "sym-ur/sym-ur")
    bv = sc.block_sign_formula(s)
    bb = sc.build_block(s)
    oracle = weil.WeilModel(bb.space).trace_omega(bb.op)
    assert abs(bv.value - oracle) < 1e-8
    assert bv.value == (-1) ** (1 - bv.n_alpha) * ff.sgn_norm_one(eta, F3) * bv.fixed_factor


def _ramified_scenarios(p, max_degree, eta_cap=80):
    for label, s in checks.sign_branch_scenarios(p, max_degree, eta_cap):
        if label.split(" ")[0].endswith("sym-ram"):
            yield label, s


def test_ramified_constant_eta_independent():
    # every eta of the ramified families at p = 3 up to degree 2, and of the
    # f = 3 family at p = 7 (342 etas): formula = oracle, one sign per family
    signs = {}
    scenarios = list(_ramified_scenarios(3, 2)) + [
        (label, s) for label, s in _ramified_scenarios(7, 3, eta_cap=400) if label.endswith("f=3")
    ]
    for label, s in scenarios:
        bv = sc.block_sign_formula(s)
        oracle = weil.WeilModel(bv.block.space).trace_omega(bv.block.op)
        assert abs(bv.value - oracle) < 1e-8, label
        signs.setdefault(label, set()).add(bv.sign)
    assert sorted(signs) == ["asym/sym-ram p=3 d=1 f=1", "asym/sym-ram p=3 d=2 f=1", "asym/sym-ram p=7 f=3", "sym-ur/sym-ram p=3 g=1"]
    assert all(len(v) == 1 for v in signs.values())


def test_ramified_sign_calls_no_oracle():
    class Raising:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the sign formula built a WeilModel")

    real = weil.WeilModel
    weil.WeilModel = Raising
    try:
        seen = 0
        for p in (3, 5):
            for label, s in _ramified_scenarios(p, 2):
                want = modp.legendre(-2, p) ** s.k_res.degree
                assert sc.block_sign_formula(s).value == want, label
                assert sc.f1_constant(s) == want, label
                seen += 1
    finally:
        weil.WeilModel = real
    assert seen > 0


def test_ramified_sign_equals_gerardin_fixed_point_free_formula():
    # formula against formula: Gerardin's fixed-point-free character
    # evaluation gives sgn_{k_res}(-2) on every ramified block, including
    # the f = 3 family where the twist does not square to -1
    for p, max_degree in ((3, 4), (5, 4), (7, 3)):
        for label, s in _ramified_scenarios(p, max_degree, eta_cap=6):
            bb = sc.build_block(s)
            squares_to_minus_one = not ((bb.op.mat_np @ bb.op.mat_np + np.eye(bb.space.dim, dtype=np.int64)) % p).any()
            assert squares_to_minus_one == (s.f != 3), label
            assert gerardin.weil_char(bb.op) == sc.block_sign_formula(s).value, label


def test_assemble_and_theta_rho():
    act = sc.OrbitAction(4, (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    no = ff.norm_one_group(F9, F3)
    scen = {
        0: sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym"),
        2: sc.OrbitScenario(act, 2, F9, F3, F9, F3, C9, no[2], None, "sym-ur/sym-ur"),
    }
    svals = {0: F3.from_int(2), 2: no[1]}
    asm = sc.assemble_product(act, scen, svals)
    assert asm.f1_regime
    # components recombine to the value
    assert abs(asm.c_eta * (-1) ** asm.ur_count * asm.v_factor * asm.eps_tilde - asm.value) < 1e-9
    res = sc.full_space_oracle(act, scen, svals)
    assert abs(asm.value - res.product_value) < 1e-8
    # theta_rho: unit character multiplies through
    th = sc.theta_rho(asm, 1j)
    assert abs(th - asm.value * 1j) < 1e-12
    # sign flip: an s' differing only in eps_tilde negates the output
    all_asm = {}
    for v0 in F3.units():
        for v2 in no:
            all_asm[(v0.index(), v2.index())] = sc.assemble_product(act, scen, {0: v0, 2: v2})
    flips = 0
    for a in all_asm.values():
        for b in all_asm.values():
            if (a.v_factor, a.ur_count, a.c_eta) == (b.v_factor, b.ur_count, b.c_eta) and a.eps_tilde == -b.eps_tilde:
                assert abs(a.value + b.value) < 1e-9
                flips += 1
    assert flips > 0
    with pytest.raises(sc.NotUnitModulus):
        sc.theta_rho(asm, 2.0)
    with pytest.raises(sc.IncompleteScenarioCover):
        sc.assemble_product(act, {0: scen[0]}, svals)


def test_single_orbit_assemble_reduces_to_block():
    act = checks.make_asym_asym_action()
    s = sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym")
    svals = {0: F3.one()}
    asm = sc.assemble_product(act, {0: s}, svals)
    assert abs(asm.value - sc.block_sign_formula(s).value) < 1e-12


def test_m2_chain_vs_full_oracle():
    act = sc.OrbitAction(4, (0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2))
    s = sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym")
    for v0 in F3.units():
        for v1 in F3.units():
            svals = {0: v0, 1: v1}
            asm = sc.assemble_product(act, {0: s}, svals)
            res = sc.full_space_oracle(act, {0: s}, svals)
            assert abs(asm.value - res.product_value) < 1e-8
            assert abs(res.product_value - res.direct_value) < 1e-8
            # the eta twist follows the product-of-root-values law
            tw = sc.twisted_scenario(s, svals)
            assert tw.eta_alpha == v0 * v1 * s.eta_alpha


def test_torus_algorithm_x2_minus_1_over_f5():
    # beta = 1, f = 2, k_res = GF(25): the halving step produces the square
    # roots of 1 and of -1; the -1 half has norm -1 (case 1, split factor),
    # the +1 half splits into two norm-one lines (case 2)
    f25 = ff.field(5, 2)
    pieces = sc.torus_algorithm(f25.one(), 2, "asym", ambient=ff.field(5, 4))
    assert pieces.trace[0] == "case3"
    assert sorted(pieces.trace[1:]) == ["case1", "case2"]
    sym_vals = sorted(p.x.index() for p in pieces.pieces if p.symmetric)
    asym_vals = [p for p in pieces.pieces if not p.symmetric]
    one = ff.embed(f25.one(), ff.field(5, 4))
    assert one.index() in sym_vals  # the root 1 itself
    assert len(asym_vals) == 1  # one split factor from the sqrt(-1) half
    # eigenvalue bookkeeping: total multiset size is 2 f [k_res : F_p]
    total = sum(2 * p.degree if not p.symmetric else p.degree for p in pieces.pieces)
    assert total == 2 * 2 * 2


from hypothesis import given, settings, strategies as st


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_torus_algorithm_counts_random(seed):
    import random

    rng = random.Random(seed)
    p = rng.choice([3, 5])
    g = 1
    k_res = ff.field(p, 2 * g)
    sub = ff.field(p, g)
    f = rng.choice([1, 2] if p == 5 else [1, 2, 4])
    norm_one = ff.norm_one_group(k_res, sub)
    delta = rng.choice(norm_one)
    roots = ff.nth_roots(delta, 2)
    if not roots:
        return
    beta = roots[0]
    try:
        ambient = ff.field(p, 2 * g * f)
    except ff.FieldError:
        return
    pieces = sc.torus_algorithm(beta, f, "asym", ambient=ambient)
    total = sum(2 * q.degree if not q.symmetric else q.degree for q in pieces.pieces)
    assert total == 2 * f * k_res.degree
    # every piece root actually solves X^f = +-beta-chain and lies in its field
    for q in pieces.pieces:
        assert q.x.frobenius(q.degree % q.x.parent.degree) == q.x


def test_assemble_with_ramified_orbit():
    # asym/asym cluster (roots 0,1) + asym/sym-ram cluster (roots 2,3 with
    # theta = negation there): the factored path must fold in the closed-form
    # ramified constant sgn_{k_res}(-2)
    act = sc.OrbitAction(4, (0, 1, 2, 3), (1, 0, 3, 2), (0, 1, 3, 2))
    scen = {
        0: sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym"),
        2: sc.OrbitScenario(act, 2, F3, F3, F3, F3, F3.one(), F3.one(), -F3.one(), "asym/sym-ram"),
    }
    for v0 in F3.units():
        for v2 in F3.units():
            svals = {0: v0, 2: v2}
            asm = sc.assemble_product(act, scen, svals)
            assert asm.f1_regime
            res = sc.full_space_oracle(act, scen, svals)
            assert abs(asm.value - res.product_value) < 1e-8
            assert abs(res.product_value - res.direct_value) < 1e-8


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_orbit_action_invariants_random(seed):
    import random

    rng = random.Random(seed)
    # random member of the validated action families
    family = rng.choice(["free", "twisted", "symur", "symflip", "negtheta"])
    d = rng.choice([1, 2, 3, 4])
    if family == "free":
        act = checks._free_asym_action(d)
    elif family == "twisted":
        act = checks._free_asym_action_twisted(d, rng.randrange(d) or 1)
    elif family == "symur":
        act = checks._sym_action(2 * ((d + 1) // 2))
    elif family == "symflip":
        act = checks._sym_ram_action(2 * ((d + 1) // 2))
    else:
        base = checks._free_asym_action(d)
        act = sc.OrbitAction(2 * d, base.frobenius, base.neg, base.neg)
    for a in range(act.size):
        m, l = act.m_alpha(a), act.l_alpha(a)
        assert l % m == 0
        assert act.is_symmetric(act.neg[a]) == act.is_symmetric(a)
        assert act.is_symmetric(act.theta[a]) == act.is_symmetric(a)
        bs = act.branch_sign(a)
        assert (bs is None) == act.is_symmetric(a)
        # sigma_exponent lands on the branch target
        j = act.sigma_exponent(a)
        target = act.theta_pow(a, m)
        goal = target if (bs is None or bs == 1) else act.neg[target]
        assert act.frob_pow(a, j) == goal


def test_m3_chain_over_f5():
    # three blocks rotated cyclically (theta of order 3, p = 5): the composite
    # of three intertwiners must normalize to the block twist operator
    F5 = ff.field(5, 1)
    frob = tuple(range(6))
    neg = (3, 4, 5, 0, 1, 2)
    theta = (1, 2, 0, 4, 5, 3)
    act = sc.OrbitAction(6, frob, neg, theta)
    assert act.m_alpha(0) == 3 and act.l_alpha(0) == 3
    s = sc.OrbitScenario(act, 0, F5, F5, F5, F5, F5.one(), F5.from_int(2), F5.from_int(3), "asym/asym")
    for vals in [(F5.one(), F5.one(), F5.one()), (F5.from_int(2), F5.from_int(3), F5.from_int(4))]:
        svals = {0: vals[0], 1: vals[1], 2: vals[2]}
        asm = sc.assemble_product(act, {0: s}, svals)
        res = sc.full_space_oracle(act, {0: s}, svals)
        assert abs(asm.value - res.product_value) < 1e-8
        assert abs(res.product_value - res.direct_value) < 1e-8


def test_mixed_dimension_assembly():
    # three clusters: an m=2 chain of F_3-planes, a quadratic asymmetric
    # block (dim 4), and a symmetric norm-one block (dim 2); full space has
    # dimension 8 and the tensor oracle dimension 3^4
    frob = (0, 1, 2, 3, 5, 4, 7, 6, 9, 8)
    neg = (2, 3, 0, 1, 6, 7, 4, 5, 9, 8)
    theta = (1, 0, 3, 2, 4, 5, 6, 7, 8, 9)
    act = sc.OrbitAction(10, frob, neg, theta)
    assert sc.theta_orbit_reps(act) == [0, 4, 8]
    scen = {
        0: sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym"),
        4: sc.OrbitScenario(act, 4, F9, F9, F9, F9, F9.gen(), F9.gen(), F9.gen().inverse(), "asym/asym"),
        8: sc.OrbitScenario(act, 8, F9, F3, F9, F3, C9, ff.norm_one_group(F9, F3)[2], None, "sym-ur/sym-ur"),
    }
    svals = {
        0: F3.from_int(2),
        1: F3.from_int(1),
        4: F9.gen(),
        8: ff.norm_one_group(F9, F3)[3],
    }
    asm = sc.assemble_product(act, scen, svals)
    res = sc.full_space_oracle(act, scen, svals)
    assert abs(asm.value - res.product_value) < 1e-8
    assert abs(res.product_value - res.direct_value) < 1e-8
