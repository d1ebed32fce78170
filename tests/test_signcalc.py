import dataclasses
import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from weilchar import checks, cli, ffield as ff, gerardin, modp, signcalc as sc, symplectic as sym, weil


F3 = ff.field(3, 1)
F9 = ff.field(3, 2)
C9 = sym.anti_invariant_unit(F9, 1)


@pytest.mark.parametrize("family", checks.SIGN_FAMILIES, ids=lambda fam: "%s-d%d-s%d-n%d" % (fam[0], *fam[1:4]))
def test_eta_target_is_varsigma_c_over_c_negated_on_the_minus_branch(family):
    symmetric, d, shift, neg, _ = family
    act = sc.one_orbit_action(d, symmetric, shift, neg)
    k = ff.field(3, d)
    for root in act.roots:
        for c in k.units():
            ratio = c ** (3 ** ((-root.sigma_exp) % d)) / c
            assert sc.eta_target(root, c) == (-ratio if root.branch_sign == -1 else ratio)


def test_action_validation():
    with pytest.raises(sc.SignCalcError):
        sc.OrbitAction(2, (0, 1), (0, 1), (0, 1))  # neg has fixed points
    with pytest.raises(sc.SignCalcError):
        sc.OrbitAction(3, (1, 2, 0), (1, 0, 2), (0, 1, 2))  # neg not an involution... and fixes 2
    with pytest.raises(sc.SignCalcError):
        # non-commuting actions
        sc.OrbitAction(4, (1, 0, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3))
    # bools sort like 0 and 1, but are not root indices
    with pytest.raises(sc.SignCalcError, match="neg is not a permutation"):
        sc.OrbitAction(2, (0, 1), (True, False), (0, 1))
    with pytest.raises(sc.SignCalcError, match="theta is not a permutation"):
        sc.OrbitAction(2, (0, 1), (1, 0), (False, True))


def test_classify_orbits_examples():
    # theta identity: m = l = 1, restricted symmetry = root symmetry
    # (the restricted root is symmetric exactly on the minus branch)
    def row(act):
        root = act.roots[0]
        return root.gamma, root.m, len(root.theta), root.symmetric, root.branch_sign

    assert row(sc.one_orbit_action(1, False)) == ((0,), 1, 1, False, 1)
    # free theta of order 2: m = 2, theta^2(a) = a, restricted asymmetric
    assert row(sc.OrbitAction(4, (0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2))) == ((0,), 2, 2, False, 1)
    # theta = neg: m = 1, minus branch, restricted symmetric
    assert row(sc.one_orbit_action(1, False, neg=True)) == ((0,), 1, 2, False, -1)
    # symmetric alpha: neg lies in the Gamma-orbit, no branch sign
    assert row(sc.one_orbit_action(2, True)) == ((0, 1), 1, 1, True, None)


def test_classify_restricted_per_degree_lemma():
    # the constructor accepts exactly the restricted-root class the
    # residue-degree lemma gives, and rejects the other one
    # sym alpha, f odd -> unramified restricted root
    no = ff.norm_one_group(F9, F3)[2]
    s = sc.OrbitScenario(sc.one_orbit_action(2, True), 0, F9, F3, F9, F3, C9, no, None, "sym-ur/sym-ur")
    assert s.f == 1 and s.g == 1
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(sc.one_orbit_action(2, True), 0, F9, F3, F9, F3, C9, no, None, "sym-ur/sym-ram")
    # asym with [k_alpha : k_pm_res] even -> unramified
    act = sc.one_orbit_action(2, False, shift=1, neg=True)
    c = F9.one()
    eta = F9.gen()
    s_asym = sc.OrbitScenario(act, 0, F9, F9, F9, F3, c, eta, -(c.frobenius(1) / c) / eta, "asym/sym-ur")
    # tau_alpha carries alpha to -alpha inside its Gamma-orbit: none on an asymmetric root
    assert s_asym.root.tau_exp is None
    with pytest.raises(sc.SignCalcError, match="tau_alpha only exists"):
        s_asym.tau_exp
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(act, 0, F9, F9, F9, F3, c, eta, -(c.frobenius(1) / c) / eta, "asym/sym-ram")
    # asym with odd [k_alpha : k_pm_res] -> ramified
    sc.OrbitScenario(sc.one_orbit_action(1, False, neg=True), 0, F3, F3, F3, F3,
                     F3.one(), F3.one(), -F3.one(), "asym/sym-ram")
    # declaring the wrong classification is rejected
    with pytest.raises(sc.SignCalcError):
        sc.OrbitScenario(sc.one_orbit_action(1, False, neg=True), 0, F3, F3, F3, F3,
                         F3.one(), F3.one(), -F3.one(), "asym/sym-ur")


def test_build_block_examples():
    # asym/asym over F_3 with C = 1, eta = 1: identity automorphism on the plane
    s = sc.OrbitScenario(sc.one_orbit_action(1, False), 0, F3, F3, F3, F3,
                         F3.one(), F3.one(), F3.one(), "asym/asym")
    bb = sc.build_block(s)
    assert bb.op.mat.tolist() == [[1, 0], [0, 1]]
    assert bb.space.gram.tolist() == [[0, 1], [2, 0]]
    # symmetric block over GF(9): nondegenerate 2-dim form
    s2 = sc.OrbitScenario(sc.one_orbit_action(2, True), 0, F9, F3, F9, F3, C9,
                          ff.norm_one_group(F9, F3)[3], None, "sym-ur/sym-ur")
    bb2 = sc.build_block(s2)
    assert bb2.space.dim == 2
    # invariant violation rejected at construction (1 * 1 != -varsigma(C)/C)
    with pytest.raises(sc.FormDegenerate):
        sc.OrbitScenario(sc.one_orbit_action(2, False, shift=1, neg=True), 0, F9, F9, F9, F3,
                         F9.one(), F9.one(), F9.one(), "asym/sym-ur")


def test_ram_empty_surfaced():
    # symmetric alpha with residue-trivial tau: no antisymmetric C can exist
    for c in F3.units():
        with pytest.raises(sc.FormDegenerate):
            sc.OrbitScenario(sc.one_orbit_action(2, True), 0, F3, F3, F3, F3,
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
    with pytest.raises(sc.SignCalcError, match="f must be coprime to p"):
        sc.torus_algorithm(f25.gen(), 5, "asym", ambient=f25)  # f divisible by p, refused first


def test_block_sign_formula_branch_matrix():
    """Every branch, every admissible eta within the small pool: formula
    equals the brute-force Weil trace (the module's central property)."""
    rows = checks.check_sign_formula_vs_oracle()
    assert all(r.passed for r in rows), [r.quantity for r in rows if not r.passed]


@pytest.mark.parametrize("p,max_degree", [(3, 4), (5, 4), (7, 4), (11, 3), (13, 3)])
def test_fixed_space_dim_is_the_rank_of_g_minus_one(p, max_degree):
    # the closed form against dim ker(g - 1) of the built block, for every
    # eta and four C per family
    dims = set()
    for label, s in checks.sign_branch_scenarios(p, max_degree, ff.FIELD_CAP, 4):
        dim = sc.fixed_space_dim(s)
        assert dim == sc.build_block(s).op.fixed_space_dim(), label
        dims.add(dim)
    assert 0 in dims and max(dims) > 2


def test_sweep_and_sign_block_runner_build_one_block_per_scenario(monkeypatch):
    # the formula side builds no block: each scenario's one build is the
    # oracle side's
    built = []
    real = sc.build_block

    def counted(s):
        built.append(s)
        return real(s)

    monkeypatch.setattr(sc, "build_block", counted)
    checks.sign_sweep((3,), 2)
    assert built == [s for _, s in checks.sign_branch_scenarios(3, 2)]
    doc = json.loads((pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "sign_f3.scn").read_text())
    orbits = 0
    for entry in doc["scenarios"]:
        if entry["kind"] == "sign-block":
            payload = dict(entry["payload"], orbits=entry["payload"]["orbits"] * 2)
            built.clear()
            rows = cli.run_sign_block(entry["id"], payload, 1e-8, 7)
            assert all(r.passed for r in rows) and len(built) == len(payload["orbits"])
            assert built[0] == built[1]
            orbits += len(built)
    assert orbits == 6


def test_sign_sweep_goes_red_on_corrupted_formula():
    clean = checks.sign_sweep((3,), max_degree=2, eta_cap=4)
    assert clean and all(st.worst <= 1e-8 and st.count for st in clean.values())
    with checks.FAULTS["block-sign-negated"]():
        bad = checks.sign_sweep((3,), max_degree=2, eta_cap=4)
        rows = checks.check_sign_formula_vs_oracle()
    assert bad.keys() == clean.keys()
    assert all(st.worst > 1e-8 for st in bad.values())
    assert rows and not any(r.passed for r in rows)


def test_sym_f1_example_vs_oracle():
    # eta of order 4 in GF(9)^1: value fixed by oracle comparison
    eta = next(x for x in ff.norm_one_group(F9, F3) if x**2 != 1)  # the group has order 4
    s = sc.OrbitScenario(sc.one_orbit_action(2, True), 0, F9, F3, F9, F3, C9, eta, None, "sym-ur/sym-ur")
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
        bv, bb = sc.block_sign_formula(s), sc.build_block(s)
        oracle = weil.WeilModel(bb.space).trace_omega(bb.op)
        assert abs(bv.value - oracle) < 1e-8, label
        signs.setdefault(label, set()).add(bv.sign)
    assert sorted(signs) == ["asym/sym-ram p=3 d=1 f=1", "asym/sym-ram p=3 d=2 f=1", "asym/sym-ram p=7 f=3", "sym-ur/sym-ram p=3 g=1"]
    assert all(len(v) == 1 for v in signs.values())


@pytest.mark.parametrize("p", [11, 13])
def test_conjectured_f3_ramified_sign(p):
    # the one conjectured case of _ramified_sign: asym/sym-ram with f = 3,
    # where the twist does not square to -1. The oracle gives one sign over
    # 50 etas, (-2/p)^3, and the formula matches it
    blocks = [s for label, s in _ramified_scenarios(p, 3, eta_cap=50) if label.endswith("f=3")]
    assert len(blocks) == 50
    signs = set()
    for s in blocks:
        bv, bb = sc.block_sign_formula(s), sc.build_block(s)
        oracle = weil.WeilModel(bb.space).trace_omega(bb.op)
        assert abs(bv.value - oracle) <= 1e-8
        signs.add(round(oracle.real))
    assert signs == {modp.legendre(-2, p) ** 3}


def test_ramified_sign_equals_gerardin_fixed_point_free_formula():
    # formula against formula: Gerardin's fixed-point-free character
    # evaluation gives sgn_{k_res}(-2) on every ramified block, including
    # the f = 3 family where the twist does not square to -1
    for p, max_degree in ((3, 4), (5, 4), (7, 3)):
        for label, s in _ramified_scenarios(p, max_degree, eta_cap=6):
            bb = sc.build_block(s)
            squares_to_minus_one = not ((bb.op.mat @ bb.op.mat + np.eye(bb.space.dim, dtype=np.int64)) % p).any()
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
    with pytest.raises(sc.SignCalcError, match="vartheta\\(s\\) must be a unit complex number"):
        sc.theta_rho(asm, 2.0)
    with pytest.raises(sc.SignCalcError, match=r"scenarios must be keyed by the canonical orbit reps \[0, 2\]"):
        sc.assemble_product(act, {0: scen[0]}, svals)


def test_single_orbit_assemble_reduces_to_block():
    act = sc.one_orbit_action(1, False)
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
    # a random one-orbit action: theta = neg^[neg] gamma^shift
    symmetric = rng.random() < 0.5
    d = rng.choice([2, 4] if symmetric else [1, 2, 3, 4])
    act = sc.one_orbit_action(d, symmetric, rng.randrange(d), rng.random() < 0.5)
    for a, root in enumerate(act.roots):
        m, l = root.m, len(root.theta)
        assert l % m == 0
        assert act.roots[act.neg[a]].symmetric == root.symmetric
        assert act.roots[act.theta[a]].symmetric == root.symmetric
        bs = root.branch_sign
        assert (bs is None) == root.symmetric
        # sigma_exp lands on the branch target
        j = root.sigma_exp
        target = root.theta[m % l]
        goal = target if (bs is None or bs == 1) else act.neg[target]
        assert root.gamma[j] == goal


def _validated_actions():
    for d in (1, 2, 3, 4):
        for shift in range(d):
            for neg in (False, True):
                yield sc.one_orbit_action(d, False, shift, neg)
                if d % 2 == 0:
                    yield sc.one_orbit_action(d, True, shift, neg)


def _order_by_composition(perm):
    """The least k >= 1 with perm^k = id, by repeated composition."""
    k, cur = 1, tuple(perm)
    while cur != tuple(range(len(perm))):
        cur, k = tuple(perm[x] for x in cur), k + 1
    return k


def _power_by_composition(perm, k):
    """perm^k by repeated composition; a negative k through the order."""
    out = tuple(range(len(perm)))
    for _ in range(k % _order_by_composition(perm)):
        out = tuple(perm[x] for x in out)
    return out


def test_orbit_action_lookups_equal_permutation_powers():
    for act in _validated_actions():
        gamma_order = _order_by_composition(act.frobenius)
        frob_pows = [_power_by_composition(act.frobenius, i) for i in range(gamma_order)]
        for a, root in enumerate(act.roots):
            orb = root.gamma
            for j in range(-3, 2 * act.size):
                assert root.theta[j % len(root.theta)] == _power_by_composition(act.theta, j)[a]
                assert orb[j % len(orb)] == _power_by_composition(act.frobenius, j)[a]
            target = _power_by_composition(act.theta, root.m)[a]
            goal = act.neg[target] if root.branch_sign == -1 else target
            assert root.sigma_exp == next(i for i, f in enumerate(frob_pows) if f[a] == goal)
            if root.symmetric:
                assert root.tau_exp == next(i for i, f in enumerate(frob_pows) if f[a] == act.neg[a])
            else:
                assert root.tau_exp is None
            orb = set(root.theta)
            pm = orb | {act.neg[x] for x in orb}
            assert root.deg_res == len({frozenset(f[x] for x in orb) for f in frob_pows})
            assert root.deg_pm_res == len({frozenset(f[x] for x in pm) for f in frob_pows})
        assert act.theta_order == _order_by_composition(act.theta)


def _walk(perm, a):
    out, cur = [a], perm[a]
    while cur != a:
        out.append(cur)
        cur = perm[cur]
    return out


def test_cached_root_invariants_equal_the_orbit_walks():
    # every one-orbit action with d <= 8: each cached invariant against the
    # orbit walks OrbitAction did per call before it cached them
    for d in range(1, 9):
        for symmetric in (False, True) if d % 2 == 0 else (False,):
            for shift in range(d):
                for neg in (False, True):
                    act = sc.one_orbit_action(d, symmetric, shift, neg)
                    assert act.theta_order == len(_walk(act.theta, 0))
                    for a, root in enumerate(act.roots):
                        gamma, theta = _walk(act.frobenius, a), _walk(act.theta, a)
                        sigma = set(gamma) | {act.neg[x] for x in gamma}
                        cluster = {y for b in theta for x in _walk(act.frobenius, b) for y in (x, act.neg[x])}
                        sym_a = act.neg[a] in gamma
                        m, cur = 1, act.theta[a]
                        while cur not in sigma:
                            cur, m = act.theta[cur], m + 1
                        target = theta[m % len(theta)]
                        bs = None if sym_a else (1 if target in gamma else -1)
                        goal = act.neg[target] if bs == -1 else target

                        def translates(roots):
                            seen = set()
                            while roots not in seen:
                                seen.add(roots)
                                roots = frozenset(act.frobenius[x] for x in roots)
                            return len(seen)

                        assert list(root.gamma) == gamma and list(root.theta) == theta
                        assert root.sigma == sigma and root.symmetric == sym_a
                        assert root.cluster == cluster
                        assert (root.m, len(root.theta), root.branch_sign) == (m, len(theta), bs)
                        assert root.sigma_exp == gamma.index(goal)
                        if sym_a:
                            assert root.tau_exp == gamma.index(act.neg[a])
                        else:
                            assert root.tau_exp is None
                        assert len(root.gamma) == len(gamma)
                        assert root.deg_pm_alpha == len({frozenset((x, act.neg[x])) for x in gamma})
                        assert root.deg_res == translates(frozenset(theta))
                        assert root.deg_pm_res == translates(frozenset(theta) | {act.neg[x] for x in theta})
                        for j in range(-2, 2 * len(theta)):
                            assert root.theta[j % len(root.theta)] == theta[j % len(theta)]


def test_cached_invariants_stay_out_of_eq_hash_and_repr():
    a, b = sc.one_orbit_action(4, False, 1, True), sc.one_orbit_action(4, False, 1, True)
    assert a == b and hash(a) == hash(b) and a is not b
    assert "roots" not in repr(a) and "theta_order" not in repr(a)
    assert [f.name for f in dataclasses.fields(a) if f.compare] == ["size", "frobenius", "neg", "theta"]


def test_m3_chain_over_f5():
    # three blocks rotated cyclically (theta of order 3, p = 5): the composite
    # of three intertwiners must normalize to the block twist operator
    F5 = ff.field(5, 1)
    frob = tuple(range(6))
    neg = (3, 4, 5, 0, 1, 2)
    theta = (1, 2, 0, 4, 5, 3)
    act = sc.OrbitAction(6, frob, neg, theta)
    assert act.roots[0].m == 3 and len(act.roots[0].theta) == 3
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


# The ordered scenario list per label of sign_branch_scenarios, pinned as a
# sha256 digest per label for each parameter set a caller uses (the values
# the hand-written family loops produced before the one-orbit enumeration).
PINNED_SCENARIOS = json.loads((pathlib.Path(__file__).parent / "sign_scenarios_digests.json").read_text())


def _scenario_key(s):
    a = s.action
    fields = [f.degree for f in (s.k_alpha, s.k_pm_alpha, s.k_res, s.k_pm_res)]
    eta_minus = None if s.eta_minus_alpha is None else list(s.eta_minus_alpha.coeffs)
    return [[a.size, list(a.frobenius), list(a.neg), list(a.theta)], s.alpha, fields,
            list(s.C.coeffs), list(s.eta_alpha.coeffs), eta_minus, s.classification]


@pytest.mark.parametrize("params", sorted(PINNED_SCENARIOS))
def test_sign_branch_scenarios_pinned(params):
    p, max_degree, eta_cap, c_variants = map(int, params.split(","))
    per_label = {}
    for label, s in checks.sign_branch_scenarios(p, max_degree, eta_cap, c_variants):
        per_label.setdefault(label, []).append(_scenario_key(s))
    got = {label: [len(v), hashlib.sha256(json.dumps(v).encode()).hexdigest()] for label, v in per_label.items()}
    assert got == PINNED_SCENARIOS[params]


def test_orbit_scenarios_read_any_root_of_the_action():
    # the 4-root action of check_assemble_dual_path: root 0 is asym/asym over
    # F_3, root 2 sym-ur/sym-ur over F_9; the check's hand-built scenarios are
    # among what orbit_scenarios yields on each root
    act = sc.OrbitAction(4, (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    by_root = {a: list(checks.orbit_scenarios(act, a, 3)) for a in (0, 2)}
    for a, fields, c, branch in ((0, (F3,) * 4, F3.one(), "asym/asym"), (2, (F9, F3, F9, F3), C9, "sym-ur/sym-ur")):
        assert by_root[a] and all(s.alpha == a for s in by_root[a])
        assert {((s.k_alpha, s.k_pm_alpha, s.k_res, s.k_pm_res), s.C, s.classification) for s in by_root[a]} == {(fields, c, branch)}
    assert sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym") in by_root[0]
    assert sc.OrbitScenario(act, 2, F9, F3, F9, F3, C9, ff.norm_one_group(F9, F3)[2], None, "sym-ur/sym-ur") in by_root[2]
    assert [s.eta_alpha for s in by_root[2]] == ff.norm_one_group(F9, F3)


def test_fixed_space_row_reads_the_formulas_case_split():
    # the row reads beta's case from block_sign_formula, so inverting the
    # formula's case split turns it red (here the formula's own bookkeeping
    # refuses the wrong pieces, a crash the registry reports as a red row)
    rows, _ = checks.run_checks("signcalc.fixed-space", fault="case-split")
    assert rows and not any(r.passed for r in rows)
    clean, _ = checks.run_checks("signcalc.fixed-space")
    assert [r.quantity for r in clean] == ["Nr(beta)=-1 => trivial fixed space (4 cases)"] and clean[0].passed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_built_blocks_carry_the_scenario_etas(p):
    # eta is the image of 1 under eta o varsigma on each line: read it back
    # from the built operator in the plus/minus layout of the branch sign,
    # where the -1 branch sends the minus line's 1 (column d) to the plus line
    for label, s in checks.sign_branch_scenarios(p, 4, 20, 2):
        mat, d = sc.build_block(s).op.mat, s.k_alpha.degree
        if s.sym_alpha:
            assert s.k_alpha.element(mat[:, 0]) == s.eta_alpha, label
            continue
        plus, minus = (0, d) if s.root.branch_sign == 1 else (d, 0)
        got = (s.k_alpha.element(mat[:d, plus]), s.k_alpha.element(mat[d:, minus]))
        assert got == (s.eta_alpha, s.eta_minus_alpha), label


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("max_degree", [1, 2, 3])
def test_sign_branch_scenarios_respect_max_degree(p, max_degree):
    degrees = {s.k_alpha.degree for _, s in checks.sign_branch_scenarios(p, max_degree, 2)}
    assert degrees == set(range(1, max_degree + 1))


def test_action_fixtures_are_the_literal_actions():
    assert sc.one_orbit_action(1, False) == sc.OrbitAction(2, (0, 1), (1, 0), (0, 1))
    assert sc.one_orbit_action(2, True) == sc.OrbitAction(2, (1, 0), (1, 0), (0, 1))
    assert sc.one_orbit_action(2, False, shift=1, neg=True) == sc.OrbitAction(4, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert sc.one_orbit_action(1, False, neg=True) == sc.OrbitAction(2, (0, 1), (1, 0), (1, 0))
    assert sc.one_orbit_action(2, True, neg=True) == sc.OrbitAction(2, (1, 0), (1, 0), (1, 0))
    # gamma^shift for every shift, negative ones included
    assert sc.one_orbit_action(4, False, shift=3) == sc.one_orbit_action(4, False, shift=-1)
    assert sc.one_orbit_action(4, False, shift=3).theta == (3, 0, 1, 2, 7, 4, 5, 6)


def test_one_orbit_action_rejects_odd_symmetric_orbit():
    with pytest.raises(sc.SignCalcError):
        sc.one_orbit_action(3, True)


def test_twist_order_is_the_lcm_of_its_cycles():
    # 80 roots, identity Frobenius, theta with cycles 5, 7, 8, 9 and 11 on
    # each half: order 27720, found without powering theta
    half = []
    for length in (5, 7, 8, 9, 11):
        base = len(half)
        half += [base + (i + 1) % length for i in range(length)]
    theta = tuple(half) + tuple(x + 40 for x in half)
    act = sc.OrbitAction(80, tuple(range(80)), tuple((i + 40) % 80 for i in range(80)), theta)
    assert act.theta_order == 27720
    assert all(root.m == len(root.theta) and root.branch_sign == 1 for root in act.roots)


def _two_orbit_assembly():
    act = sc.OrbitAction(4, (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    no = ff.norm_one_group(F9, F3)
    scen = {
        0: sc.OrbitScenario(act, 0, F3, F3, F3, F3, F3.one(), F3.from_int(2), F3.from_int(2), "asym/asym"),
        2: sc.OrbitScenario(act, 2, F9, F3, F9, F3, C9, no[2], None, "sym-ur/sym-ur"),
    }
    return act, scen, no


def test_symmetric_s_value_off_the_norm_one_group_is_refused():
    # the formula side computes eta' by field arithmetic, the oracle side
    # builds [s] on the block: both refuse an s that is no element of the
    # norm-one torus
    act, scen, no = _two_orbit_assembly()
    for off in (x for x in F9.units() if x not in no):
        svals = {0: F3.one(), 2: off}
        for run in (lambda: sc.assemble_product(act, scen, svals),
                    lambda: sc.full_space_oracle(act, scen, svals),
                    lambda: sc.twisted_scenario(scen[2], svals)):
            with pytest.raises(sc.SignCalcError, match="symmetric s-value must be norm-one"):
                run()
    assert sc.twisted_scenario(scen[2], {0: F3.one(), 2: no[1]}).eta_alpha == no[1] * no[2]


@pytest.mark.parametrize("keys,message", [
    ((0, 2, 99), "s_values key 99 is not a root index 0..3"),
    ((0, -2), "s_values key -2 is not a root index 0..3"),
    ((0, True), "s_values key True is not a root index 0..3"),
    ((0, 1, 2), "s_values keys 0 and 1 share a Sigma-orbit"),
    ((1, 0, 2), "s_values keys 1 and 0 share a Sigma-orbit"),
])
def test_s_values_keys_are_root_indices_one_per_sigma_orbit(keys, message):
    act, scen, no = _two_orbit_assembly()
    values = {0: F3.from_int(2), 1: F3.from_int(2), 2: no[1]}
    svals = {k: values.get(k, F3.one()) for k in keys}
    for run in (lambda: sc.assemble_product(act, scen, svals),
                lambda: sc.full_space_oracle(act, scen, svals),
                lambda: sc.twisted_scenario(scen[0], svals)):
        with pytest.raises(sc.SignCalcError, match=message):
            run()


@pytest.mark.parametrize("p", [3, 5])
def test_s_value_transport_inverts_under_negation_and_follows_frobenius(p):
    # assemble_product and full_space_oracle both read s at every root of a
    # Sigma-orbit through _value_at_root, so comparing them cannot see a wrong
    # transport: check it against bar-(-r)(s) = bar-r(s)^-1 and
    # bar-frob(r)(s) = bar-r(s)^p directly, from every key of the orbit
    families = {}
    for label, s in checks.sign_branch_scenarios(p, 4, 1):
        families.setdefault(label, s)
    checked = 0
    for label, s in families.items():
        act, root, k = s.action, s.action.roots[0], s.k_alpha
        if root.symmetric:  # s lies in the norm-one torus: bar-(-r)(s) is bar-r(s)^(p^tau) too
            values = [x for x in k.units() if x * x.frobenius(root.tau_exp) == k.one()]
        else:
            values = list(k.units())
        for key in sorted(root.sigma):
            for val in values[:6]:
                at = functools.partial(sc._value_at_root, act, {key: val})
                for r in sorted(root.sigma):
                    assert at(act.neg[r]) == at(r).inverse(), (label, key, val, r)
                    assert at(act.frobenius[r]) == at(r).frobenius(1), (label, key, val, r)
                    checked += 2
    assert checked > 500


# One invalid scenario per refusal of validate_scenario, in its order: the
# root index and classification, the family part (family_target), then the
# twist.  Each row edits a valid base scenario with dataclasses.replace: ASYM
# (asym/asym over F_3) or SYM (sym-ur/sym-ur over F_9).
F5, F27 = ff.field(5, 1), ff.field(3, 3)
ASYM = sc.OrbitScenario(sc.one_orbit_action(1, False), 0, F3, F3, F3, F3, F3.one(), F3.one(), F3.one(), "asym/asym")
SYM = next(checks.orbit_scenarios(sc.one_orbit_action(2, True), 0, 3))
_F9_UNITS = dict(C=F9.one(), eta_alpha=F9.one(), eta_minus_alpha=F9.one())
REFUSALS = [
    ("alpha-range", ASYM, dict(alpha=2), sc.SignCalcError, "alpha = 2 is not a root index 0..1"),
    ("alpha-unhashable", ASYM, dict(alpha=[0]), sc.SignCalcError, "alpha = [0] is not a root index 0..1"),
    # equal to alpha = 0 and with its hash
    ("alpha-float", ASYM, dict(alpha=0.0), sc.SignCalcError, "alpha = 0.0 is not a root index 0..1"),
    ("classification-unknown", ASYM, dict(classification="asym/nope"), sc.SignCalcError,
     "unknown classification 'asym/nope'"),
    ("classification-unhashable", ASYM, dict(classification=["asym/asym"]), sc.SignCalcError,
     "unknown classification ['asym/asym']"),
    ("mixed-characteristic", ASYM, dict(k_res=F5), sc.SignCalcError, "mixed characteristics in the field tags"),
    ("tower", ASYM, dict(k_res=F9), sc.SignCalcError, "field degrees do not form a tower"),
    ("stabilizer", ASYM, dict(k_alpha=F9, k_pm_alpha=F9, k_res=F9, k_pm_res=F9), sc.SignCalcError,
     "residue degrees incompatible with stabilizer indices"),
    ("f-coprime", ASYM, dict(action=sc.one_orbit_action(3, False), k_alpha=F27, k_pm_alpha=F27), sc.SignCalcError,
     "f_alpha must be coprime to p"),
    ("twist-order", ASYM, dict(action=sc.OrbitAction(6, tuple(range(6)), (3, 4, 5, 0, 1, 2), (1, 2, 0, 4, 5, 3))),
     sc.SignCalcError, "the twist order must be coprime to p"),
    ("sigma-fixed-field", ASYM, dict(action=sc.one_orbit_action(4, False, 2), k_alpha=F9, k_pm_alpha=F9, **_F9_UNITS),
     sc.SignCalcError, "sigma_alpha fixes GF(p^2) on the residue level, expected GF(p^1)"),
    ("branch", ASYM, dict(classification="asym/sym-ur"), sc.SignCalcError,
     "the orbit of alpha is asym/asym; classification says 'asym/sym-ur'"),
    ("C-zero", ASYM, dict(C=F3.zero()), sc.SignCalcError, "C must be a unit of k_alpha"),
    ("C-other-field", ASYM, dict(C=F9.one()), sc.SignCalcError, "C must be a unit of k_alpha"),
    # equal to the cached C = 1 and with its hash: the cache is typed
    ("C-int", ASYM, dict(C=1), AttributeError, "'int' object has no attribute 'parent'"),
    ("symmetric-ramified", SYM, dict(k_pm_alpha=F9), sc.FormDegenerate, "symmetric ramified alpha admits no antisymmetric C"),
    ("tau-order", SYM, dict(action=sc.one_orbit_action(4, True)), sc.SignCalcError,
     "tau does not act as the order-2 residue automorphism"),
    ("C-tau-invariant", SYM, dict(C=F9.one()), sc.FormDegenerate, "C is not tau-antiinvariant"),
    ("asymmetric-k-pm", ASYM, dict(action=sc.one_orbit_action(2, False, 1), k_alpha=F9, **_F9_UNITS),
     sc.SignCalcError, "asymmetric alpha needs k_alpha = k_pm_alpha"),
    ("res-over-pm-res", ASYM, dict(action=sc.one_orbit_action(2, False, 1, True), k_alpha=F9, k_pm_alpha=F9,
                                   classification="asym/sym-ur", **_F9_UNITS),
     sc.SignCalcError, "[k_res : k_pm_res] = 1 does not fit a sym-ur restricted root"),
    ("eta-zero", SYM, dict(eta_alpha=F9.zero()), sc.SignCalcError, "eta_alpha must be a unit of k_alpha"),
    ("eta-other-field", SYM, dict(eta_alpha=F3.one()), sc.SignCalcError, "eta_alpha must be a unit of k_alpha"),
    ("eta-norm", SYM, dict(eta_alpha=next(e for e in F9.units() if e * e.frobenius(1) != sc.eta_target(SYM.root, SYM.C))),
     sc.FormDegenerate, "eta_alpha tau(eta_alpha) != varsigma(C)/C"),
    ("eta-minus-missing", ASYM, dict(eta_minus_alpha=None), sc.SignCalcError, "asymmetric alpha needs eta_minus_alpha"),
    ("eta-minus-zero", ASYM, dict(eta_minus_alpha=F3.zero()), sc.SignCalcError, "eta values must be units of k_alpha"),
    ("eta-minus-other-field", ASYM, dict(eta_minus_alpha=F9.one()), sc.SignCalcError, "eta values must be units of k_alpha"),
    ("eta-product", ASYM, dict(eta_minus_alpha=F3.from_int(2)), sc.FormDegenerate,
     "eta_alpha eta_minus_alpha violates form preservation"),
]


@pytest.mark.parametrize("base, edit, exc, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_is_the_same_on_a_cold_and_a_warm_family_cache(base, edit, exc, message):
    sc.family_target.cache_clear()
    for _ in range(2):  # cold, then with the base's family cached: no refusal is cached
        with pytest.raises(Exception) as info:
            dataclasses.replace(base, **edit)
        assert type(info.value) is exc and str(info.value) == message
        dataclasses.replace(base)
    assert sc.family_target.cache_info().currsize == 1


def test_family_check_runs_once_per_family_and_every_scenario_checks_its_twist(monkeypatch):
    # family_target computes the target once per (action, alpha, fields, C,
    # classification); every scenario the generator yields checks its twist
    targets, twists = [], []
    monkeypatch.setattr(sc, "eta_target", lambda root, c, orig=sc.eta_target: targets.append(c) or orig(root, c))
    monkeypatch.setattr(sc, "_check_eta", lambda s, target, orig=sc._check_eta: twists.append(s) or orig(s, target))
    sc.family_target.cache_clear()
    scenarios = [(label, s) for p in (3, 5) for label, s in checks.sign_branch_scenarios(p, 4, ff.FIELD_CAP, 2)]
    families = {(label, s.C) for label, s in scenarios}
    assert len(targets) == len(families) == 58 and len(scenarios) == 5236
    assert [s for _, s in scenarios] == twists


def test_hashes_are_computed_once_and_unchanged():
    act = sc.one_orbit_action(4, False, 1, True)
    assert hash(act) == act._hash == hash((act.size, act.frobenius, act.neg, act.theta))
    assert hash(F9) == F9._hash == hash((3, 2, F9.modulus))
    assert hash(ff.FieldDesc(3, 2, F9.modulus)) == hash(F9)


def test_stacked_sign_sweep_equals_a_per_block_reference():
    # one trace_stack per block space gives each block trace_omega's value
    # bit for bit: the same counts, worst errors and signs, in the same order
    want: dict[str, checks.FamilyStats] = {}
    for p in (3, 5):
        for label, s in checks.sign_branch_scenarios(p, 4, 16):
            bb, bv = sc.build_block(s), sc.block_sign_formula(s)
            st = want.setdefault(label, checks.FamilyStats())
            st.count += 1
            st.worst = checks.max_error([st.worst, abs(bv.value - weil.WeilModel(bb.space).trace_omega(bb.op))])
            st.signs.add(bv.sign)
    got = checks.sign_sweep((3, 5), 4, 16)
    assert list(got) == list(want)
    assert [(st.count, st.worst.hex(), st.signs) for st in got.values()] == [
        (st.count, st.worst.hex(), st.signs) for st in want.values()]
