import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from weilchar import checks, modp, signcalc, symplectic as sym, weil

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def model5():
    return weil.WeilModel(sym.standard_polarized_space(5, 1))


def test_dimension_and_central_character():
    for p, n in ((3, 1), (5, 1), (3, 2)):
        m = weil.WeilModel(sym.standard_polarized_space(p, n))
        assert m.dim == p**n
        z = m.rho((0,) * 2 * n, 1)
        assert np.abs(z - modp.theta_values(p)[1] * np.eye(p**n)).max() < 1e-12


def test_rho_character_shape():
    # trace rho(v, z) = 0 for v != 0 and theta(z) p^n at v = 0
    m = weil.WeilModel(sym.standard_polarized_space(3, 1))
    for v, z in itertools.product(itertools.product(range(3), repeat=2), range(3)):
        tr = np.trace(m.rho(v, z))
        if any(v):
            assert abs(tr) < 1e-12
        else:
            assert abs(tr - modp.theta_values(3)[z] * 3) < 1e-12


def test_rho_irreducible():
    m = weil.WeilModel(sym.standard_polarized_space(3, 1))
    vs, zs = sym.heis_decode(m.space, np.arange(27))
    total = (abs(np.trace(m.rho(vs, zs), axis1=-2, axis2=-1)) ** 2).sum()
    assert abs(total - 27) < 1e-9


# sha256 of the dense rho(h) of every h in H(V), in heis_decode position
# order, rounded to 12 decimals, recorded when rho built each matrix from its
# own phases
RHO_DIGESTS = {
    (3, 1): "423553dc8ca71feff767ae1e581d74896dbea246cb69c93a6376f17f510b7290",
    (5, 1): "bbbe3ccc922a11473e6db69830814fb8418006639338c0f44a83e77444f6d591",
    (3, 2): "0f3377f58596a42fe25c6672bad59c74fb9a95f585632d0aa99ca8a9b4284b17",
}


@pytest.mark.parametrize("p,n", sorted(RHO_DIGESTS))
def test_dense_rho_pinned(p, n):
    m = weil.WeilModel(sym.standard_polarized_space(p, n))
    mats = m.rho(*sym.heis_decode(m.space, np.arange(p ** (2 * n + 1))))
    digest = hashlib.sha256((np.round(mats, 12) + 0.0).tobytes())  # + 0.0 folds -0.0 into 0.0
    assert digest.hexdigest() == RHO_DIGESTS[(p, n)]


def test_rho_phase_fault_turns_rho_rows_red():
    with checks.FAULTS["rho-half-phase"]():
        rows = checks.check_rho_homomorphism()
    worst = {r.quantity: r.abs_error for r in rows if not r.passed}
    assert worst.keys() == {"rho homomorphism p=3 exhaustive", "rho homomorphism p=5 exhaustive"}
    assert worst["rho homomorphism p=3 exhaustive"] == pytest.approx(abs(1 - modp.theta_values(3)[1]))  # 1.73
    assert worst["rho homomorphism p=5 exhaustive"] == pytest.approx(abs(1 - modp.theta_values(5)[2]))  # 1.90


def test_polarization_validation():
    space = sym.standard_polarized_space(3, 1)
    with pytest.raises(sym.SymplecticError, match="polarization vectors do not span"):
        weil.WeilModel(space, ([(1, 0)], [(2, 0)]))  # not complementary: refused by the span test
    s4 = sym.standard_polarized_space(3, 2)  # coordinates e1, e2, f1, f2
    with pytest.raises(sym.SymplecticError, match="X side not isotropic"):
        weil.WeilModel(s4, ([(1, 0, 0, 0), (0, 0, 1, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)]))
    with pytest.raises(sym.SymplecticError, match="Y side not isotropic"):
        weil.WeilModel(s4, ([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (1, 0, 0, 1)]))
    with pytest.raises(sym.SymplecticError, match="need n vectors on each side"):
        weil.WeilModel(s4, ([(1, 0, 0, 0)], [(0, 0, 1, 0)]))
    m = weil.WeilModel(space, ([(0, 1)], [(1, 0)]))  # swapped Lagrangians: fine
    v = (1, 2)
    g = sym.sp_elements(space)[5]
    og = m.omega(g)
    assert np.abs(og @ m.rho(v, 0) @ np.linalg.inv(og) - m.rho(g.mat @ v % space.p, 0)).max() < 1e-9


def test_weil_operator_examples(model5):
    space = model5.space
    assert np.abs(model5.omega(sym.sp_identity(space)) - np.eye(5)).max() < 1e-12
    # trace of omega(diag(a, a^{-1})) = sgn(a) for a != +-1
    for a, sgn in ((2, -1), (3, -1)):
        g = sym.sp_elem(space, [[a, 0], [0, pow(a, 3, 5)]])
        assert abs(model5.trace_omega(g) - sgn) < 1e-9


def test_weil_operator_multiplicative_all_pairs(model5):
    els = sym.sp_elements(model5.space)
    ops = model5.omega_group(els)
    idx = {g: i for i, g in enumerate(els)}
    worst = 0.0
    for i, g in enumerate(els):
        rhs = ops[np.array([idx[g * h] for h in els])]
        worst = max(worst, float(np.abs(ops[i] @ ops - rhs).max()))
    assert worst < 1e-8


def test_all_pairs_rows_equal_one_product_per_pair():
    # the registry forms each row's products side by side in one matrix
    # product; against size small products per row the worst error may move
    # only by rounding, far below the row's 1e-8 tolerance
    rows = {r.quantity: r.formula for r in checks.check_omega_multiplicative()}
    for p in (3, 5, 7):
        model = weil.WeilModel(sym.standard_polarized_space(p, 1))
        grp = sym.sp_group(model.space)
        ops = model.omega_group(grp.mats)
        want = max(float(np.abs(ops[i] @ ops - ops[grp.positions(grp.mats[i] @ grp.mats)]).max()) for i in range(len(ops)))
        assert abs(rows["omega multiplicative p=%d (all pairs)" % p] - want) < 1e-14


@pytest.mark.parametrize("p", [3, 5, 7])
def test_product_table_equals_one_positions_call_per_row(p):
    # the table walked from the identity along the generators against each
    # row's own positions call on g_i times every element
    grp = sym.sp_group(sym.standard_polarized_space(p, 1))
    want = np.stack([grp.positions(grp.mats[i] @ grp.mats) for i in range(len(grp.mats))])
    assert (checks._product_table(grp) == want).all()


def test_group_traces_are_taken_once_and_read_only(monkeypatch):
    # every whole-group row of a registry run reads one trace_stack per
    # group, whose value no row can change
    checks._clear_caches()
    calls = []
    orig = weil.WeilModel.trace_stack
    monkeypatch.setattr(weil.WeilModel, "trace_stack", lambda model, gs: calls.append(len(gs)) or orig(model, gs))
    for name in ("weil.omega-mult", "weil.algebraic", "weil.conjugacy", "gerardin.polarized", "gerardin.vprime",
                 "gerardin.fixed-line"):
        rows, _ = checks.run_checks(name)
        assert rows and all(r.passed for r in rows)
    grp_sizes = [len(checks._group_traces(p)[0].mats) for p in (3, 5, 7)]
    assert [n for n in calls if n in grp_sizes] == grp_sizes
    grp, semisimple, traces = checks._group_traces(5)
    assert isinstance(traces, tuple) and len(traces) == len(grp.mats)
    with pytest.raises(ValueError):
        semisimple[0] = 1
    checks._clear_caches()


def test_levi_sign_fault_turns_word_equals_group_rows_red():
    # the group model is built from the Schur average alone, so its own rows
    # stay green and every "word model = group model" row, with the word
    # model's own multiplicativity beyond Sp_2, turns red
    with checks.FAULTS["levi-sign"]():
        rows = checks.check_omega_multiplicative()
    assert {r.quantity for r in rows if not r.passed} == {
        "word model = group model p=3", "word model = group model p=5", "word model = group model p=7",
        "word model multiplicative Sp_4(F_3) (9 pairs, ranks 0-2)",
        "word model multiplicative Sp_6(F_3) (16 pairs, ranks 0-3)"}


def test_schur_intertwiner_examples(model5):
    space = model5.space
    t = weil.schur_intertwiner(model5, model5, sym.sp_identity(space))
    # Schur: self-intertwiner is scalar
    assert np.abs(t - t[0, 0] * np.eye(5)).max() < 1e-9
    # the intertwiners each way between two models compose to a scalar
    m2 = weil.WeilModel(space, ([(0, 1)], [(1, 0)]))
    t1 = weil.schur_intertwiner(model5, m2, sym.sp_identity(space))
    t2 = weil.schur_intertwiner(m2, model5, sym.sp_identity(space))
    ratio = t2 @ t1
    assert np.abs(ratio - ratio[0, 0] * np.eye(5)).max() < 1e-9
    # T conjugates the Weil operators with trivial character for p >= 5
    els = sym.sp_elements(space)
    for g, op in zip(els, m2.omega_group(els)):
        lhs = t1 @ model5.omega(g) @ np.linalg.inv(t1)
        assert np.abs(lhs - op).max() < 1e-8


def _schur_loop(model_a, model_b, phi):
    """The Schur average of the matrix unit E_{s0,0} term by term from dense
    rho matrices, for every s0; normalized and with s0 chosen as
    schur_intertwiner chooses it."""
    p, dim_v = model_a.p, model_a.space.dim
    avgs = np.zeros((model_b.dim, model_b.dim, model_a.dim), dtype=complex)
    for s0 in range(model_b.dim):
        unit = np.zeros((model_b.dim, model_a.dim))
        unit[s0, 0] = 1
        for v in itertools.product(range(p), repeat=dim_v):
            # (v, 0)^-1 = (-v, 0)
            avgs[s0] += model_b.rho(phi.mat @ v % p, 0) @ unit @ model_a.rho([-x % p for x in v], 0)
    diag = avgs[:, :, 0].diagonal().real
    acc = avgs[int(np.argmax(diag >= 0.5 * diag.max()))]
    return acc / np.linalg.norm(acc[:, 0])


def _rotated_model(space):
    # the model polarized by the first generator's images of the e and f lines
    g = sym.sp_generators(space)[0]
    n = space.dim // 2
    unit = np.eye(2 * n, dtype=np.int64)
    return weil.WeilModel(space, ([g @ v % space.p for v in unit[:n]], [g @ v % space.p for v in unit[n:]]))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_schur_gather_equals_dense_loop(p, n):
    space = sym.standard_polarized_space(p, n)
    plain, rotated = weil.WeilModel(space), _rotated_model(space)
    phi = checks.cell_element(plain, n, np.random.default_rng(p))
    assert phi != sym.sp_identity(space)
    for model_a, model_b, el in ((plain, plain, sym.sp_identity(space)), (plain, plain, phi),
                                 (plain, rotated, sym.sp_identity(space)), (rotated, plain, phi)):
        got = weil.schur_intertwiner(model_a, model_b, el)
        assert np.abs(got - _schur_loop(model_a, model_b, el)).max() < 1e-12


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2)])
def test_schur_intertwiners_stack_equals_one_at_a_time(p, n):
    # criterion 06 averages each space's loops as one stack; each average is
    # the stack of one's, bit for bit, and one bad matrix refuses the stack
    model = weil.WeilModel(sym.standard_polarized_space(p, n))
    rng = np.random.default_rng(p)
    els = [checks.cell_element(model, r, rng) for r in range(n + 1) for _ in range(2)]
    phis = np.stack([g.mat for g in els])
    stacked = weil.schur_intertwiners(model, model, phis)
    assert stacked.tobytes() == np.stack([weil.schur_intertwiner(model, model, g) for g in els]).tobytes()
    phis[1] = np.diag([2] + [1] * (2 * n - 1))
    with pytest.raises(sym.SymplecticError, match="does not preserve"):
        weil.schur_intertwiners(model, model, phis)


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
    with pytest.raises(weil.WeilError, match=r"map 1 has shape \(3, 2\), expected to land in W_0"):
        weil.cyclic_tensor_trace([np.eye(2), np.ones((3, 2))])


def _swapped_fixture(p):
    v2 = sym.standard_polarized_space(p, 1)
    return weil.block_twist([(sym.sp_identity(v2), 2)]), v2


def test_twisted_trace_examples():
    # one block closed by the identity loop: the ordinary omega-character
    v2 = sym.standard_polarized_space(3, 1)
    twist1 = weil.block_twist([(sym.sp_identity(v2), 1)])
    m = weil.WeilModel(v2)
    for g in sym.sp_elements(v2)[:8]:
        r = weil.twisted_trace(twist1, [g])
        assert abs(r.product_value - m.trace_omega(g)) < 1e-8
        assert abs(r.direct_value - m.trace_omega(g)) < 1e-8

    # two swapped blocks, g = identity: the trace at the norm L
    twist, v2 = _swapped_fixture(3)
    r = weil.twisted_trace(twist, [sym.sp_identity(v2)] * 2)
    want = np.trace(twist[0].model.omega(twist[0].loop))
    assert abs(r.product_value - want) < 1e-9
    assert abs(r.direct_value - want) < 1e-9


def test_block_twist_inverts_each_loop_once(monkeypatch):
    checks._clear_caches()  # a warm block memo would reduce nothing below
    v2 = sym.standard_polarized_space(5, 1)
    loop = sym.sp_elem(v2, sym.sp_generators(v2)[0])
    twist = weil.block_twist([(loop, 2), (sym.sp_identity(v2), 1)])
    callers = {"mat_inv": [], "reduce_rows": []}

    def spy(name):
        orig = getattr(modp, name)

        def counted(*args):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return orig(*args)

        monkeypatch.setattr(modp, name, counted)

    spy("mat_inv")
    spy("reduce_rows")
    for g in sym.sp_elements(v2)[:6]:
        weil.twisted_trace(twist, [g] * 3)
    # the word model's normal forms still reduce, through the spied name,
    # once per distinct block
    assert "_reduce_block" in callers["reduce_rows"]
    assert not {"twisted_trace", "twisted_trace_stack"} & set(callers["mat_inv"])


@pytest.mark.parametrize("p", [3, 5])
def test_twisted_trace_on_chains_with_loop_of_order_3(p):
    # L^2 = L^-1 is not central, so the norms g_0 L g_l ... g_1 and
    # g_0 L^-1 g_l ... g_1 give different traces; the direct tensor trace
    # decides
    v2 = sym.standard_polarized_space(p, 1)
    els = sym.sp_elements(v2)
    loop = next(g for g in els if g.order() == 3)
    rng = random.Random(p)
    for length in (1, 2, 3):
        [chain] = weil.block_twist([(loop, length)])
        assert chain.whole.space.blocks == tuple(tuple(range(2 * j, 2 * j + 2)) for j in range(length))
        # the direct path closed by L^-1 in place of L, on the same elements
        closed_by_inverse = weil.block_cycle(chain.whole.space, loop.inverse())
        apart = 0.0
        for _ in range(6):
            parts = [rng.choice(els) for _ in range(length)]
            g = sym.block_diagonal(chain.whole.space, [h.mat for h in parts])
            r = weil.twisted_trace((chain,), parts)
            assert abs(r.product_value - r.direct_value) < 1e-8
            apart = max(apart, abs(r.product_value - chain.sign * chain.whole.trace_omega(g * closed_by_inverse)))
        assert apart > 0.5


def _rotation_big_op(ms):
    """Matrix of v_0 x ... x v_l -> I_l(v_l) x I_0(v_0) x ... x I_{l-1}(v_{l-1}),
    the whole rotated operator: the reference for the library's diagonal."""
    l = len(ms) - 1
    letters, caps = "abcdefghijkl", "ABCDEFGHIJKL"
    # output slot 0 takes I_l applied to input slot l; slot j+1 takes I_j on slot j
    subs = [letters[0] + caps[l]] + [letters[j + 1] + caps[j] for j in range(l)]
    out = letters[: l + 1] + caps[: l + 1]
    arr = np.einsum(",".join(subs) + "->" + out, ms[l], *ms[:l])
    n = int(np.prod([m.shape[1] for m in ms]))
    return arr.reshape(n, n)


def _random_chain(rng, l):
    # I_j: W_j -> W_{j+1}, the W_j of unequal dimensions 1 to 4
    dims = [int(rng.integers(1, 5)) for _ in range(l + 1)]
    shapes = [(dims[(j + 1) % (l + 1)], dims[j]) for j in range(l + 1)]
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


def test_rotation_diagonal_is_the_big_operators_diagonal():
    rng = np.random.default_rng(19)
    for l in range(5):
        for _ in range(30):
            ms = _random_chain(rng, l)
            big = _rotation_big_op(ms)
            diagonal = weil._rotation_diagonal(ms).ravel()
            assert np.array_equal(diagonal, np.diagonal(big))
            assert weil.cyclic_tensor_trace(ms)[0] == complex(np.trace(big))


def _kron_rotation_direct(twist, parts):
    """The direct value as the tensor-product trace: per chain, the Kronecker
    product of the block operators against the rotation of the tensor
    factors by the intertwiners I, ..., I, omega_word(L)."""
    parts = iter(parts)
    value = 1.0 + 0j
    for chain in twist:
        ident = np.eye(chain.model.dim)
        rot = _rotation_big_op([ident] * (chain.length - 1) + [chain.model.omega_word(chain.loop)])
        tensor_g = np.ones((1, 1))
        for _ in range(chain.length):
            tensor_g = np.kron(tensor_g, chain.model.omega(next(parts)))
        value *= complex(np.trace(tensor_g @ rot))
    return value


@pytest.mark.parametrize("seed", [0, 7])
def test_direct_value_equals_tensor_trace_on_criterion_04_fixtures(seed):
    for label, twist, gs in checks.twisted_trace_fixtures(seed):
        worst = max(abs(weil.twisted_trace(twist, parts).direct_value - _kron_rotation_direct(twist, parts))
                    for parts in gs)
        assert worst < 1e-10, label


@pytest.mark.parametrize("p,n,length", [(3, 1, 3), (3, 1, 4), (5, 1, 4), (3, 2, 3)])
def test_direct_value_equals_tensor_trace_on_chains(p, n, length):
    # loops from every Bruhat cell of the block, and a block-diagonal g with
    # parts from random cells; tensor dimensions 27 to 729.  (n, length) =
    # (2, 4) would need three dense 6561 x 6561 complex matrices, 2 GB
    block = weil.WeilModel(sym.standard_polarized_space(p, n))
    rng = np.random.default_rng(100 * p + 10 * n + length)
    for r in range(n + 1):
        twist = weil.block_twist([(checks.cell_element(block, r, rng), length)])
        for _ in range(2):
            parts = [checks.cell_element(block, int(rng.integers(n + 1)), rng) for _ in range(length)]
            res = weil.twisted_trace(twist, parts)
            assert abs(res.direct_value - _kron_rotation_direct(twist, parts)) < 1e-10
            assert abs(res.product_value - res.direct_value) < 1e-8


def test_twisted_trace_faults_turn_criterion_04_red():
    for fault, red in (("twisted-sign", "twisted trace p=3 two swapped blocks (all pairs)"),
                       ("twisted-loop", "twisted trace p=5 fixed + swapped pair, loops of order 3")):
        with checks.FAULTS[fault]():
            rows = checks.check_twisted_trace_decomposition()
        assert {r.quantity for r in rows if not r.passed} == {red}, fault


def test_twisted_trace_on_many_one_block_groups_stays_small():
    # the direct side is one chain model per group, so its cost adds over
    # the groups: a model of the whole direct sum of 14 blocks of Sp_2(F_3)
    # would have 3^14 points and a 100 MB point table
    v2 = sym.standard_polarized_space(3, 1)
    els = sym.sp_elements(v2)
    rng = random.Random(14)
    loops = [rng.choice(els) for _ in range(14)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        twist = weil.block_twist([(loop, 1) for loop in loops])
        for _ in range(3):
            parts = [rng.choice(els) for _ in loops]
            r = weil.twisted_trace(twist, parts)
            want = np.prod([weil.WeilModel(v2).trace_omega(g * loop) for g, loop in zip(parts, loops)])
            assert abs(r.direct_value - want) < 1e-8 * max(1, abs(want))
            assert abs(r.product_value - r.direct_value) < 1e-8 * max(1, abs(want))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert elapsed < 10, elapsed


def test_block_twist_rejects_empty_chains():
    loop = sym.sp_identity(sym.standard_polarized_space(3, 1))
    for chains in ([], [(loop, 0)], [(loop, 2), (loop, -1)]):
        with pytest.raises(weil.WeilError, match="need one or more chains, each of length >= 1"):
            weil.block_twist(chains)


def test_twisted_trace_refuses_the_wrong_number_of_parts():
    # one part per block, chain after chain: 2 blocks, and 3 across two chains
    v2 = sym.standard_polarized_space(3, 1)
    one = sym.sp_identity(v2)
    for chains, blocks in (([(one, 2)], 2), ([(one, 1), (one, 2)], 3)):
        twist = weil.block_twist(chains)
        for count in (0, blocks - 1, blocks + 1):
            with pytest.raises(weil.WeilError, match="%d parts for %d blocks" % (count, blocks)):
                weil.twisted_trace(twist, [one] * count)


def test_twisted_trace_refuses_parts_from_another_space():
    # a p = 3 twist of two swapped Sp_2 blocks: at the parent (-I) + (-I) in
    # Sp_4(F_5) was read mod 3, [[1, 4], [0, 1]] over F_5 on both blocks gave
    # 1.732i, and a part of another dimension escaped as an IndexError
    twist, v2 = _swapped_fixture(3)
    v5 = sym.standard_polarized_space(5, 1)
    minus = sym.sp_elem(v5, -np.eye(2, dtype=np.int64))
    unipotent = sym.sp_elem(v5, [[1, 4], [0, 1]])
    wide = sym.sp_identity(sym.standard_polarized_space(3, 2))
    for parts in ([minus, minus], [unipotent, unipotent], [sym.sp_identity(v2), wide], [wide, wide]):
        with pytest.raises(weil.WeilError, match="chain 0 is not an element of its block space"):
            weil.twisted_trace(twist, parts)
    # across two chains the refusal names the chain
    twist = weil.block_twist([(sym.sp_identity(v2), 1), (sym.sp_identity(v5), 2)])
    with pytest.raises(weil.WeilError, match="chain 1"):
        weil.twisted_trace(twist, [sym.sp_identity(v2)] * 3)


def test_off_sample_fault_turns_character_conjugacy_red():
    with checks.FAULTS["off-sample-trace"]():
        rows = checks.check_character_conjugacy_invariance()
    # every element of Sp_2(F_3/5/7) against its class representative
    assert [r.quantity for r in rows] == ["character conjugacy invariance p=%d (%d elements)" % (p, p**3 - p)
                                          for p in (3, 5, 7)]
    assert [r.passed for r in rows] == [True, False, True]
    assert abs(rows[1].abs_error - 0.5) < 1e-9


def test_group_model_refuses_a_table_past_its_cap():
    # Sp_2(F_23) is within the enumeration cap, but its table of 12144
    # operators of dimension 23 is not; Sp_2(F_19)'s fits
    assert 6840 * 19**2 <= weil.GROUP_TABLE_CAP < 12144 * 23**2
    with pytest.raises(weil.WeilError, match="exceed the group table cap"):
        weil.WeilModel(sym.standard_polarized_space(23, 1)).build_group_model()


def test_word_model_beyond_group_cap():
    # Sp_2(F_41), the next group past the enumeration cap; the word model
    # still evaluates
    v2 = sym.standard_polarized_space(41, 1)
    m = weil.WeilModel(v2)
    with pytest.raises(sym.SymplecticError, match="enumeration cap"):
        sym.sp_group(v2)
    gens = [sym.sp_elem(v2, m) for m in sym.sp_generators(v2)]
    g = gens[0] * gens[1] * gens[2]
    h = gens[2] * gens[1] * gens[0]
    err = np.abs(m.omega_word(g) @ m.omega_word(h) - m.omega_word(g * h)).max()
    assert err < 1e-9


def test_sl2_f3_convention_real_on_order_4_torus():
    # the scalar convention for SL_2(F_3) (classical unipotent seed) gives a
    # character that is real on the norm-one torus of order 4, and agrees
    # with the generator word model everywhere
    from weilchar import ffield as ff

    torus = sym.Torus(3, ((1, True),))
    model = weil.WeilModel(torus.space)
    trs = np.trace(model.omega_group([t.elem for t in torus.elements()]), axis1=1, axis2=2)
    assert np.abs(trs.imag).max() < 1e-9
    els = sym.sp_elements(torus.space)
    for g, op in zip(els, model.omega_group(els)):
        assert np.abs(op - model.omega_word(g)).max() < 1e-8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_model_equals_word_model_on_every_element(p):
    # elements of order divisible by p included: they are products of two
    # operators scaled by order and determinant, or of one and U0 at p = 3
    space = sym.standard_polarized_space(p, 1)
    els = sym.sp_elements(space)
    for model in (weil.WeilModel(space), _rotated_model(space)):
        assert max(float(np.abs(op - model.omega_word(g)).max()) for g, op in zip(els, model.omega_group(els))) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_model_slices_change_no_bit(p, monkeypatch):
    # build_group_model averages its stack in slices of GATHER_CHUNK_ENTRIES
    # gathered entries; one element per slice gives the same table bit for bit
    space = sym.standard_polarized_space(p, 1)
    whole = weil.WeilModel(space)
    whole.build_group_model()
    monkeypatch.setattr(weil, "GATHER_CHUNK_ENTRIES", 1)
    sliced = weil.WeilModel(space)
    sliced.build_group_model()
    assert whole._group_table.tobytes() == sliced._group_table.tobytes()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_selfcheck_group_models_fit_one_slice(p, monkeypatch):
    # the selfcheck's group models are Sp_2(F_p) at p <= 7; each averages its
    # whole stack (at p = 7, 240 elements of p^3 = 343 entries) in one slice
    slices = []
    average = weil._schur_average
    monkeypatch.setattr(weil, "_schur_average", lambda a, b, phis: slices.append(len(phis)) or average(a, b, phis))
    weil.WeilModel(sym.standard_polarized_space(p, 1)).build_group_model()
    assert len(slices) == 1
    assert slices[0] * p**3 <= weil.GATHER_CHUNK_ENTRIES


@pytest.mark.parametrize("p", [3, 5, 7])
def test_trace_omega_ignores_group_model(p):
    # one oracle path: building the whole-group model changes no trace
    m = weil.WeilModel(sym.standard_polarized_space(p, 1))
    els = sym.sp_elements(m.space)
    before = [m.trace_omega(g) for g in els]
    m.build_group_model()
    assert [m.trace_omega(g) for g in els] == before


def _lagrangians(space):
    """Every Lagrangian of space once, as the rows of its reduced echelon
    basis: each n x 2n matrix over F_p that is its own rref, of rank n and
    isotropic."""
    p, n = space.p, space.dim // 2
    out = []
    for entries in itertools.product(range(p), repeat=n * space.dim):
        m = np.array(entries, dtype=np.int64).reshape(n, space.dim)
        red, pivots = modp.rref(m, p)
        if len(pivots) == n and np.array_equal(red, m) and not (m @ space.gram @ m.T % p).any():
            out.append(m)
    return out


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_polarized_frame_is_read_off_the_form(p, n):
    # every transversal pair of Lagrangians, in both orders: the frame B has
    # B^T G B = J, and to_std = J^T B^T G (sym.frame_inverse) is the
    # Gauss-Jordan inverse of B, the rule it replaced
    space = sym.standard_polarized_space(p, n)
    lags = _lagrangians(space)
    assert len(lags) == np.prod([p**i + 1 for i in range(1, n + 1)])
    std = space.gram  # the standard space's form is J
    pairs = 0
    for xs, ys in itertools.permutations(lags, 2):
        if modp.rank(np.vstack([xs, ys]), p) < 2 * n:
            with pytest.raises(sym.SymplecticError, match="polarization vectors do not span"):
                weil.WeilModel(space, (xs, ys))
            continue
        m = weil.WeilModel(space, (xs, ys))
        assert not ((m.from_std.T @ space.gram @ m.from_std - std) % p).any()
        assert np.array_equal(m.to_std, modp.mat_inv(m.from_std, p))
        pairs += 1
    # a Lagrangian has p^(n(n+1)/2) transversal ones
    assert pairs == len(lags) * p ** (n * (n + 1) // 2)


def test_even_characteristic_rejected():
    # 2 has no inverse mod 2, so the rho phase theta(<x,y>/2) is undefined
    with pytest.raises(weil.WeilError):
        weil.WeilModel(sym.standard_polarized_space(2, 1))


_TABLE_DIGEST = """
import hashlib
from weilchar import symplectic as sym, weil
h = hashlib.sha256()
for p in (3, 5):
    space = sym.standard_polarized_space(p, 1)
    m = weil.WeilModel(space)
    h.update(m.omega_group(sym.sp_elements(space)).tobytes())
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


def test_registry_imports_no_masked_arrays():
    # np.unique imports numpy.ma (about 5 ms and 1 MB) on its first call;
    # the registry takes its class representatives from sorted sets
    code = "import sys\nfrom weilchar import checks\nchecks.run_checks()\nprint('numpy.ma' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True)
    assert out.stdout.split() == ["False"]


def test_group_model_build_imports_no_masked_arrays():
    # the unanchored elements are one boolean mask; np.setdiff1d would import
    # numpy.ma (15-20 ms and about 1 MB) in every process that builds a model
    code = ("import sys\nfrom weilchar import symplectic as sym, weil\n"
            "weil.WeilModel(sym.standard_polarized_space(5, 1)).build_group_model()\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True)
    assert out.stdout.split() == ["False"]


# -- word model: one normal form per Bruhat cell ---------------------------


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (5, 4)])
def test_word_model_paths(p, n):
    # model dimensions 3, 5, 9, 25, 27, 81, 125, 625; one element per cell
    # rank r = rank C, each taking the normal form's one path with |S| = r
    space = sym.standard_polarized_space(p, n)
    m = weil.WeilModel(space)
    rng = np.random.default_rng(p * 10 + n)
    els = [checks.cell_element(m, r, rng) for r in range(n + 1)]
    ident = np.eye(m.dim)
    ops = [m.omega_word(g) for g in els]
    for r, (g, dense) in enumerate(zip(els, ops)):
        c = (m.to_std @ g.mat @ m.from_std % p)[n:, :n]
        assert m.word_factors(g).rank == modp.rank(c, p) == r
        assert np.abs(dense @ dense.conj().T - ident).max() < 1e-9
        assert abs(m.trace_omega(g) - np.trace(dense)) < 1e-10
        nxt = (r + 1) % (n + 1)
        assert np.abs(dense @ ops[nxt] - m.omega_word(g * els[nxt])).max() < 1e-9


def test_trace_word_on_large_sign_blocks():
    # the six seeded blocks of model dimension 625 (one eta per family and C)
    blocks = [sc for _, sc in checks.sign_branch_scenarios(5, 4, 1, 2)
              if sc.p ** (sc.k_alpha.degree // 2 if sc.sym_alpha else sc.k_alpha.degree) == 625]
    assert len(blocks) == 6
    for sc in blocks:
        bv, bb = signcalc.block_sign_formula(sc), signcalc.build_block(sc)
        m = weil.WeilModel(bb.space)
        tr = m.trace_omega(bb.op)
        assert abs(tr - np.trace(m.omega_word(bb.op))) < 1e-10
        assert abs(bv.value - tr) < 1e-8


@pytest.mark.parametrize("p,d", [(7, 4), (3, 8)])
def test_trace_word_on_frontier_blocks(p, d):
    # model dimensions 2401 and 6561: the trace is taken without the dense
    # operator, which at N = 6561 alone would take 690 MB
    blocks = [sc for label, sc in checks.sign_branch_scenarios(p, d, 1, 1)
              if label.startswith("asym/asym") and sc.k_alpha.degree == d]
    assert blocks
    for sc in blocks:
        bv, bb = signcalc.block_sign_formula(sc), signcalc.build_block(sc)
        m = weil.WeilModel(bb.space)
        assert m.dim == p**d
        assert abs(m.trace_omega(bb.op) - bv.value) < 1e-8


def test_fourier_scalar_fault_is_caught():
    with checks.FAULTS["fourier-scalar"]():
        rows = checks.check_omega_multiplicative()
        stats = checks.sign_sweep((3,), 2, 4)
    failed = {r.quantity for r in rows if not r.passed}
    # c_r flips by (-1)^r at p = 3, which no character of Sp_4 or Sp_6 absorbs
    assert failed == {
        "word model = group model p=3",
        "word model = group model p=7",
        "word model multiplicative Sp_4(F_3) (9 pairs, ranks 0-2)",
        "word model multiplicative Sp_6(F_3) (16 pairs, ranks 0-3)",
    }
    assert max(st.worst for st in stats.values()) > 1e-8
    # the ramified signs are closed-form, so the sweep sees the fault there too
    for label in ("asym/sym-ram p=3 d=1 f=1", "sym-ur/sym-ram p=3 g=1"):
        assert stats[label].worst > 1e-8, label


TRACE_ROWS = {"word trace = trace of word model %s" % g
              for g in ("p=3", "p=5", "p=7", "Sp_4(F_3)", "Sp_6(F_3)")}


@pytest.mark.parametrize("fault", ["trace-cross-term", "trace-support"], ids=["cross-term", "support-sum"])
def test_trace_fault_turns_trace_rows_red(fault):
    # the trace reads the normal form apart from omega_word, so the rows that
    # compare the two, and the sign sweep, must see a fault in either part
    with checks.FAULTS[fault]():
        failed = {r.quantity for r in checks.check_omega_multiplicative() if not r.passed}
        worst = max(st.worst for st in checks.sign_sweep((3,), 2, 4).values())
    assert failed == TRACE_ROWS
    assert worst > 1e-8


@pytest.mark.parametrize("p,n", [(32749, 1), (181, 2)])
def test_trace_at_the_largest_primes_under_the_cap(p, n):
    # 32749 is the largest prime p with p <= MODEL_DIM_CAP, 181 with p^2 <= it:
    # the integer phases must not wrap in int64, and |tr omega(g)|^2 =
    # p^dim ker(g - 1) (Howe 1973) holds on every cell rank
    top = int(weil.MODEL_DIM_CAP ** (1 / n))
    assert modp.is_prime(p) and p <= top and not any(modp.is_prime(q) for q in range(p + 1, top + 1))
    m = weil.WeilModel(sym.standard_polarized_space(p, n))
    assert m.trace_omega(sym.sp_identity(m.space)) == p**n
    rng = np.random.default_rng(p)
    ident = np.eye(2 * n, dtype=np.int64)
    for r in range(n + 1):
        for _ in range(3):
            g = checks.cell_element(m, r, rng)
            assert m.word_factors(g).rank == r
            fixed = 2 * n - modp.rank(g.mat - ident, p)
            assert abs(abs(m.trace_omega(g)) ** 2 / p**fixed - 1) < 1e-12


def test_word_factors_refuse_another_space(model5):
    g = sym.sp_elem(model5.space, [[1, 1], [4, 0]])
    f = model5.word_factors(g)
    # the normal form is its n x n matrices mod p, no p^n-point arrays
    for m in (f.t, f.a2, f.b1, f.b2):
        assert m.dtype == np.int64 and m.shape == (1, 1) and m.min() >= 0 and m.max() < 5
    again = sym.sp_elem(model5.space, [[6, 1], [9, 5]])  # the same matrix mod 5, a new SpElem
    assert abs(model5.trace_omega(g) - np.trace(model5.omega_word(again))) < 1e-10
    # in Sp_2 every det-1 matrix preserves every form: equal matrices
    # from another space still raise
    other = sym.symp_space(5, [[0, 2], [3, 0]])
    g_other = sym.sp_elem(other, g.mat)
    assert g_other.mat.tobytes() == g.mat.tobytes() and other != model5.space
    for fn in (model5.word_factors, model5.omega_word, model5.trace_omega):
        with pytest.raises(sym.SymplecticError, match="element from another space"):
            fn(g_other)


# -- word model on element stacks -------------------------------------------


def _normal_form_bytes(f):
    return (f.rank, int(f.sgn), f.t.tobytes(), f.a2.tobytes(), f.b1.tobytes(), f.b2.tobytes())


def _stack_equals_one_at_a_time(m, els, operators=True):
    """trace_stack, omega_stack and normal_forms on els equal the single-
    element calls bit for bit, in input order."""
    assert m.trace_stack(els).tobytes() == np.array([m.trace_omega(g) for g in els]).tobytes()
    if operators:
        assert m.omega_stack(els).tobytes() == np.stack([m.omega_word(g) for g in els]).tobytes()
    seen = []
    for pos, f in m.normal_forms(els):
        assert f.t.shape == (len(pos), m.n, m.n) and f.sgn.shape == (len(pos),)
        for j, i in enumerate(pos.tolist()):
            part = weil.WordFactors(f.rank, f.sgn[j], f.t[j], f.a2[j], f.b1[j], f.b2[j])
            assert _normal_form_bytes(part) == _normal_form_bytes(m.word_factors(els[i]))
            seen.append(i)
    assert sorted(seen) == list(range(len(els)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stacks_equal_single_elements_on_all_of_sp2(p):
    # sp_elements order mixes the big cell (rank 1) and the Borel (rank 0)
    m = weil.WeilModel(sym.standard_polarized_space(p, 1))
    els = sym.sp_elements(m.space)
    assert len(m.normal_forms(els)) == 2
    _stack_equals_one_at_a_time(m, els)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_stacks_equal_single_elements_on_mixed_rank_cells(p, n):
    m = weil.WeilModel(sym.standard_polarized_space(p, n))
    rng = np.random.default_rng(100 * p + n)
    els = [checks.cell_element(m, r, rng) for r in range(n + 1) for _ in range(3)]
    random.Random(n).shuffle(els)
    assert sorted(f.rank for _, f in m.normal_forms(els)) == list(range(n + 1))
    _stack_equals_one_at_a_time(m, els)
    # a stack of one rank comes back as one group, in input order
    [(pos, f)] = m.normal_forms(els[:1] * 4)
    assert pos.tolist() == [0, 1, 2, 3] and f.t.shape == (4, n, n)


def test_empty_stack_gives_empty_results(model5):
    assert model5.normal_forms([]) == []
    assert model5.trace_stack([]).shape == (0,)
    assert model5.omega_stack([]).shape == (0, 5, 5)
    twist = weil.block_twist([(sym.sp_identity(model5.space), 2)])
    assert weil.twisted_trace_stack(twist, []) == []


def test_stack_refuses_an_element_of_another_space(model5):
    other = sym.symp_space(5, [[0, 2], [3, 0]])
    els = list(sym.sp_elements(model5.space)[:3]) + [sym.sp_elem(other, [[1, 1], [4, 0]])]
    for fn in (model5.normal_forms, model5.trace_stack, model5.omega_stack):
        with pytest.raises(sym.SymplecticError, match="element from another space"):
            fn(els)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stacked_omega_group_equals_per_element_reads(p):
    # one positions lookup for the whole stack hands back the table rows that
    # stacks of one read, bit for bit, in input order (here reversed)
    model = weil.WeilModel(sym.standard_polarized_space(p, 1))
    els = sym.sp_elements(model.space)[::-1]
    ops = model.omega_group(els)
    assert ops.shape == (len(els), model.dim, model.dim)
    assert all(op.tobytes() == model.omega_group([g])[0].tobytes() for g, op in zip(els, ops))
    other = sym.sp_elem(sym.split_space(p, [[2]]), [[1, 0], [0, 1]])
    with pytest.raises(sym.SymplecticError, match="element from another space"):
        model.omega_group([els[0], other])


def test_omega_group_refuses_an_element_of_another_space():
    # diag(2, 3) is also an element of the standard space's group, so a
    # lookup by matrix alone would hand back its operator
    model = weil.WeilModel(sym.standard_polarized_space(5, 1))
    with pytest.raises(sym.SymplecticError, match="element from another space"):
        model.omega_group([sym.sp_elem(sym.split_space(5, [[2]]), [[2, 0], [0, 3]])])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_array_equals_its_element_list(p):
    # a whole group passed as its int64 array gives what its SpElems give,
    # bit for bit
    model = weil.WeilModel(sym.standard_polarized_space(p, 1))
    grp = sym.sp_group(model.space)
    els = [grp.elem(i) for i in range(len(grp.mats))]
    for fn in (model.trace_stack, model.omega_stack, model.omega_group):
        assert fn(grp.mats).tobytes() == fn(els).tobytes()


def test_stack_that_breaks_the_form_is_refused(model5):
    grp = sym.sp_group(model5.space)
    bad = grp.mats[:4].copy()
    bad[2] = [[2, 0], [0, 2]]  # determinant 4: no element of Sp_2(F_5)
    for fn in (model5.normal_forms, model5.trace_stack, model5.omega_stack, model5.omega_group):
        with pytest.raises(sym.SymplecticError, match="does not preserve the form"):
            fn(bad)
        # a stack of another dtype or of another dimension
        for other in (grp.mats[:4].astype(np.int32), np.stack([np.eye(4, dtype=np.int64)])):
            with pytest.raises(sym.SymplecticError, match=r"stack of shape \(%d, %d, %d\) for a space of dimension 2" % other.shape):
                fn(other)


def test_stack_entry_outside_the_field_is_refused():
    # -I over F_5 is I mod 3: a p = 3 model must not read it as an element
    model = weil.WeilModel(sym.standard_polarized_space(3, 1))
    minus_one_mod_5 = np.array([[[4, 0], [0, 4]]], dtype=np.int64)
    for fn in (model.trace_stack, model.omega_stack, model.omega_group,
               lambda gs: weil.schur_intertwiners(model, model, gs)):
        for bad in (minus_one_mod_5, -np.eye(2, dtype=np.int64)[None]):
            with pytest.raises(sym.SymplecticError, match=r"outside \[0, 3\)"):
                fn(bad)
    assert model.trace_stack(minus_one_mod_5 % 3)[0] == 3  # the identity, once reduced


def test_schur_intertwiners_refuse_models_of_two_spaces(model5):
    other = weil.WeilModel(sym.symp_space(5, [[0, 2], [3, 0]]))
    ident = np.eye(2, dtype=np.int64)[None]
    for a, b in ((model5, other), (other, model5)):
        with pytest.raises(sym.SymplecticError, match="one space"):
            weil.schur_intertwiners(a, b, ident)


def test_twisted_trace_stack_builds_no_element(monkeypatch):
    # each chain's norms and whole-chain products go to trace_stack as
    # int64 stacks
    _, twist, gs = checks.twisted_trace_fixtures()[1]
    want = weil.twisted_trace_stack(twist, gs)
    calls = []
    sp_elem = sym.sp_elem
    monkeypatch.setattr(sym, "sp_elem", lambda *args: calls.append(args) or sp_elem(*args))
    assert weil.twisted_trace_stack(twist, gs) == want
    assert calls == []


def test_stack_past_one_gather_slice_equals_one_at_a_time():
    # 50 operators of dimension 81 are past one slice of GATHER_CHUNK_ENTRIES
    # entries (39 of them)
    m = weil.WeilModel(sym.standard_polarized_space(3, 4))
    assert 50 * m.dim**2 > weil.GATHER_CHUNK_ENTRIES
    rng = np.random.default_rng(7)
    els = [checks.cell_element(m, int(r), rng) for r in rng.integers(0, 5, 50)]
    _stack_equals_one_at_a_time(m, els)


@pytest.mark.parametrize("entries", [1, 40])
def test_stack_slices_change_no_bit(entries, monkeypatch):
    m = weil.WeilModel(sym.standard_polarized_space(3, 2))
    rng = np.random.default_rng(8)
    els = [checks.cell_element(m, r, rng) for r in (0, 2, 1, 2, 0, 1, 1, 2)]
    whole = m.trace_stack(els).tobytes(), m.omega_stack(els).tobytes()
    monkeypatch.setattr(weil, "GATHER_CHUNK_ENTRIES", entries)
    assert (m.trace_stack(els).tobytes(), m.omega_stack(els).tobytes()) == whole


@pytest.mark.parametrize("entries", [weil.GATHER_CHUNK_ENTRIES, 40])
def test_twisted_trace_stack_equals_one_element_at_a_time(entries, monkeypatch):
    # criterion 04's fixtures in one slice, and in slices of 4 (p = 3) and 1
    # (p = 5) operators
    monkeypatch.setattr(weil, "GATHER_CHUNK_ENTRIES", entries)
    for label, twist, gs in checks.twisted_trace_fixtures(0):
        stacked = weil.twisted_trace_stack(twist, gs)
        single = [weil.twisted_trace(twist, parts) for parts in gs]
        assert stacked == single, label


# The normal forms of seeded cell elements of every rank and of every sign
# block, pinned as one sha256 digest per model: however word_factors reduces,
# it must return the same (rank, sgn, t, a2, b1, b2).
WORD_FACTOR_CELLS = ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2), (181, 2), (32749, 1))
WORD_FACTOR_SIGN_PRIMES = (3, 5, 7)


def _normal_form_key(f):
    return [f.rank, f.sgn] + [[str(m.dtype), m.tolist()] for m in (f.t, f.a2, f.b1, f.b2)]


def word_factors_digests() -> dict:
    out = {}
    for p, n in WORD_FACTOR_CELLS:
        m = weil.WeilModel(sym.standard_polarized_space(p, n))
        rng = np.random.default_rng(1000 * n + p)
        keys = [_normal_form_key(m.word_factors(checks.cell_element(m, r, rng))) for r in range(n + 1) for _ in range(3)]
        out["cells p=%d n=%d" % (p, n)] = [len(keys), hashlib.sha256(json.dumps(keys).encode()).hexdigest()]
    for p in WORD_FACTOR_SIGN_PRIMES:
        keys = []
        for _, sc in checks.sign_branch_scenarios(p, 4, 12, 2):
            bb = signcalc.build_block(sc)
            keys.append(_normal_form_key(weil.WeilModel(bb.space).word_factors(bb.op)))
        out["sign blocks p=%d" % p] = [len(keys), hashlib.sha256(json.dumps(keys).encode()).hexdigest()]
    return out


def test_block_memo_reduces_each_distinct_block_once(monkeypatch):
    # a whole group's normal forms reduce each distinct n x n block once, and
    # a warm memo gives the same normal forms as a cold one
    model = weil.WeilModel(sym.standard_polarized_space(5, 1))
    grp = sym.sp_group(model.space)
    weil._reduce_block.cache_clear()
    blocks = []
    orig = modp.reduce_rows
    monkeypatch.setattr(modp, "reduce_rows", lambda rows, p: blocks.append(str(rows)) or orig(rows, p))
    cold = model.normal_forms(grp.mats)
    assert len(blocks) == len(set(blocks)) == weil._reduce_block.cache_info().currsize < len(grp.mats)
    warm = model.normal_forms(grp.mats)
    assert len(blocks) == weil._reduce_block.cache_info().currsize
    key = lambda f: [f.rank] + [m.tolist() for m in (f.sgn, f.t, f.a2, f.b1, f.b2)]
    assert [(pos.tolist(), key(f)) for pos, f in cold] == [(pos.tolist(), key(f)) for pos, f in warm]
    assert weil._reduce_block.cache_info().maxsize == weil.BLOCK_MEMO_SIZE


def test_word_factors_digests_pinned():
    pinned = json.loads((pathlib.Path(__file__).parent / "word_factors_digests.json").read_text())
    assert word_factors_digests() == pinned


@pytest.mark.parametrize("p", [9, 15])
def test_model_refuses_a_non_prime(p):
    with pytest.raises(weil.WeilError, match="needs an odd prime, got p = %d" % p):
        weil.WeilModel(sym.standard_polarized_space(p, 1))


def test_model_dimension_cap():
    # GF(13^4) sign blocks (28561) fit; 3^10 does not
    assert 13**4 <= weil.MODEL_DIM_CAP < 3**10
    with pytest.raises(weil.WeilError, match=r"p\^n = 3\^10 exceeds the model cap 32767"):
        weil.WeilModel(sym.standard_polarized_space(3, 10))
    # a chain is refused before its direct sum is built
    v2 = sym.standard_polarized_space(3, 1)
    with pytest.raises(weil.WeilError, match=r"p\^n = 3\^11 exceeds"):
        weil.block_twist([(sym.sp_identity(v2), 2), (sym.sp_identity(v2), 11)])


def test_full_space_oracle_equals_assemble_product_on_a_625_block():
    # a p = 5 sign block of degree 4 (p^n = 625): both twisted-trace values
    # are word-model traces and no intertwiner is formed, so no block size
    # below the model cap is refused
    sc = next(sc for label, sc in checks.sign_branch_scenarios(5, 4, 4) if label.startswith("asym/asym")
              and signcalc.build_block(sc).space.dim == 8)
    s_values = {0: sc.k_alpha.one()}
    res = signcalc.full_space_oracle(sc.action, {0: sc}, s_values)
    want = signcalc.assemble_product(sc.action, {0: sc}, s_values).value
    assert abs(res.product_value - want) < 1e-8
    assert abs(res.direct_value - want) < 1e-8


def test_equal_spaces_share_one_read_only_frame():
    s, s2 = (sym.split_space(5, [[1, 2], [3, 4]]) for _ in range(2))
    assert s is not s2 and s == s2
    m, m2 = weil.WeilModel(s), weil.WeilModel(s2)
    assert m.to_std is m2.to_std and m.from_std is m2.from_std and m._pts is m2._pts
    explicit = weil.WeilModel(sym.standard_polarized_space(3, 1), ([(0, 1)], [(1, 0)]))
    for model in (m, explicit):
        for name in ("from_std", "to_std", "_pts"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0, 0] = 1


def test_sign_sweep_builds_one_frame_per_block_space():
    weil._std_frame.cache_clear()
    checks.sign_sweep((3,), 4, 16)
    spaces = {signcalc.build_block(sc).space for _, sc in checks.sign_branch_scenarios(3, 4, 16)}
    assert weil._std_frame.cache_info().misses == len(spaces)


def test_swapped_hyperbolic_basis_is_refused():
    # the frame is checked once per space, when the first model is built
    with checks.FAULTS["hyperbolic-e-f"]():
        with pytest.raises(weil.WeilError, match="does not carry the form"):
            weil.WeilModel(sym.standard_polarized_space(3, 1))


# -- word model on the Siegel parabolic (rank 0, C = 0) ----------------------


def _check_siegel_forms(m, els):
    """Each element of els has C = 0: rank 0, b2 = 0 and a2 = T D mod p."""
    p, n = m.p, m.n
    for g in els:
        gstd = m.to_std @ g.mat @ m.from_std % p
        assert not gstd[n:, :n].any()
        f = m.word_factors(g)
        assert f.rank == 0 and not f.b2.any()
        assert f.a2.tolist() == (f.t @ gstd[n:, n:] % p).tolist()


def _check_traces_of_operators(m, els):
    ops = m.omega_stack(els)
    assert np.abs(m.trace_stack(els) - np.trace(ops, axis1=1, axis2=2)).max() < 1e-10
    return ops


@pytest.mark.parametrize("p", [3, 5, 7])
def test_siegel_cell_on_all_of_sp2(p):
    m = weil.WeilModel(sym.standard_polarized_space(p, 1))
    grp = sym.sp_group(m.space)
    std = m.to_std @ grp.mats @ m.from_std % p
    siegel = np.flatnonzero(std[:, 1, 0] == 0)
    assert len(siegel) == p * (p - 1)
    els = [grp.elem(i) for i in siegel]
    _check_siegel_forms(m, els)
    ops = _check_traces_of_operators(m, els)
    assert np.abs(ops - m.omega_group(grp.mats[siegel])).max() < 1e-9
    # products with the big cell and within the parabolic
    rng = np.random.default_rng(p)
    big = np.setdiff1d(np.arange(len(grp.mats)), siegel)
    others = [grp.elem(i) for i in np.concatenate([rng.choice(siegel, 3), rng.choice(big, 5)])]
    assert [m.word_factors(h).rank for h in others] == [0] * 3 + [1] * 5
    for g, op in zip(els, ops):
        for h in others:
            assert np.abs(op @ m.omega(h) - m.omega(g * h)).max() < 1e-9
            assert np.abs(m.omega(h) @ op - m.omega(h * g)).max() < 1e-9


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_siegel_cell_on_seeded_draws(p, n):
    m = weil.WeilModel(sym.standard_polarized_space(p, n))
    rng = np.random.default_rng(10 * p + n)
    els = [checks.cell_element(m, 0, rng) for _ in range(4)]
    _check_siegel_forms(m, els)
    ops = _check_traces_of_operators(m, els)
    # pairs that mix rank 0 with every rank, in both orders
    others = [checks.cell_element(m, r, rng) for r in range(n + 1)]
    assert [m.word_factors(h).rank for h in others] == list(range(n + 1))
    other_ops = m.omega_stack(others)
    for g, op in zip(els, ops):
        for h, h_op in zip(others, other_ops):
            assert np.abs(op @ h_op - m.omega(g * h)).max() < 1e-9
            assert np.abs(h_op @ op - m.omega(h * g)).max() < 1e-9
    _check_traces_of_operators(m, [g * h for g in els for h in others])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_block_frames_invert_their_basis(p):
    # B^-1 = J^T B^T G, read off the form, on every field-block space
    spaces = {signcalc.build_block(sc).space for _, sc in checks.sign_branch_scenarios(p, 4, 12, 2)}
    for space in spaces:
        basis, inv = weil._std_frame(space)
        assert (basis @ inv % p == np.eye(space.dim, dtype=np.int64)).all()
        assert (inv @ basis % p == np.eye(space.dim, dtype=np.int64)).all()
