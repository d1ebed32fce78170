import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from weilchar import checks, ffield as ff, gerardin as ger, modp, symplectic as sym, weil

from test_faults import DETECTION


@pytest.fixture(scope="module")
def oracle5():
    return weil.WeilModel(sym.standard_polarized_space(5, 1))


def test_char_semisimple_identity_is_p_to_n():
    torus = sym.Torus(5, ((1, False),))
    one = torus.element((ff.field(5, 1).one(),))
    assert ger.char_semisimple(one) == 5.0


def test_char_semisimple_vs_oracle_examples(oracle5):
    # diag(2,3) in Sp_2(F_5)
    torus = sym.Torus(5, ((1, False),))
    t = torus.element((ff.field(5, 1).from_int(2),))
    assert t.elem.mat.tolist() == [[2, 0], [0, 3]]
    oracle = weil.WeilModel(torus.space).trace_omega(t.elem)
    assert abs(ger.char_semisimple(t) - oracle) < 1e-8
    # order-4 element of the norm-one torus of Sp_2(F_3)
    torus3 = sym.Torus(3, ((1, True),))
    model3 = weil.WeilModel(torus3.space)
    for t in torus3.elements():
        if t.elem.order() == 4:
            assert abs(ger.char_semisimple(t) - model3.trace_omega(t.elem)) < 1e-8


def test_char_semisimple_rejects_bare_sp_elements():
    # the formula reads the eigenvalue orbits off the torus coordinates, so
    # the matrix of a torus element alone is refused
    torus = sym.Torus(5, ((1, False),))
    t = torus.element((ff.field(5, 1).from_int(2),))
    with pytest.raises(ger.GerardinError, match="SpElem"):
        ger.char_semisimple(t.elem)


def test_no_fixed_point_examples(oracle5):
    space = oracle5.space
    minus = sym.sp_elem(space, [[4, 0], [0, 4]])
    vals = set()
    for vp in ger._all_subspaces(space, 1):
        try:
            vals.add(ger.char_no_fixed_point(minus, vp))
        except ger.GerardinError:
            continue
    assert vals == {int(round(oracle5.trace_omega(minus).real))}
    # diag(a, a^{-1}) with the a-eigenline: V0 = 0, value sgn(a)
    g = sym.sp_elem(space, [[2, 0], [0, 3]])
    val = ger.char_no_fixed_point(g, [(1, 0)])
    assert val == -1  # sgn_5(2) = -1
    assert abs(val - oracle5.trace_omega(g)) < 1e-9
    with pytest.raises(ger.GerardinError, match="element has nonzero fixed points"):
        ger.char_no_fixed_point(sym.sp_identity(space), [(1, 0)])
    with pytest.raises(ger.GerardinError, match=r"V' is not maximal \(V0 has an eigenline\)"):
        # a non-maximal V' (the zero space) while g has eigenlines
        ger.char_no_fixed_point(g, [])


def test_fixed_line_examples():
    # g = 1: recursion yields p^n
    for p in (3, 5):
        space = sym.standard_polarized_space(p, 1)
        assert abs(ger.weil_char(sym.sp_identity(space)) - p) < 1e-9
    # the Gauss-sum factor collapses to p when g fixes V0^perp/L pointwise
    p = 3
    v2 = sym.standard_polarized_space(p, 1)
    vsum = sym.direct_sum([v2, v2])
    g1 = sym.sp_elem(v2, [[0, 1], [2, 0]])  # order-4 Weyl element, no fixed points
    big = np.zeros((4, 4), dtype=np.int64)
    big[:2, :2] = g1.mat
    big[2:, 2:] = np.eye(2, dtype=np.int64)
    gbig = sym.sp_elem(vsum, big)
    line = (0, 0, 1, 0)
    v0 = [(1, 0, 0, 0), (0, 1, 0, 0)]
    val = ger.char_fixed_line(gbig, line, v0)
    m2 = weil.WeilModel(v2)
    want = m2.trace_omega(g1) * p
    assert abs(val - want) < 1e-8
    with pytest.raises(ger.GerardinError, match="the line is not fixed pointwise"):
        ger.char_fixed_line(gbig, (1, 0, 0, 0), v0)


def test_polarized_examples(oracle5):
    space = oracle5.space
    ident = sym.sp_identity(space)
    assert abs(ger.char_polarized(ident, ([(1, 0)], [(0, 1)])) - 5) < 1e-12
    g = sym.sp_elem(space, [[2, 0], [0, 3]])
    assert ger.char_polarized(g, ([(1, 0)], [(0, 1)])) == -1  # sgn(2) = -1
    # block diag(a, 1, a^{-1}, 1) in Sp_4(F_5): sgn(a) * p
    v2 = sym.standard_polarized_space(5, 1)
    vsum = sym.direct_sum([v2, v2])
    big = np.zeros((4, 4), dtype=np.int64)
    big[:2, :2] = g.mat
    big[2:, 2:] = np.eye(2, dtype=np.int64)
    gbig = sym.sp_elem(vsum, big)
    vplus = [(1, 0, 0, 0), (0, 0, 1, 0)]
    vminus = [(0, 1, 0, 0), (0, 0, 0, 1)]
    val = ger.char_polarized(gbig, (vplus, vminus))
    assert val == -1 * 5  # sgn(2) * p
    m2 = weil.WeilModel(v2)
    oracle = np.trace(m2.omega(g)) * np.trace(m2.omega(sym.sp_identity(v2)))
    assert abs(val - oracle) < 1e-8
    with pytest.raises(ger.GerardinError, match="subspace is not invariant under the element"):
        ger.char_polarized(sym.sp_elem(space, [[0, 1], [4, 0]]), ([(1, 0)], [(0, 1)]))


# in (e1, e2, f1, f2)-coordinates of Sp_4(F_5): each non-polarization once,
# refused in the rule's order (side shapes, span, X, Y)
E1, E2, F1, F2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
NON_POLARIZATIONS = [
    ("short-side", ([E1], [F1, F2]), "need n vectors on each side"),
    ("short-vectors", ([(1, 0, 0), (0, 1, 0)], [F1, F2]), "need n vectors on each side"),
    ("no-span", ([E1, E2], [E1, E2]), "polarization vectors do not span"),
    ("x-not-isotropic", ([E1, F1], [E2, F2]), "X side not isotropic"),
    ("y-not-isotropic", ([E1, E2], [F1, (1, 0, 0, 1)]), "Y side not isotropic"),
]


@pytest.mark.parametrize("polarization,message", [case[1:] for case in NON_POLARIZATIONS],
                         ids=[case[0] for case in NON_POLARIZATIONS])
def test_polarized_refuses_a_non_polarization(polarization, message):
    # symplectic.check_polarization's refusals, which a polarized WeilModel
    # raises too (tests/test_weil.py::test_polarization_validation)
    space = sym.standard_polarized_space(5, 2)
    with pytest.raises(sym.SymplecticError, match=message):
        ger.char_polarized(sym.sp_identity(space), polarization)


def test_polarized_refuses_an_odd_fixed_space(oracle5, monkeypatch):
    # a symplectic fixed space has even dimension; an odd one is an error,
    # not a value with half a power of p, also under python -O
    monkeypatch.setattr(sym.SpElem, "fixed_space_dim", lambda self: 1)
    with pytest.raises(ger.GerardinError, match="odd dimension 1"):
        ger.char_polarized(sym.sp_identity(oracle5.space), ([(1, 0)], [(0, 1)]))


def test_polarized_agrees_with_semisimple():
    # wherever both formulas apply they agree
    for p in (3, 5):
        torus = sym.Torus(p, ((1, False),))
        for t in torus.elements():
            pols = list(ger.invariant_polarizations(t.elem))
            if not pols:
                continue
            a = ger.char_semisimple(t)
            b = ger.char_polarized(t.elem, pols[0])
            assert abs(a - b) < 1e-9


SUBSPACE_DIGESTS = json.loads((pathlib.Path(__file__).parent / "modp_digests.json").read_text())["_all_subspaces"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_all_subspaces_pinned_in_order(p):
    space = sym.standard_polarized_space(p, 1)
    lines = ger._all_subspaces(space, 1)
    assert lines is ger._all_subspaces(space, 1)  # enumerated once per space
    assert len(lines) == p + 1 and isinstance(lines, np.ndarray) and not lines.flags.writeable
    assert hashlib.sha256(json.dumps(lines.tolist()).encode()).hexdigest() == SUBSPACE_DIGESTS["p=%d" % p]


def test_restrict_map_on_the_zero_space_is_0x0():
    g = sym.sp_elem(sym.standard_polarized_space(5, 1), [[2, 0], [0, 3]])
    m = ger.restrict_map(g, [])
    assert m.shape == (0, 0)
    assert modp.det(m, 5) == 1


# sha256s of the subspace and recursion outputs, generated before the subspace
# layer was rewritten around one row reduction per question: every semisimple
# g of Sp_2(F_3/5/7) and the block-diagonal semisimple pairs of Sp_4(F_3).
GERARDIN_DIGESTS = json.loads((pathlib.Path(__file__).parent / "gerardin_digests.json").read_text())


def _or_raised(fn, *args):
    try:
        out = fn(*args)
    except ger.GerardinError as exc:
        return "raises %s" % type(exc).__name__
    return out.tolist() if isinstance(out, np.ndarray) else out


def gerardin_outputs(elements) -> dict[str, str]:
    outs = {"vprime": [], "complement": [], "polarizations": [], "weil_char": []}
    for g in elements:
        outs["vprime"].append(_or_raised(ger.maximal_invariant_isotropic, g))
        fixed = modp.kernel_basis((g.mat - np.eye(g.space.dim, dtype=np.int64)) % g.space.p, g.space.p)
        if len(fixed):
            line = tuple(int(x) for x in fixed[0])
            outs["complement"].append(_or_raised(ger.invariant_complement_in_perp, g, line))
        outs["polarizations"].append([(vp.tolist(), vm.tolist()) for vp, vm in ger.invariant_polarizations(g)])
        outs["weil_char"].append(repr(_or_raised(ger.weil_char, g)))
    return {k: hashlib.sha256(json.dumps(v).encode()).hexdigest() for k, v in outs.items()}


def digest_groups():
    groups = {}
    for p in (3, 5, 7):
        space = sym.standard_polarized_space(p, 1)
        groups["Sp_2(F_%d)" % p] = [g for g in sym.sp_elements(space) if g.is_semisimple()]
    v2 = sym.standard_polarized_space(3, 1)
    vsum = sym.direct_sum([v2, v2])
    ss = groups["Sp_2(F_3)"]
    groups["Sp_4(F_3) block pairs"] = [sym.block_diagonal(vsum, [g1.mat, g2.mat]) for g1 in ss for g2 in ss]
    return groups


@pytest.mark.parametrize("label", ["Sp_2(F_3)", "Sp_2(F_5)", "Sp_2(F_7)", "Sp_4(F_3) block pairs"])
def test_formula_side_pinned(label):
    elements = digest_groups()[label]
    assert len(elements) == {"Sp_2(F_3)": 8, "Sp_2(F_5)": 72, "Sp_2(F_7)": 240, "Sp_4(F_3) block pairs": 64}[label]
    assert gerardin_outputs(elements) == GERARDIN_DIGESTS[label]


def test_recursive_char_matches_oracle_on_cell_elements():
    # 32 seeded semisimple Bruhat-cell elements per group: the recursion peels
    # fixed lines and, fixed-point free, builds V' greedily, at times in
    # several steps
    worst = 0.0
    several_steps = 0
    for p, n in [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)]:
        model = weil.WeilModel(sym.standard_polarized_space(p, n))
        rng = np.random.default_rng(p + 10 * n)
        els = []
        draws = 0
        while len(els) < 32:
            g = checks.cell_element(model, draws % (n + 1), rng)
            draws += 1
            if g.is_semisimple():
                els.append(g)
        worst = max(worst, *(abs(ger.weil_char(g) - model.trace_omega(g)) for g in els))
        several_steps += sum(len(ger.maximal_invariant_isotropic(g)) > 1 for g in els if not g.fixed_space_dim())
    assert worst <= 1e-8
    assert several_steps >= 3


DIAG_2_3 = [[2, 0], [0, 3]]


def test_restrict_map_refuses_a_dependent_basis():
    g = sym.sp_elem(sym.standard_polarized_space(5, 1), DIAG_2_3)
    with pytest.raises(ger.GerardinError, match="basis vectors are dependent"):
        ger.restrict_map(g, [(1, 0), (2, 0)])


def test_no_fixed_point_refuses_a_dependent_vprime():
    g = sym.sp_elem(sym.standard_polarized_space(5, 1), DIAG_2_3)
    with pytest.raises(ger.GerardinError, match="basis vectors are dependent"):
        ger.char_no_fixed_point(g, [(1, 0), (2, 0)])


def test_fixed_line_refuses_a_dependent_v0():
    v2 = sym.standard_polarized_space(3, 1)
    # weyl moves (1, 0, 0, 0) off its line, yet the V0 must be refused for
    # its dependence, not for a span that is not invariant
    weyl = np.array([[0, 1], [2, 0]])
    gbig = sym.block_diagonal(sym.direct_sum([v2, v2]), [weyl, np.eye(2, dtype=np.int64)])
    with pytest.raises(ger.GerardinError, match="basis vectors are dependent"):
        ger.char_fixed_line(gbig, (0, 0, 1, 0), [(1, 0, 0, 0), (2, 0, 0, 0)])


def _assert_gerardin_red_as_recorded(fault: str):
    """The gerardin checks red under `fault` are those its DETECTION record
    names, and there is one."""
    rows, _ = checks.run_checks("gerardin", fault=fault)
    red = {r.scenario_id for r in rows if not r.passed}
    assert red and red == {c for c in DETECTION[fault] if c.startswith("gerardin.")}


def test_restrict_map_without_invariance_test_turns_checks_red():
    _assert_gerardin_red_as_recorded("restrict-map")


def test_complement_keeping_every_vector_turns_checks_red():
    _assert_gerardin_red_as_recorded("complement-in")


def test_one_step_vprime_turns_weil_char_red():
    # the weil-char row sees V' grow past its first line on split Levi parts
    [row] = checks.check_weil_char_fixed_point_free()
    several = int(row.quantity.split(", ")[1].split()[0])
    assert row.passed and several > 0, row

    _assert_gerardin_red_as_recorded("one-step-vprime")


def _polarizations_brute_force(g):
    """invariant_polarizations as it read every subspace for itself: the
    isotropic, g-invariant n-spaces of _all_subspaces, and every transversal
    pair of them, both ways round."""
    space, n = g.space, g.space.dim // 2
    lagr = []
    for basis in ger._all_subspaces(space, n):
        if ger.is_isotropic(space, basis):
            try:
                ger.restrict_map(g, basis)
            except ger.GerardinError:
                continue
            lagr.append(basis)
    for vp, vm in itertools.combinations(lagr, 2):
        if modp.rank(np.vstack([vp, vm]), space.p) == 2 * n:
            yield vp, vm
            yield vm, vp


def _sp4_elements():
    """Four semisimple elements of Sp_4(F_3): the identity, -1, a split torus
    element and a seeded cell element of order prime to 3."""
    model = weil.WeilModel(sym.standard_polarized_space(3, 2))
    ident = sym.sp_identity(model.space)
    torus = sym.Torus(3, ((1, False), (1, False)))
    rng = np.random.default_rng(5)
    cell = checks.cell_element(model, 1, rng)
    while not cell.is_semisimple():
        cell = checks.cell_element(model, 1, rng)
    return [ident, sym.sp_elem(model.space, -ident.mat), list(torus.elements())[1].elem, cell]


def test_invariant_polarizations_equal_the_brute_force():
    # the per-space Lagrangian table changes no pair and no order
    grps = [sym.sp_group(sym.standard_polarized_space(p, 1)) for p in (3, 5, 7)]
    els = [grp.elem(i) for grp in grps for i in np.flatnonzero(grp.orders % grp.space.p)] + _sp4_elements()
    seen = 0
    for g in els:
        want, got = list(_polarizations_brute_force(g)), list(ger.invariant_polarizations(g))
        assert [(vp.tolist(), vm.tolist()) for vp, vm in got] == [(vp.tolist(), vm.tolist()) for vp, vm in want]
        assert not any(side.flags.writeable for pol in got for side in pol)
        seen += len(got)
    assert seen > 1000  # the Sp_4 identity alone is invariant under every polarization
