import contextlib
import hashlib
import itertools
import json
import pathlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilchar import checks, ffield as ff, modp, signcalc, symplectic as sym, weil

import polyref


V3 = sym.standard_polarized_space(3, 1)


def _form(space, u, v):
    """<u, v> under the space's Gram matrix, mod p."""
    return int(np.asarray(u) @ space.gram @ np.asarray(v) % space.p)


def test_space_validation():
    with pytest.raises(sym.SymplecticError):
        sym.SympSpace(3, ((0, 1), (1, 0)))  # symmetric, not antisymmetric
    with pytest.raises(sym.SymplecticError):
        sym.SympSpace(3, ((0, 0), (0, 0)))  # degenerate
    with pytest.raises(sym.SymplecticError):
        sym.SympSpace(3, ((0, 1, 0), (2, 0, 0), (0, 0, 0)))  # odd size
    with pytest.raises(sym.SymplecticError, match="at least one space"):
        sym.direct_sum([])  # a torus payload with no factors reaches this


def heis_ref(space, a, b):
    """The Heisenberg law (v1+v2, z1+z2+<v1,v2>/2) on (vector tuple, int)
    pairs, written out apart from sym.heis_law."""
    (v1, z1), (v2, z2) = a, b
    p = space.p
    return tuple((x + y) % p for x, y in zip(v1, v2)), (z1 + z2 + _form(space, v1, v2) * pow(2, -1, p)) % p


def heis_product(space, a, b):
    """sym.heis_law on one (vector tuple, int) pair each, read back as one."""
    v, z = sym.heis_law(space, a[0], a[1], b[0], b[1])
    return tuple(v.tolist()), int(z)


def test_heis_examples():
    e, h = ((0, 0), 0), ((1, 2), 1)
    assert heis_product(V3, e, h) == h
    # (e1,0)(e2,0) = (e1+e2, 2): 1/2 = 2 mod 3
    a, b = ((1, 0), 0), ((0, 1), 0)
    assert heis_product(V3, a, b) == ((1, 1), 2)
    # commutator has v-part 0 and z-part <v1, v2>
    a_inv, b_inv = ((2, 0), 0), ((0, 2), 0)
    comm = heis_product(V3, heis_product(V3, a, b), heis_product(V3, a_inv, b_inv))
    assert comm == ((0, 0), _form(V3, (1, 0), (0, 1)))
    # the law broadcasts: one element against a batch of three
    v, z = sym.heis_law(V3, (1, 0), 0, [(0, 1), (1, 2), (2, 2)], [0, 1, 2])
    assert list(zip(map(tuple, v.tolist()), z.tolist())) == [heis_ref(V3, a, c) for c in (b, h, ((2, 2), 2))]


@given(st.integers(0, 242), st.integers(0, 242), st.integers(0, 242))
@settings(max_examples=50, deadline=None)
def test_heis_associativity_sampled(i, j, k):
    space = sym.split_space(3, np.fliplr(np.eye(2, dtype=np.int64)))  # Lagrangian halves paired antidiagonally

    def elem(n):
        v = []
        for _ in range(4):
            v.append(n % 3)
            n //= 3
        return tuple(v), n % 3

    a, b, c = elem(i), elem(j), elem(k)
    assert heis_product(space, heis_product(space, a, b), c) == heis_product(space, a, heis_product(space, b, c))
    assert heis_product(space, a, b) == heis_ref(space, a, b)


def doubled_space(p: int, n: int) -> sym.SympSpace:
    """The split form [[0, 2I], [-2I, 0]]: a cocycle other than the standard one."""
    return sym.split_space(p, 2 * np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make", [doubled_space, sym.standard_polarized_space])
def test_heis_group_table_is_the_scalar_law(make, p):
    space = make(p, 1)
    grp = sym.heis_group(space)
    els = [(v, z) for v in itertools.product(range(p), repeat=2) for z in range(p)]
    assert [(tuple(v), z) for v, z in zip(grp.vs.tolist(), grp.zs.tolist())] == els
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert els[grp.mul[i, j]] == heis_ref(space, a, b)
    assert not grp.mul.flags.writeable


def test_heis_group_refuses_above_the_cap():
    for p, n in ((3, 2), (7, 1)):  # |H| = 243, 343
        with pytest.raises(sym.SymplecticError, match="cap"):
            sym.heis_group(sym.standard_polarized_space(p, n))
    assert len(sym.heis_group(sym.standard_polarized_space(5, 1)).zs) == sym.HEIS_ENUM_CAP


def test_abelian_law_fault_turns_heis_center_red():
    with checks.FAULTS["abelian-law"]():
        rows = checks.check_heis_associativity()
    assert {r.quantity: (r.formula, r.oracle) for r in rows if not r.passed} == {"heis center p=3 n=1": (27, 3)}


def test_a_law_with_a_non_bilinear_z_term_turns_the_n2_row_red(monkeypatch):
    # z1 + z2 + <v1,v2>/2 + v1[0]^2 v2[1]: the added term is no cocycle, so
    # (ab)c and a(bc) differ by 2 a0 b0 c1 in z
    law = sym.heis_law

    def skewed(space, v1, z1, v2, z2):
        v, z = law(space, v1, z1, v2, z2)
        return v, (z + np.asarray(v1)[..., 0] ** 2 * np.asarray(v2)[..., 1]) % space.p

    monkeypatch.setattr(sym, "heis_law", skewed)
    rows = {r.quantity: r for r in checks.check_heis_associativity()}
    row = rows["heis cocycle p=3 n=2 (exhaustive triples)"]
    assert not row.passed and row.formula == 8 * 3**9  # a0, b0 and c1 all nonzero: 8/27 of the 3^12 triples


def test_sp_elem_validation():
    with pytest.raises(sym.SymplecticError):
        sym.sp_elem(V3, [[1, 1], [1, 1]])
    g = sym.sp_elem(V3, [[2, 0], [0, 2]])
    assert g.order() == 2
    assert g.is_semisimple()


def test_sp_elem_array_built_once_read_only():
    rng = np.random.default_rng(19)
    for space in (V3, sym.standard_polarized_space(5, 2)):
        p = space.p
        els = sym.sp_elements(space) if space is V3 else [sym.sp_identity(space)] + [sym.sp_elem(space, m) for m in sym.sp_generators(space)]
        assert len(set(els)) == len(els)
        for g in els:
            arr = g.mat
            assert not arr.flags.writeable and arr.dtype == np.int64 and arr.min() >= 0 and arr.max() < p
            with pytest.raises(ValueError):
                arr[0, 0] = 1
            # the matrix is reduced mod p on construction, by sp_elem and
            # SpElem alike; eq and hash read (space, the matrix's bytes)
            m = arr + p * rng.integers(-3, 4, arr.shape)
            for h in (sym.sp_elem(space, m), sym.SpElem(space, m)):
                assert h.mat.tobytes() == (m % p).tobytes() == arr.tobytes() and h.mat is not arr
                assert h == g and hash(h) == hash(g) == hash((g.space, arr.tobytes()))
                assert not h.mat.flags.writeable and h.mat.dtype == np.int64


def test_gram_array_built_once_read_only():
    for space in (V3, sym.standard_polarized_space(5, 2), sym.field_block(ff.field(3, 2), ff.field(3, 2).one(), None)):
        arr = space.gram
        assert not arr.flags.writeable and arr.dtype == np.int64 and arr.min() >= 0 and arr.max() < space.p
        with pytest.raises(ValueError):
            arr[0, 0] = 1
        # the Gram matrix is reduced mod p on construction; eq and hash read
        # (p, the Gram matrix's bytes, blocks), so lru caches keyed by a space
        # find an equal one
        twin = sym.SympSpace(space.p, arr - space.p, space.blocks)
        assert twin.gram.tobytes() == arr.tobytes() and twin.gram is not arr
        assert twin == space and hash(twin) == hash(space) == hash((space.p, arr.tobytes(), space.blocks))
        assert sym.direct_sum([space]) != space  # the same Gram matrix with one block


def test_torus_examples():
    split = sym.Torus(3, ((1, False),))
    els = list(split.elements())
    assert len(els) == 2
    assert sorted(e.elem.mat.tolist() for e in els) == [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]
    normone = sym.Torus(3, ((1, True),))
    els2 = list(normone.elements())
    assert len(els2) == 4
    assert sorted(e.elem.order() for e in els2) == [1, 2, 4, 4]
    mixed = sym.Torus(3, ((1, True), (1, False)))
    assert len(list(mixed.elements())) == 8


def test_torus_element_takes_one_coordinate_per_factor():
    # a short tuple and an extra coordinate are both refused, on a
    # one-factor torus and a two-factor one
    k = ff.field(5, 1)
    one = sym.Torus(5, ((1, False),))
    assert [pc.x for pc in one.element((k.from_int(2),)).pieces] == [k.from_int(2)]
    for coords, got in (((k.from_int(2), k.from_int(3)), 2), ((), 0)):
        with pytest.raises(sym.SymplecticError, match="need one coordinate per factor: 1, got %d" % got):
            one.element(coords)
    two = sym.Torus(3, ((1, True), (1, False)))
    with pytest.raises(sym.SymplecticError, match="need one coordinate per factor: 2, got 1"):
        two.element((ff.field(3, 2).one(),))


def test_torus_element_refuses_a_coordinate_that_is_no_field_element():
    # an int or None is refused by name, not by a bare AttributeError on .parent
    for coords in ((2,), (None,)):
        with pytest.raises(sym.SymplecticError, match="coordinate 0 is not an element of GF\\(5\\^1\\)"):
            sym.Torus(5, ((1, False),)).element(coords)
    k = ff.field(3, 2)
    with pytest.raises(sym.SymplecticError, match="coordinate 1 is not an element of GF\\(3\\^1\\)"):
        sym.Torus(3, ((1, True), (1, False))).element((k.one(), 1))


def test_standard_polarized_space_is_built_once_per_p_n():
    space = sym.standard_polarized_space(5, 2)
    assert sym.standard_polarized_space(5, 2) is space
    assert sym.standard_polarized_space(5, 1) is not space and sym.standard_polarized_space(3, 2) is not space
    assert not space.gram.flags.writeable
    with pytest.raises(ValueError):
        space.gram[0, 2] = 0


def test_torus_pieces():
    # one piece per factor, rooted at its coordinate: asymmetric of degree d
    # on a split factor, symmetric of degree 2d on a norm-one factor
    mixed = sym.Torus(3, ((2, False), (1, True)))
    for t in mixed.elements():
        split, normone = t.pieces
        assert (split.degree, split.symmetric, split.x.parent) == (2, False, ff.field(3, 2))
        assert (normone.degree, normone.symmetric, normone.x.parent) == (2, True, ff.field(3, 2))
        assert mixed.element((split.x, normone.x)) == t
    deg2 = sym.Torus(3, ((2, True),))
    t = next(t for t in deg2.elements() if t.pieces[0].x != 1)
    assert t.pieces == (sym.TorusPiece(4, t.pieces[0].x, True),)
    # every piece evaluates nontrivially somewhere: no identity weight
    assert all(any(t.pieces[i].x != 1 for t in mixed.elements()) for i in range(2))


def test_eigen_examples():
    v5 = sym.standard_polarized_space(5, 1)
    ident = sym.sp_identity(v5)
    assert [e.index() for e in sym.eigen_multiset(ident)] == [1, 1]
    g = sym.sp_elem(v5, [[2, 0], [0, 3]])
    assert sorted(e.index() for e in sym.eigen_multiset(g)) == [2, 3]
    # semisimple elements in Sp: multiset closed under inversion
    for h in list(sym.sp_elements(v5))[:40]:
        if h.is_semisimple():
            vals = sym.eigen_multiset(h)
            inv = sorted(v.inverse().index() for v in vals)
            assert sorted(v.index() for v in vals) == inv


def test_eigen_s_th_root_lemma_charpoly():
    # char poly of D . phi^r is prod_i (X^s - a_i a_{i+r} ... ), exact over Z
    rng = np.random.default_rng(5)
    for n, r in ((4, 2), (6, 2), (6, 3), (8, 4), (8, 2)):
        s = n // r
        a = [int(x) for x in rng.integers(-4, 5, size=n)]
        phi = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            phi[(i + 1) % n, i] = 1
        m = np.diag(a) @ np.linalg.matrix_power(phi, r)
        cp = polyref.charpoly_int(m.astype(object))
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
        assert cp == want


def test_conjugacy_examples():
    v5 = sym.standard_polarized_space(5, 1)
    g = sym.sp_elem(v5, [[2, 0], [0, 3]])
    # g = t: some witness exists (identity works)
    w = sym.conjugate_in_sp(g, g)
    assert w is not None
    swapped = sym.sp_elem(v5, [[3, 0], [0, 2]])
    w2 = sym.conjugate_in_sp(g, swapped)
    assert w2 is not None and w2 * swapped * w2.inverse() == g
    other = sym.sp_elem(v5, [[1, 0], [0, 1]])
    assert sym.conjugate_in_sp(g, other) is None
    unipotent = sym.sp_elem(v5, [[1, 1], [0, 1]])
    with pytest.raises(sym.SymplecticError, match="conjugacy test requires semisimple elements"):
        sym.conjugate_in_sp(g, unipotent)


def test_conjugacy_reads_no_eigenvalues(monkeypatch):
    # the oracle side of eigen<->conjugacy: the witness search alone decides
    def refuse(g):
        raise AssertionError("conjugate_in_sp read eigenvalues")

    monkeypatch.setattr(sym, "eigen_multiset", refuse)
    test_conjugacy_examples()


def _brute_classes(grp):
    """The least position x t x^-1 reaches over the group, for every t: each
    element conjugated by every element, in slices of at most 2^16 entries."""
    inv = sym.inverses(grp.space, grp.mats)[:, None]
    step = max(1, 2**16 // grp.mats.size)
    conj = np.concatenate([grp.positions(grp.mats[:, None] @ grp.mats[i : i + step] @ inv)
                           for i in range(0, len(grp.mats), step)], axis=1)  # conj[x, t] = x t x^-1
    return conj.min(axis=0)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 19])
def test_classes_count_p_plus_4_on_sp2(p):
    # Sp_2(F_p) = SL_2(F_p) has p + 4 conjugacy classes for odd p, p of them
    # semisimple
    grp = sym.sp_group(sym.standard_polarized_space(p, 1))
    labels = sym.classes(grp)
    assert labels.dtype == np.int64 and labels.shape == (len(grp.mats),)
    assert len(np.unique(labels)) == p + 4
    assert len(np.unique(labels[grp.orders % p != 0])) == p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_classes_equal_the_least_conjugate(p):
    grp = sym.sp_group(sym.standard_polarized_space(p, 1))
    assert sym.classes(grp).tolist() == _brute_classes(grp).tolist()


def test_classes_are_read_only_and_cached():
    grp = sym.sp_group(sym.standard_polarized_space(5, 1))
    labels = sym.classes(grp)
    assert sym.classes(grp) is labels
    with pytest.raises(ValueError):
        labels[0] = 1


def test_conjugacy_refuses_above_the_cap():
    v = sym.standard_polarized_space(41, 1)  # |Sp_2(F_41)| = 68880, the next group past the cap
    g = sym.sp_identity(v)
    with pytest.raises(sym.SymplecticError):
        sym.conjugate_in_sp(g, sym.sp_elem(v, (-np.eye(2, dtype=np.int64)) % 41))


@pytest.mark.parametrize("p", [3, 5])
def test_sp_group_positions_orders_and_inverses_match_products(p):
    grp = sym.sp_group(sym.standard_polarized_space(p, 1))
    ident = sym.sp_identity(grp.space)
    els = [grp.elem(i) for i in range(len(grp.mats))]
    assert els[0] == ident
    assert not any(a.flags.writeable for a in (grp.mats, grp.orders, grp.codes, grp.at))
    assert grp.positions(grp.mats).tolist() == list(range(len(els)))
    assert grp.positions(grp.mats[:6].reshape(2, 3, 2, 2) - p).tolist() == [[0, 1, 2], [3, 4, 5]]
    assert grp.positions(grp.mats[:0]).shape == (0,)
    invs = sym.inverses(grp.space, grp.mats)
    for i, g in enumerate(els):
        assert [els[k] for k in grp.positions(grp.mats[i] @ grp.mats)] == [g * h for h in els]
        assert els[grp.positions(invs[i])] == g.inverse() and g * g.inverse() == ident
        power, order = g, 1
        while power != ident:
            power, order = power * g, order + 1
        assert grp.orders[i] == order == g.order()


@pytest.mark.parametrize("p", [3, 5, 7, "Sp_4(F_3)"])
def test_inverse_read_off_the_form_is_gauss_jordan(p):
    # SpElem.inverse is G^-1 m^T G (inverses); Gauss-Jordan elimination
    # (modp.mat_inv) is the reference, on all of Sp_2(F_p) and on a seeded
    # sample of Sp_4(F_3)
    if p == "Sp_4(F_3)":
        grp = sym.sp_group(sym.standard_polarized_space(3, 2))
        positions = np.random.default_rng(0).choice(len(grp.mats), 64, replace=False)
    else:
        grp = sym.sp_group(sym.standard_polarized_space(p, 1))
        positions = range(len(grp.mats))
    for i in positions:
        g = grp.elem(i)
        assert np.array_equal(g.inverse().mat, modp.mat_inv(g.mat, g.space.p))


def test_gram_inverse_is_inverted_once_per_space(monkeypatch):
    # inverses reads G^-1 from its space, read-only, inverted on first use
    space = sym.split_space(5, [[1, 2], [0, 3]])
    gens = sym.sp_generators(space)
    calls = []
    monkeypatch.setattr(modp, "mat_inv", lambda m, p, orig=modp.mat_inv: calls.append(p) or orig(m, p))
    first = sym.inverses(space, gens)
    assert calls == [5] and np.array_equal(space._gram_inverse, modp.mat_inv(space.gram, 5))
    assert np.array_equal(sym.inverses(space, gens), first) and len(calls) == 2
    assert not space._gram_inverse.flags.writeable


def test_orders_do_not_depend_on_the_slices(monkeypatch):
    # orders powers the stack in place a slice at a time: slices of one
    # element, of seven and one slice for the stack give the orders of
    # repeated SpElem products, in the shape of the stack's leading axes
    grp = sym.sp_group(sym.standard_polarized_space(3, 2))
    mats = grp.mats[::173][:36]
    want = []
    for m in mats:
        g = power = sym.sp_elem(grp.space, m)
        want.append(1)
        while power != sym.sp_identity(grp.space):
            power, want[-1] = power * g, want[-1] + 1
    assert len(set(want)) > 4
    for entries in (16, 7 * 16, 2**30):
        monkeypatch.setattr(sym, "ORDER_CHUNK_ENTRIES", entries)
        assert sym.orders(grp.space, mats + 3).tolist() == want
        assert sym.orders(grp.space, mats.reshape(6, 6, 4, 4)).tolist() == np.reshape(want, (6, 6)).tolist()
        assert sym.orders(grp.space, mats[5]).shape == () and int(sym.orders(grp.space, mats[5])) == want[5]


def _closure_reference(space):
    """sp_group's order as a Python breadth-first closure over validated
    SpElem products: frontier after frontier, each element times every
    generator, a product kept at its first occurrence."""
    ident = sym.sp_identity(space)
    seen, frontier, out = {ident}, [ident], [ident]
    gens = [sym.sp_elem(space, m) for m in sym.sp_generators(space)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        out.extend(nxt)
        frontier = nxt
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, "torus"])
def test_sp_elements_keeps_the_breadth_first_order(p):
    if p == "torus":  # the norm-one field block of GF(25) over F_5
        big = ff.field(5, 2)
        space = sym.field_block(big, sym.anti_invariant_unit(big, 1), 1)
    else:
        space = sym.standard_polarized_space(p, 1)
    reference = _closure_reference(space)
    grp = sym.sp_group(space)
    # elem(i) builds a fresh element at every call, equal to the closure's
    assert [grp.elem(i) for i in range(len(grp.mats))] == reference
    assert grp.elem(1) is not grp.elem(1)
    assert list(sym.sp_elements(space)) == reference


def test_sp_group_builds_no_element(monkeypatch):
    # the closure runs on int64 stacks: no SpElem is built or validated
    calls = []
    sp_elem = sym.sp_elem
    monkeypatch.setattr(sym, "sp_elem", lambda *args: calls.append(args) or sp_elem(*args))
    grp = sym.sp_group.__wrapped__(sym.standard_polarized_space(7, 1))  # not the cached group
    assert len(grp.mats) == 336 and calls == []
    assert grp.elem(5).mat.tolist() == grp.mats[5].tolist() and len(calls) == 1


def test_sp_group_builds_the_largest_group_under_the_cap():
    # |Sp_4(F_3)| = 51840 = SP_ENUM_CAP; Sp_2(F_41) has 68880 elements, past it
    space = sym.standard_polarized_space(3, 2)
    start = time.perf_counter()
    grp = sym.sp_group.__wrapped__(space)  # timed uncached, as are its classes
    labels = sym.classes.__wrapped__(grp)
    assert time.perf_counter() - start < 1.0
    assert len(grp.mats) == len(set(grp.codes.tolist())) == 51840 == sym.SP_ENUM_CAP
    assert len(np.unique(labels)) == 34
    assert grp.positions(grp.mats[::-1]).tolist() == list(range(51839, -1, -1))
    with pytest.raises(sym.SymplecticError):
        grp.positions(np.diag([2, 1, 1, 1]))  # determinant 2
    with pytest.raises(sym.SymplecticError):
        grp.positions(np.stack([grp.mats[7], np.ones((4, 4), dtype=np.int64)]))
    with pytest.raises(sym.SymplecticError, match="68880 exceeds the enumeration cap 51840"):
        sym.sp_group(sym.standard_polarized_space(41, 1))


def _sl2_f9():
    """SL_2(F_9) inside Sp_4(F_3): F_9^2 as F_3^4 with the Gram [[0, H], [-H, 0]],
    H the trace Hankel of GF(9), generated by [[I, M_x], [0, I]] and
    [[I, 0], [M_x, I]] for x in {1, t}, M_x the matrix of multiplication by x."""
    k = ff.field(3, 2)
    space = sym.split_space(3, sym.trace_hankel(k))
    one, zero = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    gens = []
    for x in (k.one(), k.gen()):
        m = sym.twist_matrix(x)
        gens += [np.block([[one, m], [zero, one]]), np.block([[one, zero], [m, one]])]
    return space, np.stack(gens)


def test_subgroup_has_its_own_classes():
    # SL_2(F_q) has q + 4 classes for odd q: +-I, four unipotent classes of
    # (q^2 - 1)/2, (q - 1)/2 elliptic classes of q(q - 1) and (q - 3)/2 split
    # classes of q(q + 1)
    space, gens = _sl2_f9()
    sub = sym.closure(space, gens, 720)
    assert sub.gens.tolist() == gens.tolist() and not sub.gens.flags.writeable
    assert len(sub.mats) == len(set(sub.codes.tolist())) == 720
    labels = sym.classes(sub)
    assert (labels[labels] == labels).all() and (labels <= np.arange(720)).all()
    assert sorted(np.unique(labels, return_counts=True)[1].tolist()) == [1, 1] + [40] * 4 + [72] * 4 + [90] * 3
    # two generators of Sp_4(F_3) conjugate the subgroup out of itself, so
    # classes by them would not be the subgroup's
    big = sym.sp_generators(space)
    with pytest.raises(sym.SymplecticError, match="not an element of the group"):
        sub.positions(big[1] @ sub.mats @ sym.inverses(space, big[1]))
    with pytest.raises(sym.SymplecticError, match="not an element of the group"):
        sub.positions(big[0])  # an element of Sp_4(F_3) outside the subgroup


def test_closure_refuses_a_wrong_stated_order():
    space, gens = _sl2_f9()
    with pytest.raises(sym.SymplecticError, match="more than the stated order 719"):
        sym.closure(space, gens, 719)
    with pytest.raises(sym.SymplecticError, match="close to 720 elements, short of the stated order 721"):
        sym.closure(space, gens, 721)
    with pytest.raises(sym.SymplecticError, match="order 51841 exceeds the enumeration cap 51840"):
        sym.closure(space, gens, 51841)
    with pytest.raises(sym.SymplecticError, match="does not preserve the form"):
        sym.closure(space, np.diag([2, 1, 1, 1])[None], 2)  # determinant 2


@pytest.mark.parametrize("group", ["Sp_2(F_13)", "SL_2(F_9)"])
def test_closure_does_not_depend_on_the_slices(monkeypatch, group):
    # closure multiplies each frontier a slice at a time: slices of one
    # element, of seven and one slice for the frontier give the same group
    if group == "SL_2(F_9)":
        (space, gens), order = _sl2_f9(), 720
    else:
        space = sym.standard_polarized_space(13, 1)
        gens, order = sym.sp_generators(space), 2184
    want = sym.closure(space, gens, order)
    for elements in (1, 7):
        monkeypatch.setattr(sym, "ORDER_CHUNK_ENTRIES", elements * gens.size)
        got = sym.closure(space, gens, order)
        for name in ("mats", "orders", "codes", "at"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_split_class_fault_turns_eigen_conjugacy_red():
    with checks.FAULTS["split-class"]():
        rows = checks.check_eigen_conjugacy()
    # read on each class's representative and two more members spread over the class
    assert [r.quantity for r in rows] == ["eigen<->conjugacy p=%d (%d classes)" % (p, p) for p in (3, 5, 7)]
    assert [r.formula for r in rows] == [0, 1, 1]
    assert [r.passed for r in rows] == [True, False, False]


def test_sp_enumeration_cap():
    assert len(sym.sp_elements(sym.standard_polarized_space(3, 1))) == 24
    with pytest.raises(sym.SymplecticError):
        sym.sp_elements(sym.standard_polarized_space(41, 1))  # |Sp_2(F_41)| = 68880


# every field with p <= 13 and p^k <= 6561, pinned so that a larger field cap
# changes neither the cost nor the coverage of the tests that walk them
FIELDS = [(p, k) for p, top in ((3, 8), (5, 5), (7, 4), (11, 3), (13, 3)) for k in range(1, top + 1)]


def _pinned_fields():
    for p, k in FIELDS:
        yield ff.field(p, k)


# every field the sign sweeps enumerate (p <= 7 at degree 4, p = 11 and 13
# at degree 3) and GF(3^6)
@pytest.mark.parametrize("p,k", [(p, k) for p, top in ((3, 4), (5, 4), (7, 4), (11, 3), (13, 3))
                                 for k in range(1, top + 1)] + [(3, 6)])
def test_anti_invariant_units_are_the_units_with_frobenius_minus_one(p, k):
    big = ff.field(p, k)
    # none at j = 0 and j = k, where the Frobenius power is the identity;
    # j = k + 1 acts as j = 1
    for j in range(k + 2):
        assert sym.anti_invariant_units(big, j) == [x for x in big.units() if x ** (p**j) == -x]
    if k % 2 == 0:
        assert sym.anti_invariant_unit(big, k // 2) == sym.anti_invariant_units(big, k // 2)[0]


def test_trace_form_gram_is_the_trace_form():
    # the integer-matrix Gram against its definition Tr(C t^i tau(t^j)),
    # one trace_to per entry, on every pinned field
    rng = random.Random(11)
    for k in _pinned_fields():
        d, f1 = k.degree, ff.field(k.p, 1)
        basis = [k.gen() ** i for i in range(d)]
        for c in [k.one()] + [k.from_index(rng.randrange(1, k.order)) for _ in range(2)]:
            for tau in [None] + list(range(d)):
                want = [[ff.trace_to(c * x * (y if tau is None else y.frobenius(tau)), f1).coeffs[0] for y in basis] for x in basis]
                assert sym.trace_form_gram(k, c, tau).tolist() == want, (k, c, tau)


def _times_t(k):
    """Multiplication by t = k.gen() from the modulus alone: the companion
    matrix (t = 1 in degree 1)."""
    if k.degree == 1:
        return np.eye(1, dtype=np.int64)
    comp = np.eye(k.degree, k.degree, -1, dtype=np.int64)
    comp[:, -1] = [-c % k.p for c in k.modulus[: k.degree]]
    return comp


def test_twist_matrix_at_j0_is_multiplication_on_every_element():
    # column i of twist_matrix(x) is x t^i = C^i x, for every element of
    # every pinned field, zero included
    for k in _pinned_fields():
        xs = list(k.elements())
        coeffs = np.array([x.coeffs for x in xs], dtype=np.int64)
        want = np.empty((len(xs), k.degree, k.degree), dtype=np.int64)
        comp, power = _times_t(k), np.eye(k.degree, dtype=np.int64)
        for i in range(k.degree):
            want[:, :, i] = coeffs @ power.T % k.p
            power = comp @ power % k.p
        got = np.array([sym.twist_matrix(x) for x in xs])
        assert (got == want).all(), k
        assert not sym.twist_matrix(k.zero()).any()


def test_twist_matrix_of_one_and_trace_hankel_are_their_definitions():
    for k in _pinned_fields():
        p, d = k.p, k.degree
        for j in range(-d, 2 * d):
            # column i is (t^i)^(p^j), a polynomial power mod the modulus;
            # j is read mod the degree
            if d == 1:
                want = [[1]]
            else:
                cols = [polyref.poly_powmod([0] * i + [1], p ** (j % d), list(k.modulus), p) for i in range(d)]
                want = [[(col + [0] * d)[r] for col in cols] for r in range(d)]
            assert sym.twist_matrix(k.one(), j).tolist() == want, (k, j)
        f1 = ff.field(p, 1)
        t = k.gen()
        want = [[ff.trace_to(t ** (i + j), f1).coeffs[0] for j in range(d)] for i in range(d)]
        assert sym.trace_hankel(k).tolist() == want, k


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2)])
def test_twist_matrix_is_its_definition(p, d):
    # column i of the matrix of y -> x y^(p^j) is the coefficient vector of
    # x (t^i)^(p^j), computed with polynomial arithmetic mod the modulus,
    # for every x (zero included) and every j < degree
    k = ff.field(p, d)
    modulus = list(k.modulus)
    for j in range(d):
        images = [polyref.poly_powmod([0] * i + [1], p**j, modulus, p) if d > 1 else [1] for i in range(d)]
        for x in k.elements():
            cols = [(polyref.poly_mod(modp.poly_mul(list(x.coeffs), img, p), modulus, p) + [0] * d)[:d] for img in images]
            want = [[col[r] for col in cols] for r in range(d)]
            got = sym.twist_matrix(x, j)
            assert got.dtype == np.int64 and got.tolist() == want, (k, x, j)


def test_cached_field_matrices_are_read_only():
    for k in _pinned_fields():
        exp, log = ff.table_arrays(k)
        image, preimage = ff._embedding(ff.field(k.p, 1), k)
        assert image.dtype == preimage.dtype == np.int16
        cached = [exp, log, image, preimage, sym.trace_hankel(k)] + [sym._twisted_logs(k, j) for j in range(k.degree)]
        for arr in cached:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
    # a gathered twist matrix is the caller's own, a Frobenius power's too
    k = ff.field(5, 2)
    for x, j in ((k.gen(), 0), (k.one(), 1)):
        m = sym.twist_matrix(x, j)
        want = m.tolist()
        m[0, 0] += 1
        assert sym.twist_matrix(x, j).tolist() == want


def test_hyperbolic_basis_on_funny_forms():
    # B^T G B is the standard (e, f) Gram matrix on every space: a trace form
    # over F_9, every sign block up to degree 4 for p = 3, 5, 7, and direct sums
    f9 = ff.field(3, 2)
    c = sym.anti_invariant_unit(f9, 1)
    f1 = ff.field(3, 1)
    basis = [f9.one(), f9.gen()]
    gram = [[ff.trace_to(c * x * y.frobenius(1), f1).coeffs[0] for y in basis] for x in basis]
    spaces = {sym.SympSpace(3, tuple(tuple(r) for r in gram))}
    for p in (3, 5, 7):
        spaces |= {signcalc.build_block(sc).space for _, sc in checks.sign_branch_scenarios(p, 4, 2, 2)}
        spaces.add(sym.direct_sum([doubled_space(p, 1), sym.standard_polarized_space(p, 2)]))
    for space in spaces:
        b = sym.hyperbolic_basis(space)
        std = sym.standard_polarized_space(space.p, space.dim // 2)
        assert not ((b.T @ space.gram @ b - std.gram) % space.p).any()
        # and so J^T B^T G is B^-1
        assert np.array_equal(sym.frame_inverse(space, b) @ b % space.p, np.eye(space.dim, dtype=np.int64))
    for p, n in ((3, 1), (5, 2), (7, 3)):
        b = sym.hyperbolic_basis(sym.standard_polarized_space(p, n))
        assert np.array_equal(b, np.eye(2 * n, dtype=np.int64))


# Gram and operator matrices of every sign block and torus, pinned as one
# sha256 digest per label: the field-block layouts must build the same
# matrices however they are factored.
PINNED_BLOCKS = json.loads((pathlib.Path(__file__).parent / "field_block_digests.json").read_text())
PINNED_TORI = [  # factors (subdegree, norm_one)
    ((1, False),),
    ((1, True),),
    ((2, False),),
    ((2, True),),
    ((3, False),),
    ((1, True), (1, False)),
    ((1, False), (2, True)),
]


def _digest(rows) -> list:
    return [len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()]


def block_digests(p: int) -> dict:
    per_label = {}
    for label, s in checks.sign_branch_scenarios(p, 4, 20, 2):
        bb = signcalc.build_block(s)
        per_label.setdefault(label, []).append([bb.space.gram.tolist(), bb.op.mat.tolist()])
    return {label: _digest(rows) for label, rows in per_label.items()}


def torus_digests(p: int) -> dict:
    out = {}
    for factors in PINNED_TORI:
        torus = sym.Torus(p, factors)
        label = " ".join("%s%d" % ("N" if norm_one else "S", d) for d, norm_one in factors)
        out[label] = _digest([torus.space.gram.tolist(), torus.space.blocks] + [t.elem.mat.tolist() for t in torus.elements()])
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sign_blocks_pinned(p):
    assert block_digests(p) == PINNED_BLOCKS["build_block"][str(p)]


# each sign block's twist matrix, pinned per label as the product M_eta F^e
# mod p of the multiplication and Frobenius matrices: the one exp-table
# gather of twist_matrix must build the same matrix on every block
PINNED_TWISTS = json.loads((pathlib.Path(__file__).parent / "block_twist_digests.json").read_text())


@pytest.mark.parametrize("p", [3, 5])
def test_block_twists_pinned(p):
    per_label = {}
    for label, s in checks.sign_branch_scenarios(p, 4, 16, 2):
        per_label.setdefault(label, []).append(signcalc.build_block(s).op.mat.tolist())
    assert {label: _digest(rows) for label, rows in per_label.items()} == PINNED_TWISTS["%d,4,16,2" % p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tori_pinned(p):
    assert torus_digests(p) == PINNED_BLOCKS["build_torus"][str(p)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_torus_order_counts_the_elements(p):
    for factors in PINNED_TORI:
        torus = sym.Torus(p, factors)
        assert torus.order == len(list(torus.elements()))


def test_field_block_is_built_once_per_value():
    k = ff.field(3, 2)
    c = sym.anti_invariant_unit(k, 1)
    assert sym.field_block(k, c, 1) is sym.field_block(k, c, 1)
    assert sym.field_block(k, k.one(), None) is sym.field_block(k, k.one(), None)
    # an equal C built afresh finds the same space
    assert sym.field_block(k, k.element(c.coeffs), 1) is sym.field_block(k, c, 1)


def test_space_hash_is_computed_once_and_unchanged():
    gram = sym.trace_form_gram(ff.field(3, 2), sym.anti_invariant_unit(ff.field(3, 2), 1), 1)
    a, b = sym.SympSpace(3, gram), sym.SympSpace(3, gram.copy())
    assert hash(a) == a._hash == hash((3, a.gram.tobytes(), None))
    # the hash is read from the instance once it is computed
    a.__dict__["_hash"] = 12345
    assert hash(a) == 12345
    del a.__dict__["_hash"]
    # two equal spaces built apart are equal, hash equal and share a cache entry
    assert a is not b and a == b and b == a and hash(a) == hash(b)
    assert a == a and not a != a
    assert sym.sp_group(a) is sym.sp_group(b)
    # p, the Gram matrix and the blocks each tell spaces apart
    summed = sym.direct_sum([a])
    assert summed.gram.tobytes() == a.gram.tobytes() and summed != a
    assert sym.SympSpace(3, 2 * gram) != a
    assert sym.standard_polarized_space(3, 1) != sym.standard_polarized_space(5, 1)
    assert a != "a space" and a != gram


@pytest.mark.parametrize("fault", [None, "swap-sign"])
def test_memoized_order_and_fixed_space_dim(fault):
    # order() and fixed_space_dim() are computed once per element and then
    # read back; both calls must equal symplectic.orders and dim - rank(g - 1),
    # also under a fault in the row reduction that rank reads
    with checks.FAULTS[fault]() if fault else contextlib.nullcontext():
        grp = sym.sp_group(sym.standard_polarized_space(5, 1))
        model = weil.WeilModel(sym.standard_polarized_space(3, 2))
        rng = np.random.default_rng(11)
        cells = [checks.cell_element(model, r, rng) for r in (0, 1, 2) for _ in range(6)]
        els = [grp.elem(i) for i in range(len(grp.mats))]
        assert [g.order() for g in els] == grp.orders.tolist()
        for g in els + cells:
            shift = (g.mat - np.eye(g.space.dim, dtype=np.int64)) % g.space.p
            for _ in range(2):
                assert g.order() == int(sym.orders(g.space, g.mat))
                assert g.fixed_space_dim() == g.space.dim - modp.rank(shift, g.space.p)
        assert {g.fixed_space_dim() for g in cells} >= {0, 2}
