import hashlib
import json
import pathlib
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilchar import lattice as lat


def snf_diag(m):
    u, d, v = lat.smith_normal_form(m)
    n = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(n)]


def test_snf_examples():
    assert snf_diag([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diag([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diag([[1, -1], [-1, 1]]) == [1, 0]


def test_snf_witnesses():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = lat.smith_normal_form(m)
    assert (np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object) == np.array(d, dtype=object)).all()
    assert abs(lat.det_int(u)) == 1
    assert abs(lat.det_int(v)) == 1


def _det_fraction(m):
    """Gaussian elimination on Fractions: the reference for det_int."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def test_det_int_equals_fraction_elimination():
    rng = random.Random(19)
    for n in range(1, 9):
        for kind in ("random", "singular", "swap"):
            for _ in range(5):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if kind == "singular" and n > 1:
                    (k, j), c = rng.sample(range(n), 2), rng.randint(-3, 3)
                    m[k] = [c * x for x in m[j]]
                if kind == "swap":
                    m[0][0] = 0  # a zero pivot forces a row swap at step 0
                    m[n - 1][0] = m[n - 1][0] or 1
                want = _det_fraction(m)
                assert lat.det_int(m) == want, m
                if kind == "singular" and n > 1:
                    assert want == 0
    assert lat.det_int([[0, 1], [1, 0]]) == -1
    assert lat.det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    with pytest.raises(lat.LatticeError):
        lat.det_int([[1, 2, 3], [4, 5, 6]])


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_snf_random_contract(seed):
    import random

    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    u, d, v = lat.smith_normal_form(m)
    assert (np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object) == np.array(d, dtype=object)).all()
    assert abs(lat.det_int(u)) == 1 and abs(lat.det_int(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        assert not (a == 0 and b != 0)
        assert a == 0 or b % a == 0


def test_pi0_examples():
    assert lat.pi0_torsion([[-1]]) == [2]
    assert lat.pi0_torsion([[0, 1], [1, 0]]) == []
    # permutation 3-cycle on Z^3: image of 1-theta is the full sum-zero
    # sublattice, so the cokernel is free (Z); no torsion
    assert lat.pi0_torsion([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == []
    # the order-3 rotation on the rank-2 root lattice does carry the 3-torsion
    assert lat.pi0_torsion([[0, -1], [1, -1]]) == [3]
    with pytest.raises(lat.LatticeError, match="theta has infinite order"):
        lat.pi0_torsion([[1, 1], [0, 1]])
    for theta, shape in (([[1, 2]], "1x2"), ([[1, 0], [0, 1], [0, 0]], "3x2")):
        for call in (lat.matrix_order, lat.pi0_torsion):
            with pytest.raises(lat.LatticeError, match="non-square %s matrix" % shape):
                call(theta)


def test_pi0_property_seeded():
    import random

    rng = random.Random(12345)
    from weilchar.checks import make_finite_order_matrix

    for _ in range(60):
        m, order = make_finite_order_matrix(rng)
        assert lat.matrix_order(m) == order  # the lcm of the block orders is the order
        for factor in lat.pi0_torsion(m):
            x = factor
            d = 2
            while d * d <= x:
                while x % d == 0:
                    assert order % d == 0
                    x //= d
                d += 1
            if x > 1:
                assert order % x == 0


def test_catalogue_membership_and_sizes():
    cat = lat.catalogue()
    assert {"A1", "A2", "A3", "A4", "B2", "C2", "D4", "A2.flip", "A3.flip", "A4.flip", "D4.swap", "D4.triality"} <= set(cat)
    assert len(cat["A2"].roots) == 6
    assert len(cat["B2"].roots) == 8
    assert len(cat["C2"].roots) == 8
    assert len(cat["D4"].roots) == 24
    assert cat["D4.triality"].order == 3


def test_catalogue_is_built_once_and_returned_fresh():
    first, second = lat.catalogue(), lat.catalogue()
    assert first == second and first is not second
    assert all(first[name] is second[name] for name in first)
    del first["A2"]
    assert "A2" in lat.catalogue() and lat.catalogue()["A2"] is second["A2"]


def test_catalogue_built_in_racing_threads_is_one_catalogue():
    # the --jobs pool shares the cached catalogue; threads that race its
    # first build all read the same data and orders
    want = {name: (d, d.order) for name, d in lat.catalogue().items()}
    lat._catalogue.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda _: {name: (d, d.order) for name, d in lat.catalogue().items()}, range(16), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)
    assert lat.catalogue() == lat.catalogue()


def test_datum_order_is_computed_once(monkeypatch):
    calls = []
    order = lat.matrix_order
    monkeypatch.setattr(lat, "matrix_order", lambda t: calls.append(t) or order(t))
    d = lat.RootDatum(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((2, 0), (0, 2), (-2, 0), (0, -2)), ((0, 1), (1, 0)))
    assert (d.order, d.order) == (2, 2)
    assert len(calls) == 1  # the one in __post_init__'s validation


@pytest.mark.parametrize("m", [[1, 2, 3], [[1, 2], [3]], np.zeros((2, 2, 2), dtype=int), [], 5, "12"],
                         ids=["flat", "ragged", "3-d", "empty", "scalar", "string"])
def test_non_matrices_are_refused(m):
    for call in (lat.smith_normal_form, lat.matrix_order, lat.pi0_torsion, lat.det_int):
        with pytest.raises(lat.LatticeError, match="expected a matrix"):
            call(m)


def test_rows_read_lists_tuples_and_arrays_alike():
    m = [[0, -1], [1, -1]]
    for form in (m, tuple(map(tuple, m)), np.array(m), np.array(m, dtype=object)):
        assert lat.matrix_order(form) == 3
        assert lat.smith_normal_form(form) == lat.smith_normal_form(m)
    assert lat.smith_normal_form(np.zeros((0, 3), dtype=int)) == ([], [], [])  # no rows: nothing to reduce


def test_rank_above_the_cap_is_refused_before_any_power(monkeypatch):
    n = lat.ORDER_RANK_CAP + 1
    shift = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    at_cap = [[int(j == (i + 1) % (n - 1)) for j in range(n - 1)] for i in range(n - 1)]
    assert lat.matrix_order(at_cap) == n - 1
    monkeypatch.setattr(lat, "mul", None)  # any product would fail
    for call in (lat.matrix_order, lat.pi0_torsion):
        with pytest.raises(lat.LatticeError, match="order of a %dx%d matrix: rank %d is above the cap %d" % (n, n, n, lat.ORDER_RANK_CAP)):
            call(shift)
    with pytest.raises(lat.LatticeError, match="rank %d is above the cap %d" % (n, lat.ORDER_RANK_CAP)):
        lat.RootDatum(n, (), (), tuple(map(tuple, shift)))


def test_infinite_order_is_refused_at_the_trace_bound(monkeypatch):
    # a finite-order theta has |tr theta^k| <= rank for every k, with equality
    # at +rank only at the identity, so the walk stops at the first power
    # that breaks this instead of walking all 10,000 powers (2.5 s for
    # [[10**50]], about 1 s for the rank-6 conjugate below, 8 s for the
    # unipotent with 10**2000 above the diagonal); the budget counts entry
    # multiplications through lattice.mul
    blocks = [[0] * 6 for _ in range(6)]
    for i in (0, 2, 4):
        blocks[i][i:i + 2], blocks[i + 1][i:i + 2] = [2, 1], [1, 1]
    # conjugated by the all-ones upper triangle, whose inverse is I - superdiagonal
    upper, upper_inv = np.triu(np.ones((6, 6), dtype=np.int64)), np.eye(6, dtype=np.int64) - np.eye(6, k=1, dtype=np.int64)
    conjugate = (upper @ np.array(blocks) @ upper_inv).tolist()
    unipotent = [[int(j == i) + 10**2000 * (j == i + 1) for j in range(6)] for i in range(6)]
    products = []
    monkeypatch.setattr(lat, "mul", lambda a, b: products.append(1) or a * b)
    start = time.perf_counter()
    # after one 2x2 product (8 entry multiplications): the Fibonacci matrix
    # has traces 1, then 3 > 2; [[-1, 1], [0, -1]] has trace -2, allowed (-I
    # has it), then its square [[1, -2], [0, 1]] has trace 2 off the identity
    cases = (([[10**50]], 0), ([[2, 1], [1, 1]], 0), (conjugate, 0), (unipotent, 0), ([[0, 1], [1, 1]], 8),
             ([[-1, 1], [0, -1]], 8))
    for theta, budget in cases:
        products.clear()
        with pytest.raises(lat.LatticeError, match=r"its trace is outside \[-%d, %d\)" % (len(theta), len(theta))):
            lat.matrix_order(theta)
        assert len(products) == budget
    assert time.perf_counter() - start < 0.1


def test_restrict_examples():
    cat = lat.catalogue()
    # identity theta: Phi_res = Phi, all type 1
    res = lat.restrict_roots(cat["A3"])
    assert all(r.type_tag == 1 for r in res.restricted)
    assert len(res.restricted) == len(cat["A3"].roots)
    # A3 with the flip: all restricted roots type 1 (no A_{2n} component)
    res3 = lat.restrict_roots(cat["A3.flip"])
    assert all(r.type_tag == 1 for r in res3.restricted)
    # A2 with the flip: simple-root orbits restrict to type 2, highest to type 3
    res2 = lat.restrict_roots(cat["A2.flip"])
    tags = sorted(r.type_tag for r in res2.restricted)
    assert tags == [2, 2, 3, 3]
    by_tag = {r.vector: r.type_tag for r in res2.restricted}
    assert by_tag[res2.by_root[(1, 0)]] == 2
    assert by_tag[res2.by_root[(1, 1)]] == 3
    flip = cat["A2.flip"]
    assert flip.theta_orbit((1, 0)) == [(1, 0), (0, 1)] and flip.theta_orbit((1, 1)) == [(1, 1)]
    with pytest.raises(lat.LatticeError, match=r"\(5, 5\) not a root"):
        flip.theta_orbit((5, 5))


def test_descended_examples():
    cat = lat.catalogue()
    ident = cat["A2"]
    assert len(lat.descended_roots(ident, {a: 1 for a in ident.roots})) == 6
    flip = cat["A2.flip"]
    surviving = lat.descended_roots(flip, {a: 1 for a in flip.roots})
    res = lat.restrict_roots(flip)
    assert surviving == {r.vector for r in res.restricted if r.type_tag != 3}
    assert lat.descended_roots(flip, {a: 9 for a in flip.roots}) == set()
    with pytest.raises(lat.LatticeError, match="nu evaluation not constant on"):
        lat.descended_roots(flip, {a: i for i, a in enumerate(flip.roots)})


def test_datum_json_round_trip():
    # A2.flip as a scenario file spells it
    obj = {
        "rank": 2,
        "roots": [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]],
        "coroots": [[-1, -1], [-2, 1], [1, -2], [-1, 2], [2, -1], [1, 1]],
        "theta": [[0, 1], [1, 0]],
    }
    assert lat.datum_from_json(obj) == lat.catalogue()["A2.flip"]


def test_datum_validation():
    with pytest.raises(lat.LatticeError):
        lat.RootDatum(1, ((1,),), ((1,),), ((1,),))  # pairing != 2
    with pytest.raises(lat.LatticeError):
        # theta does not permute the roots
        lat.RootDatum(1, ((1,), (-1,)), ((2,), (-2,)), ((2,),))
    # roots, coroots and theta must have the datum's rank
    a1 = (((1,), (-1,)), ((2,), (-2,)))
    with pytest.raises(lat.LatticeError, match=r"theta must be 2x2 for rank 2"):
        lat.RootDatum(2, ((1, 0), (-1, 0)), ((2, 0), (-2, 0)), ((1,),))
    with pytest.raises(lat.LatticeError, match=r"theta must be 1x1 for rank 1"):
        lat.RootDatum(1, *a1, ((1, 0),))
    with pytest.raises(lat.LatticeError, match=r"root \(1, 0\) has length 2, not rank 1"):
        lat.RootDatum(1, ((1, 0), (-1, 0)), a1[1], ((1,),))
    with pytest.raises(lat.LatticeError, match=r"coroot \(2,\) has length 1, not rank 2"):
        lat.RootDatum(2, ((1, 0), (-1, 0)), a1[1], ((1, 0), (0, 1)))


def test_datum_validation_checks_coroots_against_theta():
    # A1 x A1 with skewed coroots: the swap permutes the roots, but the
    # coroot of theta(a) is not theta^{-T}(a^), so only theta = id is a datum
    roots = ((1, 0), (0, 1), (-1, 0), (0, -1))
    coroots = ((2, 1), (0, 2), (-2, -1), (0, -2))
    with pytest.raises(lat.LatticeError, match="coroots"):
        lat.RootDatum(2, roots, coroots, ((0, 1), (1, 0)))
    d = lat.RootDatum(2, roots, coroots, ((1, 0), (0, 1)))
    assert d.theta_orbit((1, 0)) == [(1, 0)]


def test_type_2_and_3_pair_up():
    # a type-2 restricted root doubles to a type-3 one and vice versa
    cat = lat.catalogue()
    for name in ("A2.flip", "A4.flip"):
        res = lat.restrict_roots(cat[name])
        by_vec = {r.vector: r.type_tag for r in res.restricted}
        for r in res.restricted:
            if r.type_tag == 2:
                doubled = tuple(2 * x for x in r.vector)
                assert by_vec.get(doubled) == 3
            if r.type_tag == 3:
                half = tuple(x // 2 for x in r.vector)
                assert by_vec.get(half) == 2


# -- pinned outputs of the integer kernels and the catalogue -----------------

PINNED = json.loads((pathlib.Path(__file__).parent / "lattice_digests.json").read_text())


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def snf_batch():
    """A random, a low-rank and a zero matrix of every shape 1x1 to 8x8."""
    rng = random.Random(2028)
    out = {"random": [], "low-rank": [], "zero": []}
    for r in range(1, 9):
        for c in range(1, 9):
            out["random"].append([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            k = max(1, min(r, c) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            out["low-rank"].append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left])
            out["zero"].append([[0] * c for _ in range(r)])
    return out


def lattice_digests():
    """sha256 of smith_normal_form's (U, D, V) per batch kind, of
    matrix_order and pi0_torsion on seeded finite-order draws, and of each
    catalogue datum's restriction and nu = 1 descended roots."""
    from weilchar.checks import make_finite_order_matrix

    out = {"snf %s" % kind: _sha([lat.smith_normal_form(m) for m in ms]) for kind, ms in snf_batch().items()}
    rng = random.Random(2029)
    draws = [make_finite_order_matrix(rng)[0] for _ in range(80)]
    out["matrix_order"] = _sha([lat.matrix_order(m) for m in draws])
    out["pi0_torsion"] = _sha([lat.pi0_torsion(m) for m in draws])
    cat = lat.catalogue()
    out["catalogue order"] = _sha(list(cat))
    for name, d in cat.items():
        res = lat.restrict_roots(d)
        out["restrict %s" % name] = _sha([
            res.proj_rows,
            [[r.vector, r.type_tag, r.orbit] for r in res.restricted],
            list(res.by_root.items()),
            sorted(lat.descended_roots(d, {a: 1 for a in d.roots})),
        ])
    return out


def test_lattice_digests_pinned():
    assert lattice_digests() == PINNED
