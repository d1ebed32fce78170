import hashlib
import json
import pathlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilchar import ffield as ff, modp

import polyref


F3 = ff.field(3, 1)
F9 = ff.field(3, 2)
F81 = ff.field(3, 4)


def test_modulus_is_deterministic_and_irreducible():
    assert F9.modulus == (1, 0, 1)  # t^2 + 1, the first irreducible over F_3
    assert ff.field(5, 2).modulus == (2, 0, 1)  # t^2 + 2 over F_5
    # cached: same object
    assert ff.field(3, 2) is F9


def test_cap_refuses_large_towers():
    with pytest.raises(ff.FieldError):
        ff.field(3, 9)
    with pytest.raises(ff.FieldError):
        ff.field(7, 5)


def test_trace_examples():
    t = F9.gen()
    assert ff.trace_to(F9.one(), F3) == 2  # degree mod p
    assert ff.trace_to(F9.zero(), F3) == 0
    # Tr(t) = t + t^3 = t - t = 0 for t^2 = -1
    assert ff.trace_to(t, F3) == 0


def test_norm_examples():
    t = F9.gen()
    assert ff.norm_to(F9.one(), F3) == 1
    assert ff.norm_to(t, F3) == 1  # t * t^3 = -t^2 = 1
    assert ff.norm_to(t, F9) == t  # norm to the parent is the identity


# every quadratic extension GF(p^2d) / GF(p^d) under the cap
QUADRATIC = [(p, d) for p in range(3, 82) if modp.is_prime(p) for d in range(1, 5) if p ** (2 * d) <= ff.FIELD_CAP]


@pytest.mark.parametrize("p,d", QUADRATIC)
def test_norm_fibres_partition_the_units(p, d):
    big, sub = ff.field(p, 2 * d), ff.field(p, d)
    q = sub.order
    targets = [x for x in big.units() if x ** q == x]
    fibres = [ff.units_of_norm(big, sub, t) for t in targets]
    assert len(fibres) == q - 1 and all(len(f) == q + 1 for f in fibres)
    assert all(x ** (q + 1) == t for f, t in zip(fibres, targets) for x in f)
    assert sorted(x.index() for f in fibres for x in f) == list(range(1, big.order))
    assert all([x.index() for x in f] == sorted(x.index() for x in f) for f in fibres)
    assert ff.norm_one_group(big, sub) == ff.units_of_norm(big, sub, big.one())
    assert ff.units_of_norm(big, sub, big.gen()) == ff.units_of_norm(big, sub, big.zero()) == []


def test_norm_one_group_refuses_a_short_kernel(monkeypatch):
    # a kernel one element short is an error, not a smaller group, also
    # under python -O
    orig = ff.units_of_norm
    monkeypatch.setattr(ff, "units_of_norm", lambda big, sub, target: orig(big, sub, target)[:-1])
    with pytest.raises(ff.FieldError, match="3 units of norm one .* expected 4"):
        ff.norm_one_group(F9, F3)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 2), (7, 2)])
def test_norm_surjective_onto_subfield(p, k):
    big = ff.field(p, k)
    sub = ff.field(p, 1)
    images = {ff.norm_to(x, sub) for x in big.units()}
    assert images == set(sub.units())


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_twisted_fixed_dim_counts_the_solutions(p, k):
    # p^dim solutions x of eta x^(p^j) = x, counted over the whole field, for
    # every unit eta and j = 0 .. 2k - 1
    big = ff.field(p, k)
    for j in range(2 * k):
        for eta in big.units():
            solutions = sum(eta * x.frobenius(j) == x for x in big.elements())
            assert solutions == p ** ff.twisted_fixed_dim(eta, j), (eta, j)
    assert ff.twisted_fixed_dim(big.one(), 0) == k


def test_sgn_examples():
    assert ff.sgn_mult(F3.one()) == 1
    assert ff.sgn_mult(F3.from_int(2)) == -1
    with pytest.raises(ff.FieldError, match="sgn of zero"):
        ff.sgn_mult(F3.zero())


def test_sgn_norm_one_examples():
    group = ff.norm_one_group(F9, F3)
    assert len(group) == 4
    for x in group:
        order = _order(x)
        want = 1 if order <= 2 else -1
        assert ff.sgn_norm_one(x, F3) == want
    with pytest.raises(ff.FieldError, match=r"\] != 2 inside"):
        ff.sgn_norm_one(ff.embed(F3.one(), F81), F3)
    with pytest.raises(ff.FieldError, match="is not norm-one in"):
        ff.sgn_norm_one(F9.gen() + 1, F3)


def _brute_squares(k):
    return {x * x for x in k.units()}


@pytest.mark.parametrize("p,j,d", [(3, 2, 4), (3, 3, 6), (3, 1, 4), (5, 1, 2)])
def test_sgn_mult_in_proper_subfield(p, j, d):
    sub, big = ff.field(p, j), ff.field(p, d)
    squares = _brute_squares(sub)
    for x in sub.units():
        want = 1 if x in squares else -1
        assert ff.sgn_mult(x) == want
        assert ff.sgn_mult(ff.embed(x, big), sub) == want
    outside = next(y for y in big.units() if y.frobenius(j) != y)
    with pytest.raises(ff.FieldError, match="does not lie in"):
        ff.sgn_mult(outside, sub)
    with pytest.raises(ff.FieldError, match="sgn of zero"):
        ff.sgn_mult(big.zero(), sub)


@pytest.mark.parametrize("p,j,d", [(3, 2, 4), (3, 2, 6), (5, 2, 4), (3, 1, 6)])
def test_sgn_norm_one_in_proper_subfield(p, j, d):
    # x in k = GF(p^j) of norm one over k^o = GF(p^(j/2)), seen inside GF(p^d)
    k, big = ff.field(p, j), ff.field(p, d)
    if j % 2:
        with pytest.raises(ff.FieldError, match=r"\] != 2 inside"):
            ff.sgn_norm_one(big.one(), ff.field(p, 1), k)
        return
    sub = ff.field(p, j // 2)
    group = ff.norm_one_group(k, sub)
    squares = {x * x for x in group}
    for x in group:
        want = 1 if x in squares else -1
        assert ff.sgn_norm_one(x, sub) == want
        assert ff.sgn_norm_one(ff.embed(x, big), sub, k) == want
    not_norm_one = next(y for y in k.units() if ff.norm_to(y, sub) != 1)
    with pytest.raises(ff.FieldError, match="is not norm-one in"):
        ff.sgn_norm_one(ff.embed(not_norm_one, big), sub, k)
    with pytest.raises(ff.FieldError, match="is not norm-one in"):
        ff.sgn_norm_one(big.gen(), sub, k)  # not in k at all


def test_nth_roots_examples():
    f5 = ff.field(5, 1)
    assert sorted(r.index() for r in ff.nth_roots(f5.one(), 2)) == [1, 4]
    # 2f-th roots of norm-one elements land in GF(q^{2f}): q=3, f=2
    for x in ff.norm_one_group(F9, F3):
        roots = ff.nth_roots(ff.embed(x, F81), 4)
        assert len(roots) == 4
    # n divisible by p makes X^n - x inseparable; refused
    with pytest.raises(ff.FieldError, match="n = 3 is divisible by p = 3"):
        ff.nth_roots(F9.one(), 3)


def test_embedding_is_ring_hom_fixing_prime_field():
    for a in F9.elements():
        for b in list(F9.elements())[:9]:
            assert ff.embed(a * b, F81) == ff.embed(a, F81) * ff.embed(b, F81)
            assert ff.embed(a + b, F81) == ff.embed(a, F81) + ff.embed(b, F81)
    for c in range(3):
        assert ff.embed(F3.from_int(c), F9) == F9.from_int(c)
    with pytest.raises(ff.FieldError, match="is not a subfield of"):
        ff.embed(F9.gen(), ff.field(3, 3))


def test_serialization_round_trip():
    x = F9.gen() + 2
    assert ff.serialize(x) == "3^2:2,1"
    assert ff.deserialize(ff.serialize(x)) == x
    for s in ("3^2:5,1", "3^2:2,-2"):  # each is 2 + t mod 3
        with pytest.raises(ff.FieldError, match="has a digit outside 0..2"):
            ff.deserialize(s)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 3), (7, 2)])
def test_hash_agrees_with_int_equality(p, k):
    field = ff.field(p, k)
    for n in range(p):
        x = field.from_int(n)
        assert x == n and hash(x) == hash(n)
        assert n in {x} and x in {n}
    assert field.gen() + 1 in {field.gen() + 1}


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled(i, j, k):
    a, b, c = F81.from_index(i), F81.from_index(j), F81.from_index(k)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    if not a.is_zero():
        assert a * a.inverse() == 1
    # int operands on either side act as their residues in the prime field
    n = F81.from_int(k)
    assert k + a == a + k == n + a
    assert k - a == n - a and a - k == a - n
    assert k * a == a * k == n * a
    assert (k - a) + (a - k) == 0
    if k % 3:
        assert a / k == a / n
    if not a.is_zero():
        assert k / a == n / a and (k / a) * a == k


@given(st.integers(1, 24), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_sgn_multiplicative_sampled(i, j):
    f25 = ff.field(5, 2)
    x, y = f25.from_index(i), f25.from_index(j)
    assert ff.sgn_mult(x * y) == ff.sgn_mult(x) * ff.sgn_mult(y)


def test_frobenius_has_full_order():
    t = F81.gen()
    powers = {tuple((t.frobenius(j)).coeffs) for j in range(4)}
    assert len(powers) == 4
    assert t.frobenius(4) == t


# (p, k): (modulus, multiplicative generator), recorded from the polynomial
# implementation before arithmetic became table lookups
PINNED = {
    (3, 1): ((0, 1), (2,)),
    (3, 2): ((1, 0, 1), (1, 1)),
    (3, 3): ((1, 2, 0, 1), (0, 1, 0)),
    (3, 4): ((2, 1, 0, 0, 1), (0, 1, 0, 0)),
    (3, 5): ((1, 2, 0, 0, 0, 1), (0, 1, 0, 0, 0)),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), (2, 1, 0, 0, 0, 0, 0)),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), (2, 0, 1, 1, 0, 0, 0, 0)),
    (5, 1): ((0, 1), (2,)),
    (5, 2): ((2, 0, 1), (1, 1)),
    (5, 3): ((1, 1, 0, 1), (4, 1, 0)),
    (5, 4): ((2, 0, 0, 0, 1), (1, 1, 0, 0)),
    (5, 5): ((1, 4, 0, 0, 0, 1), (0, 2, 0, 0, 0)),
    (7, 1): ((0, 1), (3,)),
    (7, 2): ((1, 0, 1), (2, 1)),
    (7, 3): ((2, 0, 0, 1), (1, 3, 0)),
    (7, 4): ((1, 1, 0, 0, 1), (5, 1, 0, 0)),
    (11, 1): ((0, 1), (2,)),
    (11, 2): ((1, 0, 1), (4, 1)),
    (11, 3): ((4, 1, 0, 1), (0, 1, 0)),
    (13, 1): ((0, 1), (2,)),
    (13, 2): ((2, 0, 1), (2, 1)),
    (13, 3): ((2, 0, 0, 1), (2, 1, 0)),
}
SMALL = sorted(pk for pk in PINNED if pk[0] ** pk[1] <= 81)
LARGE = sorted(pk for pk in PINNED if pk[0] ** pk[1] > 81)


def test_pins_cover_every_field_under_the_cap():
    every = {(p, k) for p in (3, 5, 7, 11, 13) for k in range(1, 9) if p**k <= ff.FIELD_CAP}
    assert set(PINNED) == every


@pytest.mark.parametrize("p,k", sorted(PINNED))
def test_modulus_and_generator_pinned(p, k):
    desc = ff.field(p, k)
    modulus, gen = PINNED[(p, k)]
    assert desc.modulus == modulus
    g = desc.multiplicative_generator()
    assert g.coeffs == gen and _order(g) == desc.order - 1
    # the first unit of full order in canonical order
    assert all(_order(x) < desc.order - 1 for x in desc.units() if x.index() < g.index())


# sha256 of the (exp, log) tables of every field under the cap and of the
# embedding root of every proper subfield, recorded from the generator walk
# and the element-by-element root search before both became array code
PINNED_TABLES = json.loads((pathlib.Path(__file__).parent / "field_table_digests.json").read_text())


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_field_tables_and_embedding_roots_pinned():
    tables, roots = {}, {}
    for p, k in sorted(PINNED):
        big = ff.field(p, k)
        exp, log = ff.table_arrays.__wrapped__(big)  # recomputed, not the cached copy
        tables["%d^%d" % (p, k)] = _sha([exp.tolist(), log.tolist()])
        for j in range(1, k):
            if k % j == 0:
                roots["%d^%d<%d^%d" % (p, j, p, k)] = _sha(ff._embedding_root(ff.field(p, j), big).coeffs)
    assert tables == PINNED_TABLES["_tables"]
    assert roots == PINNED_TABLES["_embedding_root"]


@pytest.mark.parametrize("p,k", sorted(pk for pk in PINNED if pk[0] ** pk[1] <= 729))
def test_element_contract(p, k):
    # every element built three ways (coefficients, index, power of the
    # generator or a product with zero) is one element: ==, hash, index and
    # coeffs agree, and the coefficient vector is the index's base-p digits
    desc = ff.field(p, k)
    g, log = desc.multiplicative_generator(), ff.table_arrays(desc)[1]
    for n in range(desc.order):
        digits = tuple(n // p**i % p for i in range(k))
        ways = [desc.element(digits), desc.from_index(n), g ** int(log[n]) if n else desc.zero() * g]
        for x in ways:
            assert x == ways[0] and hash(x) == hash(ways[0])
            assert x.index() == n and x.coeffs == digits
            assert desc.element(x.coeffs).index() == n
            if n < p:  # a constant equals its residue and hashes like it
                assert x == n and hash(x) == hash(n)
            else:
                assert all(x != c for c in range(p))


def test_tables_first_built_by_racing_threads():
    # the --jobs thread pool can be first to touch a field's (_log, _exp)
    # pair; threads racing on a fresh description all read the same tables
    ref = ff.field(3, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            desc = ff.FieldDesc(ref.p, ref.degree, ref.modulus)
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lambda: (desc._log, desc._exp, [(x * x).idx for x in desc.units()])) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            want = (ref._log, ref._exp, [(x * x).idx for x in ref.units()])
            assert all(r == want for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_from_index_refuses_out_of_range():
    f25 = ff.field(5, 2)
    assert f25.from_index(0).is_zero() and f25.from_index(24).coeffs == (4, 4)
    for n in (-1, 25, 26):
        with pytest.raises(ff.FieldError):
            f25.from_index(n)


def _pad(d, coeffs):
    return d.element((list(coeffs) + [0] * d.degree)[: d.degree])


def _ref_mul(a, b):
    """The polynomial product reduced by the modulus."""
    d = a.parent
    return _pad(d, polyref.poly_mod(modp.poly_mul(a.coeffs, b.coeffs, d.p), list(d.modulus), d.p))


def _ref_pow(a, e):
    d = a.parent
    return _pad(d, polyref.poly_powmod(list(a.coeffs), e, list(d.modulus), d.p))


def _order(x):
    """The multiplicative order of the unit x: the least divisor e of q - 1
    with x^e = 1 in the polynomial reference."""
    n = x.parent.order - 1
    return next(e for e in range(1, n + 1) if n % e == 0 and _ref_pow(x, e) == 1)


def _check_against_polynomials(a, b):
    d = a.parent
    assert a * b == _ref_mul(a, b)
    for e in (0, 1, 2, d.p, d.order - 2, d.order - 1, d.order, 3 * d.order + 5):
        assert a**e == _ref_pow(a, e)
    for j in range(d.degree + 1):
        assert a.frobenius(j) == _ref_pow(a, d.p**j)
    if a.is_zero():
        return
    inv = a.inverse()
    assert _ref_mul(a, inv) == 1
    for e in (1, 2, d.order + 1):
        assert a**-e == _ref_pow(inv, e)


@pytest.mark.parametrize("p,k", SMALL)
def test_arithmetic_equals_polynomial_reference_exhaustive(p, k):
    d = ff.field(p, k)
    units = list(d.units())
    for a in d.elements():
        for b in d.elements():
            assert a * b == _ref_mul(a, b)
        _check_against_polynomials(a, units[(a.index() * 7) % len(units)])


@pytest.mark.parametrize("p,k", LARGE)
def test_arithmetic_equals_polynomial_reference_sampled(p, k):
    d = ff.field(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(150):
        a, b = d.from_index(rng.randrange(d.order)), d.from_index(rng.randrange(d.order))
        _check_against_polynomials(a, b)
    for sub in (ff.field(p, j) for j in range(1, k + 1) if k % j == 0):
        for _ in range(10):
            x = d.from_index(rng.randrange(d.order))
            conj, prod = x, d.one()
            for _ in range(k // sub.degree):
                prod, conj = _ref_mul(prod, conj), _ref_pow(conj, sub.order)
            assert ff.embed(ff.norm_to(x, sub), d) == prod


@pytest.mark.parametrize("p,k", sorted(PINNED))
def test_project_equals_linear_solve(p, k):
    # embed is an index gather; the reference applies the embedding's F_p-linear
    # map (the powers of the embedding root) to every element of the subfield,
    # and the projection must be the brute-force inverse of that map: defined
    # exactly on its image
    big = ff.field(p, k)
    rng = random.Random(1000 * p + k)
    pool = list(big.elements()) if big.order <= 81 else [big.from_index(rng.randrange(big.order)) for _ in range(100)]
    for sub in (ff.field(p, j) for j in range(1, k + 1) if k % j == 0):
        mat = np.array(polyref.embedding_matrix(sub, big), dtype=np.int64)
        inverse = {}
        for y in sub.elements():
            x = ff.embed(y, big)
            assert x.coeffs == tuple((mat @ np.array(y.coeffs) % p).tolist())
            assert ff._project(x, sub) == y
            inverse[x] = y
        assert len(inverse) == sub.order
        for x in pool:
            if x in inverse:
                assert ff._project(x, sub) == inverse[x]
            else:
                with pytest.raises(ff.FieldError):
                    ff._project(x, sub)


def _seeded_polys(p, rng):
    """F_p polynomials with roots of every kind: products of random monic
    factors of degree 1-3, some repeated, some times a power of X."""
    out = []
    for _ in range(12):
        f = [rng.randrange(1, p)]
        for _ in range(rng.randrange(1, 4)):
            factor = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = modp.poly_mul(f, factor, p)
        out.append([0] * rng.choice((0, 0, 1, 2)) + f)
    out += [[0, 1], [1], [0, 0, 0, 1], modp.poly_mul([p - 1, 1], [p - 1, 1], p)]  # X, 1, X^3, (X-1)^2
    return out


@pytest.mark.parametrize("p,k", SMALL)
def test_poly_roots_equal_element_by_element_search(p, k):
    desc = ff.field(p, k)
    rng = random.Random(31 * p + k)
    for f in _seeded_polys(p, rng):
        want = polyref.root_search(f, desc)
        assert ff.poly_roots(f, desc) == want, f
        for j in (j for j in range(1, k + 1) if k % j == 0):
            # the roots x = x^(p^j), those in the degree-j subfield
            assert ff.poly_roots(f, desc, within=j) == [x for x in want if x ** (p**j) == x], (f, j)
    # (X + 1)^(p+1): a multiplicity of p or more, which ordinary derivatives
    # (all zero from the p-th on) cannot count
    f = [1]
    for _ in range(p + 1):
        f = modp.poly_mul(f, [1, 1], p)
    assert [x.index() for x in ff.poly_roots(f, desc)] == [p - 1] * (p + 1)
    with pytest.raises(ff.FieldError):
        ff.poly_roots([0, 0], desc)
    for j in (0, k + 1):
        with pytest.raises(ff.FieldError):
            ff.poly_roots([0, 1], desc, within=j)


def _mobius(n):
    out = 1
    for r in modp.prime_factors(n):
        if n % (r * r) == 0:
            return 0
        out = -out
    return out


@pytest.mark.parametrize("p,degrees", [(3, (2, 3, 4)), (5, (2, 3)), (7, (2,))])
def test_is_irreducible_equals_trial_division(p, degrees):
    for k in degrees:
        count = 0
        for f in polyref.monic_polys(k, p):
            want = polyref.is_irreducible_by_trial_division(f, p)
            assert ff._is_irreducible(f, p) == want, f
            count += want
        # Gauss: (1/k) sum_{d | k} mu(d) p^(k/d) monic irreducibles of degree k
        assert count == sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def test_zero_keeps_its_results_and_exceptions():
    for d in (F3, F9, ff.field(5, 3)):
        z, x = d.zero(), d.gen() + 1
        assert z * x == x * z == z and z * 2 == z
        assert z**0 == 1 and z**5 == z and z.frobenius(1) == z
        assert ff.norm_to(z, F3 if d.p == 3 else ff.field(5, 1)) == 0
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            z**-2
        with pytest.raises(ZeroDivisionError):
            x / z
        assert ff.nth_roots(z, 2) == [z]
    with pytest.raises(ff.FieldError):
        F9.gen() * F81.gen()


@pytest.mark.parametrize("p,k", SMALL)
def test_nth_roots_equal_brute_force(p, k):
    d = ff.field(p, k)
    elements = list(d.elements())
    for n in range(1, 2 * d.order + 2):
        if n % p == 0:
            with pytest.raises(ff.FieldError, match="n = %d is divisible by p = %d" % (n, p)):
                ff.nth_roots(d.one(), n)
            continue
        powers = {}
        for y in elements:  # canonical order, so each list is sorted
            powers.setdefault(_ref_pow(y, n), []).append(y)
        for x in elements:
            assert ff.nth_roots(x, n) == powers.get(x, [])
    with pytest.raises(ff.FieldError):
        ff.nth_roots(d.one(), 0)
