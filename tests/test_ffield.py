import pytest
from hypothesis import given, settings, strategies as st

from weilchar import ffield as ff


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


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 2), (7, 2)])
def test_norm_surjective_onto_subfield(p, k):
    big = ff.field(p, k)
    sub = ff.field(p, 1)
    images = {ff.norm_to(x, sub) for x in big.units()}
    assert images == set(sub.units())


def test_sgn_examples():
    assert ff.sgn_mult(F3.one()) == 1
    assert ff.sgn_mult(F3.from_int(2)) == -1
    with pytest.raises(ff.ZeroElement):
        ff.sgn_mult(F3.zero())


def test_sgn_norm_one_examples():
    group = ff.norm_one_group(F9, F3)
    assert len(group) == 4
    for x in group:
        order = x.mult_order()
        want = 1 if order <= 2 else -1
        assert ff.sgn_norm_one(x, F3) == want
    with pytest.raises(ff.WrongIndex):
        ff.sgn_norm_one(ff.embed(F3.one(), F81), F3)
    with pytest.raises(ff.NotNormOne):
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
    with pytest.raises(ff.NotASubfield):
        ff.sgn_mult(outside, sub)
    with pytest.raises(ff.ZeroElement):
        ff.sgn_mult(big.zero(), sub)


@pytest.mark.parametrize("p,j,d", [(3, 2, 4), (3, 2, 6), (5, 2, 4), (3, 1, 6)])
def test_sgn_norm_one_in_proper_subfield(p, j, d):
    # x in k = GF(p^j) of norm one over k^o = GF(p^(j/2)), seen inside GF(p^d)
    k, big = ff.field(p, j), ff.field(p, d)
    if j % 2:
        with pytest.raises(ff.WrongIndex):
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
    with pytest.raises(ff.NotNormOne):
        ff.sgn_norm_one(ff.embed(not_norm_one, big), sub, k)
    with pytest.raises(ff.NotNormOne):
        ff.sgn_norm_one(big.gen(), sub, k)  # not in k at all


def test_nth_roots_examples():
    f5 = ff.field(5, 1)
    assert sorted(r.index() for r in ff.nth_roots(f5.one(), 2)) == [1, 4]
    # 2f-th roots of norm-one elements land in GF(q^{2f}): q=3, f=2
    for x in ff.norm_one_group(F9, F3):
        roots = ff.nth_roots(ff.embed(x, F81), 4)
        assert len(roots) == 4
    # n divisible by p makes X^n - x inseparable; refused
    with pytest.raises(ff.NotCoprimeToP):
        ff.nth_roots(F9.one(), 3)


def test_embedding_is_ring_hom_fixing_prime_field():
    for a in F9.elements():
        for b in list(F9.elements())[:9]:
            assert ff.embed(a * b, F81) == ff.embed(a, F81) * ff.embed(b, F81)
            assert ff.embed(a + b, F81) == ff.embed(a, F81) + ff.embed(b, F81)
    for c in range(3):
        assert ff.embed(F3.from_int(c), F9) == F9.from_int(c)
    with pytest.raises(ff.NotASubfield):
        ff.embed(F9.gen(), ff.field(3, 3))


def test_serialization_round_trip():
    x = F9.gen() + 2
    assert ff.serialize(x) == "3^2:2,1"
    assert ff.deserialize(ff.serialize(x)) == x


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
