"""Polynomial references for the field tests: plain coefficient-list code,
independent of the tables and index gathers that weilchar.ffield computes
with.  Polynomials over F_p are coefficient lists, low degree first."""

from weilchar import ffield as ff, modp


def poly_mod(num, den, p):
    """num mod den over F_p; den monic."""
    num = [c % p for c in num]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def poly_powmod(a, e, den, p):
    result = [1]
    base = poly_mod(a, den, p)
    while e:
        if e & 1:
            result = poly_mod(modp.poly_mul(result, base, p), den, p)
        base = poly_mod(modp.poly_mul(base, base, p), den, p)
        e >>= 1
    return result


def monic_polys(k, p):
    """Every monic polynomial of degree k over F_p."""
    for n in range(p**k):
        yield [n // p**i % p for i in range(k)] + [1]


def is_irreducible_by_trial_division(f, p):
    """Whether no monic polynomial of degree 1 .. deg f / 2 divides f."""
    k = len(f) - 1
    return not any(
        not any(poly_mod(f, d, p)) for j in range(1, k // 2 + 1) for d in monic_polys(j, p)
    )


def embedding_matrix(sub, big):
    """Columns = coefficients of root^i, root the image of sub.gen(): the
    embedding as an F_p-linear map F_p^j -> F_p^k."""
    root = ff._embedding_root(sub, big)
    cols = []
    rpow = big.one()
    for _ in range(sub.degree):
        cols.append(rpow.coeffs)
        rpow = rpow * root
    return tuple(zip(*cols))  # rows


def root_search(cp, desc):
    """Roots with multiplicity of an F_p-coefficient polynomial in desc, one
    element at a time: Horner evaluation, and synthetic division by X - x
    for as long as x stays a root."""
    current = [desc.from_int(c) for c in cp]
    roots = []
    for x in desc.elements():
        while len(current) > 1:
            acc = desc.zero()
            for c in reversed(current):
                acc = acc * x + c
            if not acc.is_zero():
                break
            current = _synth_div(current, x, desc)
            roots.append(x)
        if len(current) <= 1:
            break
    return sorted(roots, key=lambda r: r.index())


def _synth_div(coeffs, x, desc):
    """coeffs / (X - x), assuming exact division."""
    n = len(coeffs) - 1
    out = [desc.zero()] * n
    carry = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * x
    assert carry.is_zero()
    return out


def charpoly_int(m):
    """Characteristic polynomial det(X*I - m) over Z, low degree first, monic:
    Faddeev-LeVerrier on Python ints, M_k = m M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(m M_k) / k, the division exact for an integer matrix."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    coeffs = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][l] * mk[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
              for i in range(n)]
        tr = sum(a[i][l] * mk[l][i] for i in range(n) for l in range(n))
        assert tr % k == 0
        coeffs[n - k] = -tr // k
    return coeffs
