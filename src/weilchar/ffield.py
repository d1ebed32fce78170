"""Exact arithmetic in a compatible tower of finite fields GF(p^k), p odd.

Elements are coefficient vectors in the polynomial basis of a deterministic
modulus (the smallest monic irreducible in the integer encoding
sum(c_i p^i) + p^k), so encodings are reproducible across runs.  Subfield
embeddings map the subfield generator to the smallest root of its modulus in
the big field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import modp

FIELD_CAP = 6561  # largest allowed p^k; above this we refuse, never degrade


class FieldError(Exception):
    pass


class NotASubfield(FieldError):
    pass


class ZeroElement(FieldError):
    pass


class NotNormOne(FieldError):
    pass


class WrongIndex(FieldError):
    pass


class NotCoprimeToP(FieldError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """num mod den over F_p; den monic, coefficients low degree first."""
    num = [c % p for c in num]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def _poly_powmod(a: list[int], e: int, den: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, den, p)
    while e:
        if e & 1:
            result = _poly_mod(modp.poly_mul(result, base, p), den, p)
        base = _poly_mod(modp.poly_mul(base, base, p), den, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    def norm(f):
        while f and f[-1] % p == 0:
            f = f[:-1]
        return [c % p for c in f]

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bb = [(c * inv) % p for c in b]
        a, b = b, norm(_poly_mod(a, bb, p))
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """f monic of degree k over F_p, via x^(p^d) fixed-point criteria."""
    k = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p**k, f, p)
    diff = [(a - b) % p for a, b in zip(xq + [0] * 2, x + [0] * len(xq))]
    if any(c % p for c in diff[: max(len(xq), 2)]):
        return False
    for q in {d for d in range(2, k + 1) if k % d == 0 and _is_prime(d)}:
        xqd = _poly_powmod(x, p ** (k // q), f, p)
        g = [(a - b) % p for a, b in zip(xqd + [0] * 2, x + [0] * len(xqd))]
        if len(_poly_gcd(f, g, p)) > 1:
            return False
    return True


@dataclass(frozen=True)
class FieldDesc:
    """GF(p^degree) with the deterministic defining modulus (low degree first)."""

    p: int
    degree: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.degree

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.degree)

    def one(self) -> "FieldElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, (n % self.p,) + (0,) * (self.degree - 1))

    def gen(self) -> "FieldElem":
        """The polynomial-basis generator t (root of the modulus)."""
        if self.degree == 1:
            return self.from_int(1)
        return FieldElem(self, (0, 1) + (0,) * (self.degree - 2))

    def element(self, coeffs) -> "FieldElem":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise FieldError("coefficient vector has wrong length")
        return FieldElem(self, coeffs)

    def from_index(self, n: int) -> "FieldElem":
        """Element number n in the canonical order (little-endian base-p digits)."""
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElem(self, tuple(coeffs))

    def elements(self):
        for n in range(self.order):
            yield self.from_index(n)

    def units(self):
        for n in range(1, self.order):
            x = self.from_index(n)
            if not x.is_zero():
                yield x

    def multiplicative_generator(self) -> "FieldElem":
        return _mult_generator(self)


class FieldElem:
    """Element of a FieldDesc, immutable, hashable, exact."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: FieldDesc, coeffs: tuple[int, ...]):
        self.parent = parent
        self.coeffs = coeffs

    def __repr__(self):
        return serialize(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def index(self) -> int:
        """Position in the canonical element order."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.parent.p + c
        return n

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.parent.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.parent == other.parent and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as its residue in [0, p), like the ints it equals
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.parent.p, self.parent.degree, self.coeffs))

    def _check(self, other: "FieldElem"):
        if self.parent != other.parent:
            raise FieldError("mixed parents: %r vs %r" % (self.parent, other.parent))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.parent.from_int(other)
        self._check(other)
        p = self.parent.p
        return FieldElem(self.parent, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.parent.from_int(other)
        self._check(other)
        p = self.parent.p
        return FieldElem(self.parent, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.parent.p
        return FieldElem(self.parent, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.parent.from_int(other)
        self._check(other)
        p = self.parent.p
        out = _poly_mod(modp.poly_mul(self.coeffs, other.coeffs, p), self.parent.modulus, p)
        out += [0] * (self.parent.degree - len(out))
        return FieldElem(self.parent, tuple(out))

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.parent.from_int(other) - self

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.parent.order - 2)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.parent.from_int(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.parent.from_int(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = list(self.parent.modulus)
        out = _poly_powmod(list(self.coeffs), e, f, self.parent.p)
        out += [0] * (self.parent.degree - len(out))
        return FieldElem(self.parent, tuple(out))

    def frobenius(self, j: int = 1) -> "FieldElem":
        """x^(p^j), the j-th power of the arithmetic Frobenius."""
        j %= self.parent.degree
        return self ** (self.parent.p**j)

    def mult_order(self) -> int:
        if self.is_zero():
            raise ZeroElement("order of zero")
        n = self.parent.order - 1
        order = n
        for q in _prime_factors(n):
            while order % q == 0 and self ** (order // q) == 1:
                order //= q
        return order


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def field(p: int, k: int) -> FieldDesc:
    """The canonical GF(p^k) in the tower; cached, deterministic modulus."""
    if not _is_prime(p) or p == 2:
        raise FieldError("p must be an odd prime, got %r" % (p,))
    if k < 1:
        raise FieldError("degree must be positive")
    if p**k > FIELD_CAP:
        raise FieldError("GF(%d^%d) exceeds the size cap %d" % (p, k, FIELD_CAP))
    if k == 1:
        return FieldDesc(p, 1, (0, 1))  # modulus x (never used for reduction)
    for n in range(p**k, 2 * p**k):
        coeffs = []
        m = n
        for _ in range(k + 1):
            coeffs.append(m % p)
            m //= p
        if coeffs[k] != 1:
            continue
        if _is_irreducible(coeffs, p):
            return FieldDesc(p, k, tuple(coeffs))
    raise FieldError("no irreducible polynomial found (unreachable)")


@lru_cache(maxsize=None)
def _mult_generator(desc: FieldDesc) -> FieldElem:
    n = desc.order - 1
    for x in desc.units():
        if x.mult_order() == n:
            return x
    raise FieldError("no multiplicative generator (unreachable)")


def is_subfield(sub: FieldDesc, big: FieldDesc) -> bool:
    return sub.p == big.p and big.degree % sub.degree == 0


@lru_cache(maxsize=None)
def _embedding_root(sub: FieldDesc, big: FieldDesc) -> FieldElem:
    """Smallest root of sub's modulus inside big: the canonical embedding
    sends sub.gen() there."""
    if sub.degree == 1:
        return big.one()
    mod = sub.modulus
    for y in big.elements():
        acc = big.zero()
        ypow = big.one()
        for c in mod:
            if c:
                acc = acc + ypow * c
            ypow = ypow * y
        if acc.is_zero():
            return y
    raise FieldError("no embedding root (unreachable for subfields)")


def embed(x: FieldElem, big: FieldDesc) -> FieldElem:
    """Canonical embedding GF(p^j) -> GF(p^k) for j | k (ring hom fixing F_p)."""
    if x.parent == big:
        return x
    if not is_subfield(x.parent, big):
        raise NotASubfield("%r is not a subfield of %r" % (x.parent, big))
    root = _embedding_root(x.parent, big)
    acc = big.zero()
    rpow = big.one()
    for c in x.coeffs:
        if c:
            acc = acc + rpow * c
        rpow = rpow * root
    return acc


@lru_cache(maxsize=None)
def _embedding_matrix(sub: FieldDesc, big: FieldDesc) -> tuple[tuple[int, ...], ...]:
    """Columns = coefficients of embed(gen^i), an F_p-linear map F_p^j -> F_p^k."""
    root = _embedding_root(sub, big)
    cols = []
    rpow = big.one()
    for _ in range(sub.degree):
        cols.append(rpow.coeffs)
        rpow = rpow * root
    return tuple(zip(*cols))  # rows


def _project(x: FieldElem, sub: FieldDesc) -> FieldElem:
    """Inverse of embed on its image (raises if x is not in the image)."""
    mat = _embedding_matrix(sub, x.parent)
    sol = modp.solve(mat, x.coeffs, sub.p)
    if sol is None:
        raise FieldError("element not in the subfield image")
    return sub.element(tuple(int(c) for c in sol))


def trace_to(x: FieldElem, sub: FieldDesc) -> FieldElem:
    """Relative trace: sum of Galois conjugates of x over sub; lands in sub."""
    if not is_subfield(sub, x.parent):
        raise NotASubfield("%r is not a subfield of %r" % (sub, x.parent))
    d = x.parent.degree // sub.degree
    acc = x.parent.zero()
    conj = x
    for _ in range(d):
        acc = acc + conj
        conj = conj.frobenius(sub.degree)
    return _project(acc, sub)


def norm_to(x: FieldElem, sub: FieldDesc) -> FieldElem:
    """Relative norm: product of Galois conjugates of x over sub."""
    if not is_subfield(sub, x.parent):
        raise NotASubfield("%r is not a subfield of %r" % (sub, x.parent))
    d = x.parent.degree // sub.degree
    acc = x.parent.one()
    conj = x
    for _ in range(d):
        acc = acc * conj
        conj = conj.frobenius(sub.degree)
    return _project(acc, sub)


def _sign(v: FieldElem) -> int:
    if v == 1:
        return 1
    if v == -1:
        return -1
    raise FieldError("quadratic character did not land in +-1 (unreachable)")


def sgn_mult(x: FieldElem, k: FieldDesc | None = None) -> int:
    """The unique nontrivial quadratic character of k^x, as +-1, for x in the
    subfield k of x.parent (default: x.parent); evaluated in x.parent."""
    if k is not None and k != x.parent:
        if not is_subfield(k, x.parent):
            raise NotASubfield("%r is not a subfield of %r" % (k, x.parent))
        if x.frobenius(k.degree) != x:
            raise NotASubfield("%r does not lie in %r" % (x, k))
    if x.is_zero():
        raise ZeroElement("sgn of zero")
    return _sign(x ** (((k or x.parent).order - 1) // 2))


def sgn_norm_one(x: FieldElem, sub: FieldDesc, k: FieldDesc | None = None) -> int:
    """The unique nontrivial quadratic character of the norm-one group k^1
    of a quadratic extension k/sub, as +-1, for x in the subfield k of
    x.parent (default: x.parent); evaluated in x.parent."""
    k = k or x.parent
    if not is_subfield(sub, k) or not is_subfield(k, x.parent) or k.degree != 2 * sub.degree:
        raise WrongIndex("[%r : %r] != 2 inside %r" % (k, sub, x.parent))
    # x^(q+1) = 1 says both that x lies in k and that its norm to sub is 1
    if x ** (sub.order + 1) != 1:
        raise NotNormOne("%r is not norm-one in %r over %r" % (x, k, sub))
    return _sign(x ** ((sub.order + 1) // 2))


def norm_one_group(big: FieldDesc, sub: FieldDesc) -> list[FieldElem]:
    """All of ker(Nr: big^x -> sub^x) for a quadratic extension, in canonical
    order; cyclic of order sub.order + 1."""
    if big.degree != 2 * sub.degree or big.p != sub.p:
        raise WrongIndex("[%r : %r] != 2" % (big, sub))
    out = [x for x in big.units() if x * x.frobenius(sub.degree) == 1]
    assert len(out) == sub.order + 1
    return out


@lru_cache(maxsize=None)
def _power_map(desc: FieldDesc, n: int) -> dict:
    """One exhaustive pass building the multimap y^n -> [y] over the field."""
    table: dict[FieldElem, list[FieldElem]] = {}
    for y in desc.elements():
        table.setdefault(y**n, []).append(y)
    return table


def nth_roots(x: FieldElem, n: int) -> list[FieldElem]:
    """All roots of X^n - x in x.parent (exhaustive search), canonical order."""
    if n < 1:
        raise FieldError("n must be positive")
    if n % x.parent.p == 0:
        raise NotCoprimeToP("n = %d is divisible by p = %d" % (n, x.parent.p))
    return list(_power_map(x.parent, n).get(x, []))


def serialize(x: FieldElem) -> str:
    return "%d^%d:%s" % (x.parent.p, x.parent.degree, ",".join(str(c) for c in x.coeffs))


def deserialize(s: str) -> FieldElem:
    head, _, tail = s.partition(":")
    ps, _, ks = head.partition("^")
    desc = field(int(ps), int(ks) if ks else 1)
    return desc.element([int(c) for c in tail.split(",")])
