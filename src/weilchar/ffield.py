"""Exact arithmetic in a compatible tower of finite fields GF(p^k), p odd.

An element is its canonical index: the integer whose little-endian base-p
digits are its coefficient vector in the polynomial basis of a deterministic
modulus (the smallest monic irreducible in the integer encoding
sum(c_i p^i) + p^k, found by Rabin's test on its companion matrix C:
C^(p^k) = C and det(C^(p^(k/r)) - C) != 0 for every prime r | k), so
encodings are reproducible across runs.

Each field keeps one pair of integer tables, built the first time it is
used: _log[i] = e for the element g^e of index i (-1 at zero) and _exp[e] =
the index of g^e, for g the first element of full multiplicative order in the
canonical order (log/antilog tables).  Multiplication, division,
powers, inverses, Frobenius, negation (times g^((q-1)/2)), multiplicative
orders and n-th roots are lookups in them; sums and differences go digit by
digit, and the coefficient vector is read off the digits.  Both tables come
from table_arrays: g is found by an order test (g^((q-1)/r) != 1 for every
prime r | q - 1, as a power of g's multiplication matrix, a polynomial in
C), and exp by log2(q) doublings with that matrix's repeated squares;
FIELD_CAP bounds it at 6561 entries.

`poly_roots` finds the roots of an F_p polynomial in a field from the exp
table, all elements at once.  A subfield embedding sends the subfield
generator to the smallest root of its modulus in the big field, searched
among the units of the subfield's image only; it is kept
as one pair of index tables (image, preimage), so `embed` and the projection
behind `trace_to` and `norm_to` are lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import modp

FIELD_CAP = 6561  # largest allowed p^k; above this we refuse, never degrade


class FieldError(Exception):
    pass


def _companion(modulus, p: int) -> np.ndarray:
    """The companion matrix of a monic modulus (low degree first): the
    matrix of multiplication by t on F_p[t]/(modulus) in the basis t^i."""
    k = len(modulus) - 1
    comp = np.eye(k, k, -1, dtype=np.int64)
    comp[:, -1] = [-c % p for c in modulus[:k]]
    return comp


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by repeated squaring."""
    acc = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ m % p
        m = m @ m % p
        e >>= 1
    return acc


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for f monic of degree k over F_p, on its companion
    matrix C (F_p[t]/f is F_p[C], t^e mod f is C^e): f is irreducible iff
    C^(p^k) = C and C^(p^(k/r)) - C is invertible, i.e. t^(p^(k/r)) - t is
    prime to f, for every prime r | k."""
    k = len(f) - 1
    comp = _companion(f, p)
    if (_mat_pow(comp, p**k, p) != comp).any():
        return False
    return all(modp.det(_mat_pow(comp, p ** (k // r), p) - comp, p) for r in modp.prime_factors(k))


@dataclass(frozen=True, eq=False)
class FieldDesc:
    """GF(p^degree) with the deterministic defining modulus (low degree first).

    Equal descriptions are equal fields; field() hands out one object per
    field, so the element arithmetic compares parents by identity first.
    The hash is computed once: fields key the scenario caches."""

    p: int
    degree: int
    modulus: tuple[int, ...]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldDesc):
            return NotImplemented
        return (self.p, self.degree, self.modulus) == (other.p, other.degree, other.modulus)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.degree, self.modulus))

    @cached_property
    def order(self) -> int:
        return self.p**self.degree

    @cached_property
    def _log(self) -> tuple[int, ...]:
        """_log[i] = e for the element g^e of index i; -1 at zero."""
        return tuple(table_arrays(self)[1].tolist())

    @cached_property
    def _exp(self) -> tuple[int, ...]:
        """_exp[e] is the index of g^e, for 0 <= e < q - 1."""
        exp = table_arrays(self)[0].astype(np.int64)
        return tuple((exp @ self.p ** np.arange(self.degree, dtype=np.int64)).tolist())

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, n % self.p)

    def gen(self) -> "FieldElem":
        """The polynomial-basis generator t (root of the modulus)."""
        return FieldElem(self, self.p if self.degree > 1 else 1)

    def element(self, coeffs) -> "FieldElem":
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) != self.degree:
            raise FieldError("coefficient vector has wrong length")
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + c
        return FieldElem(self, n)

    def from_index(self, n: int) -> "FieldElem":
        """Element number n in the canonical order (little-endian base-p
        digits), 0 <= n < order."""
        if not 0 <= n < self.order:
            raise FieldError("index %d is outside 0..%d of %r" % (n, self.order - 1, self))
        return FieldElem(self, n)

    def elements(self):
        return (FieldElem(self, n) for n in range(self.order))

    def units(self):
        return (FieldElem(self, n) for n in range(1, self.order))

    def multiplicative_generator(self) -> "FieldElem":
        return FieldElem(self, self._exp[1])


class FieldElem:
    """Element of a FieldDesc, immutable, hashable, exact: its index idx in
    the canonical order, whose base-p digits are its coefficient vector.
    Products, quotients, powers, Frobenius and negation are lookups in the
    parent's (_log, _exp) pair; sums go digit by digit."""

    __slots__ = ("parent", "idx")

    def __init__(self, parent: FieldDesc, idx: int):
        self.parent = parent
        self.idx = idx

    def __repr__(self):
        return serialize(self)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient vector in the polynomial basis (low degree first)."""
        p, n, out = self.parent.p, self.idx, []
        for _ in range(self.parent.degree):
            n, c = divmod(n, p)
            out.append(c)
        return tuple(out)

    def is_zero(self) -> bool:
        return self.idx == 0

    def index(self) -> int:
        """Position in the canonical element order."""
        return self.idx

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.idx == other.idx and (self.parent is other.parent or self.parent == other.parent)
        if isinstance(other, int):
            return self.idx == other % self.parent.p
        return NotImplemented

    def __hash__(self):
        # a constant's index is its residue in [0, p), so it hashes like the
        # ints it equals
        return hash(self.idx)

    def _other(self, other) -> int:
        """The index of other in self.parent; an int is a constant."""
        if isinstance(other, FieldElem):
            if other.parent is not self.parent and other.parent != self.parent:
                raise FieldError("mixed parents: %r vs %r" % (self.parent, other.parent))
            return other.idx
        if isinstance(other, int):
            return other % self.parent.p
        raise TypeError("cannot combine %r with %r" % (self, other))

    def __add__(self, other):
        parent, a, b = self.parent, self.idx, self._other(other)
        p, out, place = parent.p, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return FieldElem(parent, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1  # one lookup: -1 is g^((q-1)/2)

    def __mul__(self, other):
        parent = self.parent
        log = parent._log
        a, b = log[self.idx], log[self._other(other)]
        if a < 0 or b < 0:
            return FieldElem(parent, 0)
        exp = parent._exp
        return FieldElem(parent, exp[(a + b) % len(exp)])

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.parent.from_int(other) - self

    def inverse(self) -> "FieldElem":
        return self**-1

    def __truediv__(self, other):
        parent = self.parent
        log = parent._log
        a, b = log[self.idx], log[self._other(other)]
        if b < 0:
            raise ZeroDivisionError("inverse of zero")
        if a < 0:
            return self
        exp = parent._exp
        return FieldElem(parent, exp[(a - b) % len(exp)])

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self.parent.from_int(other) / self

    def __pow__(self, e: int):
        parent = self.parent
        a = parent._log[self.idx]
        if a >= 0:
            exp = parent._exp
            return FieldElem(parent, exp[a * e % len(exp)])
        if e < 0:
            raise ZeroDivisionError("inverse of zero")
        return parent.one() if e == 0 else self

    def frobenius(self, j: int = 1) -> "FieldElem":
        """x^(p^j), the j-th power of the arithmetic Frobenius."""
        return self ** (self.parent.p ** (j % self.parent.degree))


@lru_cache(maxsize=None)
def field(p: int, k: int) -> FieldDesc:
    """The canonical GF(p^k) in the tower; cached, deterministic modulus."""
    if p > FIELD_CAP:  # before trial division, which a huge p would stall
        raise FieldError("GF(%d^%d) exceeds the size cap %d" % (p, k, FIELD_CAP))
    if not modp.is_prime(p) or p == 2:
        raise FieldError("p must be an odd prime, got %r" % (p,))
    if k < 1:
        raise FieldError("degree must be positive")
    # p^k for p >= 2 is above the cap from this exponent on, so a huge k costs nothing
    if p ** min(k, FIELD_CAP.bit_length()) > FIELD_CAP:
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


def _mult_matrix(desc: FieldDesc, x: tuple[int, ...]) -> np.ndarray:
    """The k x k matrix of multiplication by x in the polynomial basis,
    sum x_i C^i with C the companion matrix of the modulus (multiplication
    by t); needs no table, so table_arrays can find its generator with it
    (symplectic.twist_matrix is the gather everyone else uses)."""
    p, k = desc.p, desc.degree
    comp = _companion(desc.modulus, p)
    out, power = np.zeros((k, k), dtype=np.int64), np.eye(k, dtype=np.int64)
    for c in x:
        out = (out + c * power) % p
        power = comp @ power % p
    return out


@lru_cache(maxsize=None)
def table_arrays(desc: FieldDesc) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of desc as read-only int16 arrays, one pair per field:
    exp[i] (a row of q - 1 rows) is the coefficient vector of g^i, with g
    the first unit in canonical order whose powers reach every unit, and
    log[x.index()] = i for x = g^i (log[0] = -1).  Every entry is below
    FIELD_CAP, so int16 holds it; gathers widen what they take to int64.

    g has full order when g^((q-1)/r) != 1 for every prime r | q - 1; exp
    doubles from [1]: with g^m's multiplication matrix M, the powers
    g^m .. g^(2m-1) are M times g^0 .. g^(m-1), and M squares to g^2m's."""
    p, k, n = desc.p, desc.degree, desc.order - 1
    primes = modp.prime_factors(n)
    for start in range(1, desc.order):
        gmat = _mult_matrix(desc, desc.from_index(start).coeffs)
        if not any((_mat_pow(gmat, n // r, p) == np.eye(k, dtype=np.int64)).all() for r in primes):
            break
    else:
        raise FieldError("no multiplicative generator (unreachable)")
    exp = np.zeros((n, k), dtype=np.int64)
    exp[0, 0] = 1
    m = 1
    while m < n:
        exp[m : 2 * m] = exp[: min(m, n - m)] @ gmat.T % p
        gmat = gmat @ gmat % p
        m *= 2
    log = np.full(desc.order, -1, dtype=np.int64)
    log[exp @ p ** np.arange(k, dtype=np.int64)] = np.arange(n)
    exp, log = exp.astype(np.int16), log.astype(np.int16)
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log


def is_subfield(sub: FieldDesc, big: FieldDesc) -> bool:
    return sub.p == big.p and big.degree % sub.degree == 0


def poly_roots(coeffs, desc: FieldDesc, within: int | None = None) -> list[FieldElem]:
    """The roots in desc of an F_p polynomial (coefficients low degree
    first), each as often as its multiplicity, in canonical order; with
    `within` = j, only the roots in desc's subfield of degree j, whose units
    are the g^l with l a multiple of (p^k - 1) / (p^j - 1).

    f is evaluated at every unit g^l at once, f(g^l) = sum_j c_j g^(jl)
    gathered from the exp table term by term; 0 is a root as often as f has
    low zero coefficients.  The multiplicity of a unit root x is the least
    m with D^m f(x) != 0, D^m f = sum_j binom(j, m) c_j X^(j-m) the m-th
    Hasse derivative (f^(m) / m! without the division, so it also counts
    multiplicities of p or more)."""
    p = desc.p
    cs = [int(c) % p for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        raise FieldError("the zero polynomial vanishes everywhere")
    if within is not None and (within < 1 or desc.degree % within):
        raise FieldError("GF(%d^%d) has no subfield of degree %r" % (p, desc.degree, within))
    exp = table_arrays(desc)[0].astype(np.int64)
    n = len(exp)

    def vanishes(logs, poly):  # whether poly(g^l) = 0, for each l in logs
        acc = np.zeros((len(logs), desc.degree), dtype=np.int64)
        for j, c in enumerate(poly):
            if c:
                acc = (acc + c * exp[j * logs % n]) % p
        return ~acc.any(axis=1)

    logs = np.arange(0, n, n // (p**within - 1) if within else 1)
    logs = logs[vanishes(logs, cs)]
    # row m - 1: whether D^m f vanishes at each root, for m = 1 .. deg - 1
    hasse = [vanishes(logs, [math.comb(j, m) * c % p for j, c in enumerate(cs)][m:]) for m in range(1, len(cs) - 1)]
    mult = 1 + np.cumprod(np.array(hasse, dtype=bool).reshape(len(hasse), len(logs)), axis=0).sum(axis=0)
    index = exp[logs] @ p ** np.arange(desc.degree)
    order = np.argsort(index)
    zeros = next(i for i, c in enumerate(cs) if c)
    return [desc.from_index(i) for i in [0] * zeros + np.repeat(index[order], mult[order]).tolist()]


def _embedding_root(sub: FieldDesc, big: FieldDesc) -> FieldElem:
    """Smallest root of sub's modulus inside big: the canonical embedding
    sends sub.gen() there (1 for the prime field, whose modulus is x).  Not
    cached: its one caller, _embedding, is."""
    if sub.degree == 1:
        return big.one()
    return poly_roots(sub.modulus, big, within=sub.degree)[0]


@lru_cache(maxsize=None)
def _embedding(sub: FieldDesc, big: FieldDesc) -> tuple[np.ndarray, np.ndarray]:
    """The canonical embedding of sub in big as read-only int16 index tables
    (image, preimage): image[y.index()] is the index of embed(y), the sum of
    y's coefficients times the powers of the embedding root, and
    preimage[x.index()] is the index of the y that embeds as x, or -1 when x
    is not in the image."""
    p, (exp, log) = sub.p, table_arrays(big)
    powers = exp[log[_embedding_root(sub, big).index()] * np.arange(sub.degree) % len(exp)].astype(np.int64)
    coeffs = np.arange(sub.order)[:, None] // p ** np.arange(sub.degree) % p
    image = coeffs @ powers % p @ p ** np.arange(big.degree)
    preimage = np.full(big.order, -1, dtype=np.int64)
    preimage[image] = np.arange(sub.order)
    image, preimage = image.astype(np.int16), preimage.astype(np.int16)
    image.flags.writeable = False
    preimage.flags.writeable = False
    return image, preimage


def embed(x: FieldElem, big: FieldDesc) -> FieldElem:
    """Canonical embedding GF(p^j) -> GF(p^k) for j | k (ring hom fixing F_p)."""
    if x.parent == big:
        return x
    if not is_subfield(x.parent, big):
        raise FieldError("%r is not a subfield of %r" % (x.parent, big))
    return big.from_index(int(_embedding(x.parent, big)[0][x.index()]))


def _project(x: FieldElem, sub: FieldDesc) -> FieldElem:
    """Inverse of embed on its image (raises if x is not in the image)."""
    y = int(_embedding(sub, x.parent)[1][x.index()])
    if y < 0:
        raise FieldError("element not in the subfield image")
    return sub.from_index(y)


def trace_to(x: FieldElem, sub: FieldDesc) -> FieldElem:
    """Relative trace: sum of Galois conjugates of x over sub; lands in sub."""
    if not is_subfield(sub, x.parent):
        raise FieldError("%r is not a subfield of %r" % (sub, x.parent))
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
        raise FieldError("%r is not a subfield of %r" % (sub, x.parent))
    return _project(x ** ((x.parent.order - 1) // (sub.order - 1)), sub)


def twisted_fixed_dim(eta: FieldElem, j: int) -> int:
    """The F_p-dimension of {x in k : eta x^(p^j) = x}, k = eta.parent, eta a
    unit.  K0, the fixed field of x -> x^(p^j), has degree gcd(j, [k : F_p]);
    by Hilbert's Theorem 90 the solutions are a K0-line when
    N_{k/K0}(eta) = 1 and zero otherwise."""
    k = eta.parent
    d = math.gcd(j, k.degree)
    # N_{k/K0}(eta) as an element of k, as in norm_to
    return d if eta ** ((k.order - 1) // (k.p**d - 1)) == 1 else 0


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
            raise FieldError("%r is not a subfield of %r" % (k, x.parent))
        if x.frobenius(k.degree) != x:
            raise FieldError("%r does not lie in %r" % (x, k))
    if x.is_zero():
        raise FieldError("sgn of zero")
    return _sign(x ** (((k or x.parent).order - 1) // 2))


def sgn_norm_one(x: FieldElem, sub: FieldDesc, k: FieldDesc | None = None) -> int:
    """The unique nontrivial quadratic character of the norm-one group k^1
    of a quadratic extension k/sub, as +-1, for x in the subfield k of
    x.parent (default: x.parent); evaluated in x.parent."""
    k = k or x.parent
    if not is_subfield(sub, k) or not is_subfield(k, x.parent) or k.degree != 2 * sub.degree:
        raise FieldError("[%r : %r] != 2 inside %r" % (k, sub, x.parent))
    # x^(q+1) = 1 says both that x lies in k and that its norm to sub is 1
    if x ** (sub.order + 1) != 1:
        raise FieldError("%r is not norm-one in %r over %r" % (x, k, sub))
    return _sign(x ** ((sub.order + 1) // 2))


def units_of_norm(big: FieldDesc, sub: FieldDesc, target: FieldElem) -> list[FieldElem]:
    """The fibre of Nr: big^x -> sub^x over target, an element of big, in
    canonical order: the norm is x^n with n = (|big| - 1) / (|sub| - 1), so
    the fibre is the n-th roots of target, empty unless target is a unit
    fixed by sub's Frobenius."""
    if not is_subfield(sub, big) or target.parent != big:
        raise FieldError("no norm from %r to %r over %r" % (big, sub, target))
    return [] if target.is_zero() else nth_roots(target, (big.order - 1) // (sub.order - 1))


def norm_one_group(big: FieldDesc, sub: FieldDesc) -> list[FieldElem]:
    """All of ker(Nr: big^x -> sub^x) for a quadratic extension, in canonical
    order; cyclic of order sub.order + 1."""
    if big.degree != 2 * sub.degree or big.p != sub.p:
        raise FieldError("[%r : %r] != 2" % (big, sub))
    out = units_of_norm(big, sub, big.one())
    if len(out) != sub.order + 1:
        raise FieldError("%d units of norm one in %r over %r, expected %d" % (len(out), big, sub, sub.order + 1))
    return out


def nth_roots(x: FieldElem, n: int) -> list[FieldElem]:
    """All roots of X^n - x in x.parent, canonical order: the g^e with
    n e = log x (mod q - 1)."""
    if n < 1:
        raise FieldError("n must be positive")
    if n % x.parent.p == 0:
        raise FieldError("n = %d is divisible by p = %d" % (n, x.parent.p))
    desc = x.parent
    exp, a = desc._exp, desc._log[x.idx]
    if a < 0:
        return [x]
    d = math.gcd(n, len(exp))
    if a % d:
        return []
    step = len(exp) // d
    e0 = (a // d) * pow(n // d, -1, step) % step
    return [FieldElem(desc, i) for i in sorted(exp[e0 + j * step] for j in range(d))]


def serialize(x: FieldElem) -> str:
    return "%d^%d:%s" % (x.parent.p, x.parent.degree, ",".join(str(c) for c in x.coeffs))


def deserialize(s: str) -> FieldElem:
    head, _, tail = s.partition(":")
    ps, _, ks = head.partition("^")
    desc = field(int(ps), int(ks) if ks else 1)
    digits = [int(c) for c in tail.split(",")]
    if not all(0 <= c < desc.p for c in digits):  # element() would reduce them mod p
        raise FieldError("%r has a digit outside 0..%d" % (s, desc.p - 1))
    return desc.element(digits)
