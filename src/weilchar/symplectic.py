"""Finite symplectic spaces over F_p, the Heisenberg group, Sp elements,
maximal tori with their eigenvalue orbits (TorusPiece), and
eigenvalue/conjugacy utilities.

Vectors are int64 arrays over F_p (a basis is one array, a vector per
row), matrices numpy int arrays acting on column vectors; Gram matrices are
kept explicit (block constructions of the sign machinery produce
non-standard forms that must not be normalized away).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ffield, modp
from .ffield import FieldDesc, FieldElem

# largest |Sp(V)| exhaustive modes will enumerate: |Sp_4(F_3)| = 51,840, 6.6 MB
# of matrices; the next group past it is Sp_2(F_41), with 68,880 elements
SP_ENUM_CAP = 51_840
ORDER_CHUNK_ENTRIES = 2**16  # matrix entries per slice of the stack orders powers and closure multiplies
HEIS_ENUM_CAP = 125  # largest |H(V)| heis_group tabulates: n = 1 up to p = 5


class SymplecticError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class SympSpace:
    """Symplectic F_p-space with explicit Gram matrix, one read-only int64
    array reduced mod p, and optional ordered orthogonal block structure
    (blocks = index tuples into the coordinates).  Eq and hash read (p, the
    Gram matrix's bytes, blocks); eq answers identity first, and the hash
    and the Gram's inverse (on first use by `inverses`) are computed once:
    spaces key the block, frame and group caches."""

    p: int
    gram: np.ndarray
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=np.int64) % self.p
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)
        if g.shape[0] != g.shape[1] or g.shape[0] % 2:
            raise SymplecticError("gram must be square of even size")
        if ((g + g.T) % self.p).any():
            raise SymplecticError("gram is not antisymmetric mod p")
        if modp.det(g, self.p) == 0:
            raise SymplecticError("gram is degenerate")
        if self.blocks is not None:
            flat = sorted(i for b in self.blocks for i in b)
            if flat != list(range(self.dim)):
                raise SymplecticError("blocks must partition the coordinates")
            for b1, b2 in itertools.combinations(self.blocks, 2):
                if g[np.ix_(b1, b2)].any():
                    raise SymplecticError("blocks are not gram-orthogonal")

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, SympSpace) and (self.p, self.gram.tobytes(), self.blocks) == (other.p, other.gram.tobytes(), other.blocks)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.gram.tobytes(), self.blocks))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _gram_inverse(self) -> np.ndarray:
        """G^-1 mod p, inverted once per space; read-only."""
        out = modp.mat_inv(self.gram, self.p)
        out.flags.writeable = False
        return out


symp_space = SympSpace  # symp_space(p, gram, blocks=None): the Gram matrix is reduced mod p


def split_space(p: int, x) -> SympSpace:
    """Two copies of F_p^n with Gram [[0, X], [-X^T, 0]]: both copies are
    Lagrangian, paired by X."""
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    gram = np.zeros((2 * n, 2 * n), dtype=np.int64)
    gram[:n, n:] = x
    gram[n:, :n] = -x.T
    return symp_space(p, gram)


def direct_sum(spaces: list[SympSpace]) -> SympSpace:
    if not spaces:
        raise SymplecticError("a direct sum needs at least one space")
    p = spaces[0].p
    if any(s.p != p for s in spaces):
        raise SymplecticError("mixed characteristics")
    dims = [s.dim for s in spaces]
    total = sum(dims)
    g = np.zeros((total, total), dtype=np.int64)
    blocks = []
    off = 0
    for s in spaces:
        g[off : off + s.dim, off : off + s.dim] = s.gram
        blocks.append(tuple(range(off, off + s.dim)))
        off += s.dim
    return symp_space(p, g, tuple(blocks))


def heis_law(space: SympSpace, v1, z1, v2, z2) -> tuple[np.ndarray, np.ndarray]:
    """(v1+v2, z1+z2+<v1,v2>/2) on broadcastable integer arrays, the vectors
    along the last axis of v1 and v2: the one copy of the Heisenberg law of
    H(V) = V x F_p."""
    v1, v2 = np.asarray(v1, dtype=np.int64), np.asarray(v2, dtype=np.int64)
    return (v1 + v2) % space.p, (np.asarray(z1) + np.asarray(z2) + _cocycle(space, v1, v2)) % space.p


def _cocycle(space: SympSpace, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """<v1,v2>/2, unreduced: the term of heis_law that makes H(V) non-abelian."""
    return pow(2, space.p - 2, space.p) * (v1 @ space.gram * v2).sum(axis=-1)


def heis_decode(space: SympSpace, positions) -> tuple[np.ndarray, np.ndarray]:
    """(vs, zs) of the elements of H(V) at the given positions, the vectors
    along a new last axis: position i is the base-p code of (v, z), most
    significant digit first."""
    p = space.p
    digits = np.asarray(positions, dtype=np.int64)[..., None] // _heis_weights(space) % p
    return digits[..., :-1], digits[..., -1]


def _heis_weights(space: SympSpace) -> np.ndarray:
    """Place values of the digits of a position: (v, z) has position
    (v, z) @ weights."""
    return space.p ** np.arange(space.dim, -1, -1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class HeisGroup:
    """H(V) as an indexed table: (vs[i], zs[i]) is the element at position
    i, and mul[i, j] the position of the product of elements i and j."""

    vs: np.ndarray
    zs: np.ndarray
    mul: np.ndarray


@lru_cache(maxsize=None)
def heis_group(space: SympSpace) -> HeisGroup:
    """The product table of H(V), built from heis_law over all pairs at once;
    refuses above HEIS_ENUM_CAP elements.  Positions are heis_decode's."""
    p, dim = space.p, space.dim
    size = p ** (dim + 1)
    if size > HEIS_ENUM_CAP:
        raise SymplecticError("|H| = %d exceeds the enumeration cap %d" % (size, HEIS_ENUM_CAP))
    vs, zs = heis_decode(space, np.arange(size))
    v, z = heis_law(space, vs[:, None], zs[:, None], vs[None], zs[None])
    mul = (np.concatenate([v, z[..., None]], axis=-1) @ _heis_weights(space)).astype(np.int16)
    for arr in (vs, zs, mul):
        arr.flags.writeable = False  # shared through the cache
    return HeisGroup(vs, zs, mul)


@dataclass(frozen=True, eq=False)
class SpElem:
    """Form-preserving matrix (check_form), one read-only int64 array reduced
    mod p; eq and hash read (space, the matrix's bytes)."""

    space: SympSpace
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.int64) % self.space.p
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        check_form(self.space, m)

    def __eq__(self, other):
        return isinstance(other, SpElem) and self.space == other.space and self.mat.tobytes() == other.mat.tobytes()

    def __hash__(self):
        return hash((self.space, self.mat.tobytes()))

    def __mul__(self, other: "SpElem") -> "SpElem":
        if self.space != other.space:
            raise SymplecticError("Sp elements from different spaces")
        return sp_elem(self.space, self.mat @ other.mat)

    def inverse(self) -> "SpElem":
        return sp_elem(self.space, inverses(self.space, self.mat))

    def order(self) -> int:
        return self._order

    def is_semisimple(self) -> bool:
        # order coprime to p suffices for the groups considered here
        return self.order() % self.space.p != 0

    def fixed_space_dim(self) -> int:
        return self._fixed_space_dim

    # computed once per element: a frozen element's matrix never changes
    @cached_property
    def _order(self) -> int:
        return int(orders(self.space, self.mat))

    @cached_property
    def _fixed_space_dim(self) -> int:
        return self.space.dim - modp.rank(self.mat - np.eye(self.space.dim, dtype=np.int64), self.space.p)


def check_form(space: SympSpace, mats: np.ndarray) -> None:
    """The package's one form test: refuse a matrix, or a stack along the
    leading axes, unless every one has m^T G m = G mod p.  It reads no
    entry range (an SpElem reduces mod p; WeilModel._matrices checks)."""
    g = space.gram
    if np.count_nonzero((mats.swapaxes(-1, -2) @ g @ mats - g) % space.p):
        raise SymplecticError("matrix does not preserve the form")


sp_elem = SpElem  # sp_elem(space, mat): the matrix is reduced mod p and checked


def sp_identity(space: SympSpace) -> SpElem:
    return sp_elem(space, np.eye(space.dim, dtype=np.int64))


def block_diagonal(space: SympSpace, parts) -> SpElem:
    """The element of a direct sum acting by the matrix parts[i] on block i."""
    mat = np.zeros((space.dim, space.dim), dtype=np.int64)
    for idx, part in zip(space.blocks, parts):
        mat[np.ix_(idx, idx)] = part
    return sp_elem(space, mat)


# ---------------------------------------------------------------------------
# Hyperbolic bases / polarizations


def hyperbolic_basis(space: SympSpace) -> np.ndarray:
    """Deterministic symplectic Gram-Schmidt: the basis matrix B whose columns
    e_1..e_n, f_1..f_n satisfy <e_i, f_j> = delta_ij with both spans totally
    isotropic, so B^T G B is the Gram matrix of standard_polarized_space.

    Each row of `rows` is a unit vector projected off the pairs found so far.
    A pair takes e = the first nonzero row and f = the first row r with
    <e, r> != 0, scaled by <e, r>^-1; every row v then becomes
    v - <v, f> e + <v, e> f, which zeroes the rows e and f came from."""
    p = space.p
    gram = space.gram
    rows = np.eye(space.dim, dtype=np.int64)
    es, fs = [], []
    for _ in range(space.dim // 2):
        e = rows[np.flatnonzero(rows.any(axis=1))[0]]
        pair = rows @ (gram.T @ e) % p  # <e, r> for every row r
        j = np.flatnonzero(pair)[0]
        f = rows[j] * pow(int(pair[j]), p - 2, p) % p
        rows = (rows - np.outer(rows @ gram @ f, e) + np.outer(rows @ gram @ e, f)) % p
        es.append(e)
        fs.append(f)
    return np.array(es + fs, dtype=np.int64).T


def standard_polarized_space(p: int, n: int) -> SympSpace:
    """The (e, f)-coordinate space with gram [[0, I],[-I, 0]]."""
    return split_space(p, np.eye(n, dtype=np.int64))


def frame_inverse(space: SympSpace, basis: np.ndarray) -> np.ndarray:
    """B^-1 = J^T B^T G mod p for a basis matrix B with B^T G B = J, the
    Gram matrix [[0, I], [-I, 0]] of standard_polarized_space: the inverse
    read off the form, as inverses reads an element's.  J^T M is M with its
    row halves swapped and the upper one negated."""
    n = space.dim // 2
    rows = basis.T @ space.gram
    return np.vstack([-rows[n:], rows[:n]]) % space.p


def check_polarization(space: SympSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Refuse rows xs, ys (reduced mod p) that are not two complementary
    Lagrangians of space; returns the Gram matrix X G Y^T of their pairings,
    invertible since two Lagrangians that span V pair perfectly."""
    p, n, gram = space.p, space.dim // 2, space.gram
    if xs.shape != (n, 2 * n) or ys.shape != (n, 2 * n):
        raise SymplecticError("need n vectors on each side")
    if modp.rank(np.vstack([xs, ys]), p) != 2 * n:
        raise SymplecticError("polarization vectors do not span")
    if (xs @ gram @ xs.T % p).any():
        raise SymplecticError("X side not isotropic")
    if (ys @ gram @ ys.T % p).any():
        raise SymplecticError("Y side not isotropic")
    return xs @ gram @ ys.T % p


# ---------------------------------------------------------------------------
# Field-element matrices (the twists y -> x y^(p^j) as F_p-linear maps)


@lru_cache(maxsize=None)
def _twisted_logs(desc: FieldDesc, j: int) -> np.ndarray:
    """p^j log t^i mod q - 1 for the polynomial basis t^i, i < degree, of
    desc: the logs of the basis images under y -> y^(p^j); read-only."""
    exp, log = ffield.table_arrays(desc)
    out = np.arange(desc.degree) * int(log[desc.gen().index()]) * desc.p**j % len(exp)
    out.flags.writeable = False
    return out


def twist_matrix(x: FieldElem, j: int = 0) -> np.ndarray:
    """Matrix of y -> x y^(p^j) on x.parent in the polynomial basis, the
    caller's own int64 array: column i is x (t^i)^(p^j) = g^(log x + p^j log
    t^i), one gather from the exp table (its logs wrap mod q - 1); zero for
    x = 0.  j = 0 is multiplication by x, x = 1 the Frobenius power; j is
    read mod the degree."""
    desc = x.parent
    exp, log = ffield.table_arrays(desc)
    a = int(log[x.index()])
    if a < 0:
        return np.zeros((desc.degree, desc.degree), dtype=np.int64)
    return exp.take(a + _twisted_logs(desc, j % desc.degree), axis=0, mode="wrap").T.astype(np.int64)


# ---------------------------------------------------------------------------
# Maximal tori (Lemma: norm-one and split factors)


@dataclass(frozen=True)
class TorusPiece:
    """One Sigma-orbit of eigenvalues, the Galois conjugates over F_p of the
    root x of k_i = GF(p^degree).  Symmetric: x is norm-one over the
    half-degree field and its conjugates are closed under inversion, one
    Gamma-orbit.  Asymmetric: the conjugates of x and of x^-1, two."""

    degree: int  # absolute degree of k_i over F_p
    x: FieldElem  # the root, in k_i or a field containing it
    symmetric: bool


@dataclass(frozen=True)
class TorusElement:
    """An element of a Torus: its pieces, one per factor rooted at the
    factor's coordinate, and its matrix."""

    pieces: tuple[TorusPiece, ...]
    elem: SpElem


def anti_invariant_units(k: FieldDesc, j: int) -> list[FieldElem]:
    """The units C of k with C^(p^j) = -C, in canonical order: the roots of
    X^(p^j - 1) = -1, (p^j - 1) log C = (q - 1)/2 mod q - 1, read off the
    log table by ffield.nth_roots; none where p^j acts as the identity."""
    n = k.p ** (j % k.degree) - 1
    return ffield.nth_roots(-k.one(), n) if n else []


def anti_invariant_unit(big: FieldDesc, subdeg: int) -> FieldElem:
    """The canonical anti-invariant unit: the first of anti_invariant_units."""
    return anti_invariant_units(big, subdeg)[0]


def trace_form_gram(k: FieldDesc, c: FieldElem, tau_exp: int | None = None) -> np.ndarray:
    """Gram of (x, y) -> Tr(C x tau(y)) on k as an F_p-space, in the power
    basis t^i of k.gen(); tau = Frobenius^tau_exp, or the identity if None.

    Entry (i, j) is Tr(t^i y) for y = C tau(t^j), column j of
    twist_matrix(C, tau_exp); Tr is F_p-linear, so G = H twist_matrix(C,
    tau_exp) with the trace Hankel H of k."""
    return trace_hankel(k) @ twist_matrix(c, tau_exp or 0) % k.p


@lru_cache(maxsize=None)
def trace_hankel(k: FieldDesc) -> np.ndarray:
    """H[i, j] = Tr(t^(i+j)) mod p, read as the trace of the matrix of
    multiplication by t^(i+j); cached and read-only."""
    d, t = k.degree, k.gen()
    traces = [int(np.trace(twist_matrix(t**n))) % k.p for n in range(2 * d - 1)]
    out = np.array([traces[i : i + d] for i in range(d)], dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def field_block(k: FieldDesc, c: FieldElem, tau_exp: int | None = None) -> SympSpace:
    """The symplectic space of one field block: k with Gram Tr(C x tau(y))
    (symmetric, tau = Frobenius^tau_exp with tau(C) = -C), or for tau_exp
    None k + k with Gram Tr(C (x+ y- - x- y+)) (asymmetric).  Cached: equal
    blocks share one space, validated once."""
    gram = trace_form_gram(k, c, tau_exp)
    return split_space(k.p, gram) if tau_exp is None else symp_space(k.p, gram)


def plus_minus(plus: np.ndarray, minus: np.ndarray | None = None, sign: int | None = 1) -> np.ndarray:
    """The matrix of a field_block map: `plus` alone on a symmetric block
    (minus None); on k + k, diag(plus, minus), or [[0, plus], [minus, 0]]
    when the map swaps the two lines (sign -1)."""
    if minus is None:
        return plus
    d = len(plus)
    out = np.zeros((2 * d, 2 * d), dtype=np.result_type(plus, minus))
    if sign == 1:
        out[:d, :d], out[d:, d:] = plus, minus
    else:
        out[:d, d:], out[d:, :d] = plus, minus
    return out


def toral_matrix(x: FieldElem, symmetric: bool) -> np.ndarray:
    """The matrix of the toral element x on a field_block: multiplication by
    x on a symmetric block; on an asymmetric one, by x on the plus line and
    by x^-1 on the minus line."""
    return plus_minus(twist_matrix(x), None if symmetric else twist_matrix(x.inverse()))


@dataclass(frozen=True)
class Torus:
    """A maximal torus of Sp(V): p and its factors, each a pair (d, norm_one).

    A norm-one factor is the norm-one group of k = GF(p^2d) over GF(p^d),
    p^d + 1 elements, acting by multiplication on the symmetric block Tr(C x
    tau(y)) of k with tau(C) = -C, which norm-one multiplication preserves; a
    split factor is the units of k = GF(p^d), p^d - 1 elements, acting as
    (x, y) -> (zx, z^-1 y) on the asymmetric block k + k.  The space, their
    direct sum, is built on first use; the embedding is canonical, and
    conjugate_in_sp moves elements elsewhere."""

    p: int
    factors: tuple[tuple[int, bool], ...]

    @property
    def order(self) -> int:
        """|T|, read off the factors: no field block is built."""
        return math.prod(self.p**d + (1 if norm_one else -1) for d, norm_one in self.factors)

    def _fields(self) -> list[FieldDesc]:
        """The field k of each factor: GF(p^2d) if norm-one, else GF(p^d)."""
        return [ffield.field(self.p, 2 * d if norm_one else d) for d, norm_one in self.factors]

    @cached_property
    def space(self) -> SympSpace:
        return direct_sum([field_block(k, anti_invariant_unit(k, d), d) if norm_one else field_block(k, k.one())
                           for k, (d, norm_one) in zip(self._fields(), self.factors)])

    def element(self, coords) -> TorusElement:
        """The element with one coordinate per factor, a norm-one unit of k
        on a norm-one factor and a unit of k on a split one; its piece on
        each factor is symmetric of degree 2d or asymmetric of degree d."""
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise SymplecticError("need one coordinate per factor: %d, got %d" % (len(self.factors), len(coords)))
        pieces = []
        for i, (x, k, (d, norm_one)) in enumerate(zip(coords, self._fields(), self.factors)):
            if norm_one and (x.parent != k or x * x.frobenius(d) != 1):
                raise SymplecticError("coordinate %d is not norm-one in %r" % (i, k))
            if not norm_one and (x.parent != k or x.is_zero()):
                raise SymplecticError("coordinate %d is not a unit of %r" % (i, k))
            pieces.append(TorusPiece(k.degree, x, norm_one))
        return TorusElement(tuple(pieces), block_diagonal(self.space, [toral_matrix(pc.x, pc.symmetric) for pc in pieces]))

    def elements(self):
        """Every element, in the product order of the factors' pools: a
        norm-one factor's norm_one_group, a split factor's units."""
        pools = [ffield.norm_one_group(k, ffield.field(self.p, d)) if norm_one else list(k.units())
                 for k, (d, norm_one) in zip(self._fields(), self.factors)]
        for combo in itertools.product(*pools):
            yield self.element(combo)


def weight_charpoly_check(t: TorusElement) -> bool:
    """Char poly of the matrix equals the product over the pieces of the
    char polys of multiplication by x, and by x^-1 on an asymmetric piece:
    mult-by-x on k_i has char poly prod_{j < deg} (X - x^{p^j}), exactly the
    Gamma-orbit of x with multiplicity."""
    p = t.elem.space.p
    acc = [1]
    for piece in t.pieces:
        for val in (piece.x,) if piece.symmetric else (piece.x, piece.x.inverse()):
            acc = modp.poly_mul(acc, modp.charpoly(twist_matrix(val), p), p)
    return acc == modp.charpoly(t.elem.mat, p)


# ---------------------------------------------------------------------------
# Eigenvalues over the closure and conjugacy


def eigen_multiset(g: SpElem) -> list[FieldElem]:
    """Eigenvalues (with multiplicity) in the smallest splitting field of the
    characteristic polynomial, found by ffield.poly_roots."""
    p = g.space.p
    cp = modp.charpoly(g.mat, p)
    deg = len(cp) - 1
    for d in range(1, 13):
        try:
            desc = ffield.field(p, d)
        except ffield.FieldError:
            break
        roots = ffield.poly_roots(cp, desc)
        if len(roots) == deg:
            return roots
    raise SymplecticError("splitting field exceeds the size cap")


def eigen_multiset_key(vals: list[FieldElem]) -> tuple:
    return tuple(sorted(v.index() for v in vals))


def _codes(space: SympSpace, mats: np.ndarray) -> np.ndarray:
    """The base-p codes of a stack of matrices reduced mod p: shape mats.shape[:-2]."""
    return mats.reshape(mats.shape[:-2] + (space.dim**2,)) @ space.p ** np.arange(space.dim**2, dtype=np.int64)


def orders(space: SympSpace, mats) -> np.ndarray:
    """The order of each element of a stack, shape mats.shape[:-2], from
    repeated stack products, taken in place on slices of at most
    ORDER_CHUNK_ENTRIES matrix entries; raises past 4 SP_ENUM_CAP."""
    p, d = space.p, space.dim
    flat = np.asarray(mats, dtype=np.int64).reshape(-1, d, d)
    out, ident, step = np.zeros(len(flat), dtype=np.int64), np.eye(d, dtype=np.int64), max(1, ORDER_CHUNK_ENTRIES // d**2)
    for lo in range(0, len(flat), step):
        base, part = flat[lo : lo + step] % p, out[lo : lo + step]
        acc, prod = base.copy(), np.empty_like(base)
        for k in range(1, SP_ENUM_CAP * 4):
            part[(part == 0) & (acc == ident).all(axis=(-2, -1))] = k
            if part.all():
                break
            np.matmul(acc, base, out=prod)
            np.remainder(prod, p, out=acc)
        else:
            raise SymplecticError("order exceeds bound")
    return out.reshape(np.shape(mats)[:-2])


def inverses(space: SympSpace, mats: np.ndarray) -> np.ndarray:
    """The inverse G^-1 m^T G of each element m of a stack, G the Gram matrix."""
    return space._gram_inverse @ np.swapaxes(mats, -1, -2) @ space.gram % space.p


@lru_cache(maxsize=None)
def sp_elements(space: SympSpace) -> tuple[SpElem, ...]:
    """All of Sp(V)(F_p) as SpElems, in sp_group's breadth-first order;
    refuses above the cap.  The package reads groups as sp_group's arrays
    and builds none of these."""
    grp = sp_group(space)
    return tuple(grp.elem(i) for i in range(len(grp.mats)))


@dataclass(frozen=True, eq=False)
class SpGroup:
    """A subgroup of Sp(V) as arrays: gens is the generator stack it was
    closed from, the element at position i has the matrix mats[i] and the
    order orders[i], position 0 is the identity; codes are the sorted base-p
    codes of mats and at[k] the position of the element with code codes[k].
    elem(i) builds one element as an SpElem."""

    space: SympSpace
    gens: np.ndarray
    mats: np.ndarray
    orders: np.ndarray
    codes: np.ndarray
    at: np.ndarray

    def elem(self, i) -> SpElem:
        """The element at position i, a fresh SpElem on every call."""
        return sp_elem(self.space, self.mats[i])

    def positions(self, mats) -> np.ndarray:
        """The positions of a stack of matrices, shape mats.shape[:-2], by one
        search on the sorted codes; raises on a non-element."""
        codes = _codes(self.space, np.asarray(mats, dtype=np.int64) % self.space.p)
        k = np.searchsorted(self.codes, codes).clip(max=len(self.codes) - 1)
        if (self.codes[k] != codes).any():
            raise SymplecticError("matrix is not an element of the group")
        return self.at[k]


def closure(space: SympSpace, gens, order: int) -> SpGroup:
    """The subgroup of Sp(V) generated by a stack of matrices, of the stated
    order, as one read-only element array; gens is reduced mod p and checked
    once (check_form).  Breadth-first from the identity: each frontier times
    every generator, in slices of at most ORDER_CHUNK_ENTRIES product entries
    written into one preallocated stack, a product with an unseen base-p code
    kept at its first occurrence.  Refuses an order above the cap before it
    starts, and a walk that passes the stated order or ends short of it."""
    if order > SP_ENUM_CAP:
        raise SymplecticError("a group of order %d exceeds the enumeration cap %d" % (order, SP_ENUM_CAP))
    p, d = space.p, space.dim
    gens = np.asarray(gens, dtype=np.int64) % p
    check_form(space, gens)
    mats = np.empty((order, d, d), dtype=np.int64)
    mats[0] = np.eye(d, dtype=np.int64)
    seen, lo, hi = set(_codes(space, mats[:1]).tolist()), 0, 1
    step = max(1, ORDER_CHUNK_ENTRIES // gens.size)  # frontier elements per slice
    while lo < hi:  # the frontier is mats[lo:hi]; the next level is written after it
        end = hi
        for start in range(lo, hi, step):
            prods = (mats[start : min(start + step, hi), None] @ gens % p).reshape(-1, d, d)
            # each unseen code once, at its first product (set.add returns None)
            new = [i for i, c in enumerate(_codes(space, prods).tolist()) if c not in seen and not seen.add(c)]
            if end + len(new) > order:
                raise SymplecticError("the generators close to more than the stated order %d" % order)
            mats[end : end + len(new)] = prods[new]
            end += len(new)
        lo, hi = hi, end
    if hi < order:
        raise SymplecticError("the generators close to %d elements, short of the stated order %d" % (hi, order))
    del seen  # not held while orders runs
    codes = _codes(space, mats)
    at = np.argsort(codes)
    grp = SpGroup(space, gens, mats, orders(space, mats), codes[at], at)
    for arr in (grp.gens, grp.mats, grp.orders, grp.codes, grp.at):
        arr.flags.writeable = False  # shared through sp_group's cache
    return grp


@lru_cache(maxsize=None)
def sp_group(space: SympSpace) -> SpGroup:
    """Sp(V)(F_p), the closure of sp_generators; refuses above the cap."""
    size = _sp_order(space.p, space.dim // 2)
    if size > SP_ENUM_CAP:
        raise SymplecticError("|Sp| = %d exceeds the enumeration cap %d" % (size, SP_ENUM_CAP))
    return closure(space, sp_generators(space), size)


def _sp_order(p: int, n: int) -> int:
    return p ** (n * n) * math.prod(p ** (2 * i) - 1 for i in range(1, n + 1))


def sp_generators(space: SympSpace) -> np.ndarray:
    """Generators of Sp(V) as one int64 stack mod p, checked to preserve the
    form: in standard coordinates the Weyl rotation, the lower unipotents
    n_bar(B) for elementary symmetric B and one Levi element, transported
    back by hyperbolic_basis(space) and its frame_inverse."""
    p, n = space.p, space.dim // 2
    basis = hyperbolic_basis(space)
    weyl = standard_polarized_space(p, n).gram  # J, the Weyl rotation
    to_std = frame_inverse(space, basis)
    gens_std = [weyl]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        nbar = np.eye(2 * n, dtype=np.int64)
        nbar[n + i, j] = nbar[n + j, i] = 1  # [[I, 0], [B, I]]
        gens_std.append(nbar)
    # a Levi generator keeps the closure shallow
    a = np.eye(n, dtype=np.int64)
    a[0, 0] = ffield.field(p, 1).multiplicative_generator().coeffs[0]
    gens_std.append(plus_minus(a, modp.mat_inv(a, p).T))
    gens = basis @ np.stack(gens_std) @ to_std % p
    check_form(space, gens)
    return gens


@lru_cache(maxsize=None)
def classes(grp: SpGroup) -> np.ndarray:
    """The conjugacy class of each element of grp as one read-only int64
    label array: labels[i] is the least position in the class of element i.

    Conjugation by each of grp.gens is one permutation of the positions
    (one positions call); a class is an orbit of these permutations, so the
    least label is propagated along them, both ways, until no label changes.
    A label is always a position in its element's class, so labels[labels]
    is one too, and reading it shortens the walk."""
    perms = [grp.positions(g @ grp.mats @ g_inv) for g, g_inv in zip(grp.gens, inverses(grp.space, grp.gens))]
    perms += [np.argsort(perm) for perm in perms]  # conjugation by each inverse
    labels = np.arange(len(grp.mats))
    while True:
        new = np.minimum.reduce([labels] + [labels[perm] for perm in perms])
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    labels.flags.writeable = False  # shared through the cache
    return labels


def conjugate_in_sp(g: SpElem, t: SpElem) -> SpElem | None:
    """The first x in sp_group order with x t = g x, None if g and t are
    not conjugate; exhaustive within the enumeration cap."""
    if g.space != t.space:
        raise SymplecticError("elements from different spaces")
    if not g.is_semisimple() or not t.is_semisimple():
        raise SymplecticError("conjugacy test requires semisimple elements")
    grp = sp_group(g.space)
    hits = np.flatnonzero(((grp.mats @ t.mat - g.mat @ grp.mats) % g.space.p == 0).all(axis=(1, 2)))
    return grp.elem(hits[0]) if len(hits) else None
