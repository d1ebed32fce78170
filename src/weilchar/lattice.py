"""Integer-lattice and root-datum computations: Smith normal form, torsion of
twist coinvariants, restricted roots with type tags, and descended root
systems.

All arithmetic is over Z with plain Python ints (no overflow). A matrix is
taken in as a non-empty list or tuple of equal-length rows of scalars, or as
a 2-D ndarray read with ``tolist()``; each entry goes through ``int``.

The built-in catalogue is built and validated once per process; each
``catalogue()`` call returns a fresh dict over the same frozen data, and a
datum's theta order is computed once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import mul

import numpy as np


class LatticeError(Exception):
    pass


# Largest rank matrix_order walks; a larger theta is refused before its first
# power. The catalogue's largest rank is 4 and checks.make_finite_order_matrix
# draws up to rank 6. matrix_order's trace test refuses an infinite-order
# theta early ([[2, 1], [1, 1]] blocks and unipotent thetas at their first
# power); the cap bounds the rest: a product costs rank^3 multiplications,
# and a 40x40 permutation of order 27,720 walked 10,000 powers in 60-69 s.
ORDER_RANK_CAP = 6
ORDER_BOUND = 10_000  # the largest order matrix_order walks to


def _to_rows(m) -> list[list[int]]:
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise LatticeError("expected a matrix")
        rows = m.tolist()
    elif isinstance(m, (list, tuple)) and m and all(isinstance(r, (list, tuple)) and len(r) == len(m[0]) for r in m):
        rows = m
    else:
        raise LatticeError("expected a matrix")
    try:
        return [[int(x) for x in row] for row in rows]
    except TypeError:  # an entry that is a sequence (or None) is not a scalar
        raise LatticeError("expected a matrix") from None


def _square_rows(m, what: str) -> list[list[int]]:
    a = _to_rows(m)
    if any(len(row) != len(a) for row in a):
        raise LatticeError("%s of a non-square %dx%d matrix" % (what, len(a), len(a[0])))
    return a


def _divisibility_offender(d: list[list[int]], s: int) -> int | None:
    """The first row below s with an entry right of column s that the pivot
    d[s][s] does not divide, or None: the row the fixup pulls in."""
    for i in range(s + 1, len(d)):
        if any(x % d[s][s] for x in d[i][s + 1 :]):
            return i
    return None


def smith_normal_form(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U, D, V with D = U*m*V, U and V unimodular, D diagonal, d_i | d_{i+1}.

    Plain row/column reduction with a divisibility fixup; exact over Z.
    """
    d = _to_rows(m)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i -= k * row_j
        d[i] = [a - k * b for a, b in zip(d[i], d[j])]
        u[i] = [a - k * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for r in range(rows):
            d[r][i] -= k * d[r][j]
        for r in range(cols):
            v[r][i] -= k * v[r][j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def pivot(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    s = 0
    while s < min(rows, cols):
        pos = pivot(s)
        if pos is None:
            break
        row_swap(s, pos[0])
        col_swap(s, pos[1])
        # one elimination pass; any leftover remainder is strictly smaller
        # than the pivot, so restarting with a fresh minimal pivot terminates
        for i in range(s + 1, rows):
            if d[i][s]:
                row_op(i, s, d[i][s] // d[s][s])
        if any(d[i][s] for i in range(s + 1, rows)):
            continue
        for j in range(s + 1, cols):
            if d[s][j]:
                col_op(j, s, d[s][j] // d[s][s])
        if any(d[s][j] for j in range(s + 1, cols)):
            continue
        # divisibility fixup: pull an offending row into the pivot row and
        # restart the step (the next pivot properly divides the old one)
        offender = _divisibility_offender(d, s)
        if offender is not None:
            row_op(s, offender, -1)
            continue
        if d[s][s] < 0:
            d[s] = [-a for a in d[s]]
            u[s] = [-a for a in u[s]]
        s += 1
    return u, d, v


def det_int(m) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination: after
    step c every entry below and right of the pivot is a (c+2)-minor, so
    each division by the previous pivot is exact."""
    a = _square_rows(m, "determinant")
    n = len(a)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        top, pc = a[c], a[c][c]
        for i in range(c + 1, n):
            row, f = a[i], a[i][c]
            a[i] = [0] * (c + 1) + [(x * pc - f * y) // prev for x, y in zip(row[c + 1 :], top[c + 1 :])]
        prev = pc
    return sign * prev


def matrix_order(theta) -> int:
    """Multiplicative order of a square integer matrix; LatticeError above ORDER_BOUND.

    A finite-order matrix is diagonalizable with roots of unity as
    eigenvalues, so every power has |trace| <= rank, with trace = rank only
    at the identity: the walk stops at the first power that breaks this."""
    t = _square_rows(theta, "order")
    n = len(t)
    if n > ORDER_RANK_CAP:
        raise LatticeError("order of a %dx%d matrix: rank %d is above the cap %d" % (n, n, n, ORDER_RANK_CAP))
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = tuple(zip(*t))
    acc = t
    for k in range(1, ORDER_BOUND + 1):
        if acc == ident:
            return k
        tr = sum(acc[i][i] for i in range(n))
        if abs(tr) > n or tr == n:
            raise LatticeError("theta^%d is not the identity and its trace is outside [-%d, %d): theta has infinite order" % (k, n, n))
        acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
    raise LatticeError("no power up to %d is the identity" % ORDER_BOUND)


def pi0_torsion(theta) -> list[int]:
    """Invariant factors > 1 of coker(1 - theta); theta of finite order."""
    matrix_order(theta)  # raises LatticeError
    t = _to_rows(theta)
    n = len(t)
    one_minus = [[int(i == j) - t[i][j] for j in range(n)] for i in range(n)]
    _, d, _ = smith_normal_form(one_minus)
    return [d[i][i] for i in range(n) if d[i][i] > 1]


# ---------------------------------------------------------------------------
# Root data


@dataclass(frozen=True)
class RootDatum:
    """Character lattice Z^rank with roots, coroots (aligned lists, integer
    dot pairing) and a finite-order lattice automorphism theta."""

    rank: int
    roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    theta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for what, vecs in (("root", self.roots), ("coroot", self.coroots)):
            for v in vecs:
                if len(v) != self.rank:
                    raise LatticeError("%s %r has length %d, not rank %d" % (what, v, len(v), self.rank))
        if len(self.theta) != self.rank or any(len(row) != self.rank for row in self.theta):
            raise LatticeError("theta must be %dx%d for rank %d" % (self.rank, self.rank, self.rank))
        if len(self.roots) != len(self.coroots):
            raise LatticeError("roots and coroots must align")
        for a, av in zip(self.roots, self.coroots):
            if sum(x * y for x, y in zip(a, av)) != 2:
                raise LatticeError("pairing <a, a^> != 2 for %r" % (a,))
        self.order  # validates finite order
        images = [_apply(self.theta, a) for a in self.roots]
        if any(ta not in self.roots for ta in images):
            raise LatticeError("theta does not permute the roots")
        theta_t = tuple(zip(*self.theta))
        for ta, av in zip(images, self.coroots):
            # theta acts on cocharacters by the inverse transpose, so the
            # coroot of theta(a) is theta^{-T}(a^): theta^T maps it back to a^
            if _apply(theta_t, self.coroots[self.roots.index(ta)]) != av:
                raise LatticeError("theta action on coroots incompatible with roots")

    @functools.cached_property
    def order(self) -> int:
        return matrix_order(self.theta)

    def theta_orbit(self, alpha) -> list[tuple[int, ...]]:
        if tuple(alpha) not in self.roots:
            raise LatticeError("%r not a root" % (alpha,))
        orbit = [tuple(alpha)]
        cur = _apply(self.theta, alpha)
        while cur != tuple(alpha):
            orbit.append(cur)
            cur = _apply(self.theta, cur)
        return orbit


def _apply(m, v) -> tuple[int, ...]:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


@dataclass(frozen=True)
class RestrictedRoot:
    vector: tuple[int, ...]
    type_tag: int  # 1, 2 or 3
    orbit: tuple[tuple[int, ...], ...]  # the Theta-orbit of preimages


@dataclass(frozen=True)
class Restriction:
    """Output of restrict_roots: the projection to the coinvariant lattice and
    the restricted-root bookkeeping."""

    proj_rows: tuple[tuple[int, ...], ...]  # p*: X* -> Z^m, rows of U at zero divisors
    restricted: tuple[RestrictedRoot, ...]
    by_root: dict  # root -> restricted vector


def restrict_roots(d: RootDatum) -> Restriction:
    """Restricted roots p*(alpha) in Y*(T) = X*/(X* cap (1-theta)X*_Q), with
    type 1/2/3 tags; the map Phi/Theta -> Phi_res is asserted bijective."""
    n = d.rank
    one_minus = [[int(i == j) - d.theta[i][j] for j in range(n)] for i in range(n)]
    u, dd, _ = smith_normal_form(one_minus)
    zero_rows = [i for i in range(n) if i >= len(dd) or dd[i][i] == 0]
    proj_rows = tuple(tuple(u[i]) for i in zero_rows)

    def project(x):
        return tuple(sum(r[j] * x[j] for j in range(n)) for r in proj_rows)

    orbits: list[list[tuple[int, ...]]] = []
    seen = set()
    for a in d.roots:
        if a in seen:
            continue
        orb = d.theta_orbit(a)
        seen.update(orb)
        orbits.append(orb)

    res_vecs = {}
    for orb in orbits:
        vecs = {project(a) for a in orb}
        if len(vecs) != 1:
            raise LatticeError("projection not constant on a Theta-orbit")
        v = vecs.pop()
        if v in res_vecs:
            raise LatticeError("Phi/Theta -> Phi_res is not injective")
        res_vecs[v] = tuple(orb)

    all_res = set(res_vecs)
    restricted = []
    by_root = {}
    for v, orb in res_vecs.items():
        double = tuple(2 * x for x in v)
        half = tuple(x // 2 for x in v) if all(x % 2 == 0 for x in v) else None
        if double in all_res:
            tag = 2
        elif half is not None and half in all_res:
            tag = 3
        else:
            tag = 1
        rr = RestrictedRoot(v, tag, orb)
        restricted.append(rr)
        for a in orb:
            by_root[a] = v
    return Restriction(proj_rows, tuple(restricted), by_root)


def descended_roots(d: RootDatum, nu_eval) -> set[tuple[int, ...]]:
    """{p*(alpha) : N(alpha)(nu) = sigma_alpha}, the roots of the descended
    group; nu_eval maps each root to the value N(alpha)(nu) (constant on
    Theta-orbits, with 1 and -1 distinguished by equality)."""
    res = restrict_roots(d)
    out = set()
    for rr in res.restricted:
        vals = {nu_eval[a] for a in rr.orbit}
        if len(vals) != 1:
            raise LatticeError("nu evaluation not constant on %r" % (rr.orbit,))
        val = vals.pop()
        sigma = -1 if rr.type_tag == 3 else 1
        if val == sigma:
            out.add(rr.vector)
    return out


# ---------------------------------------------------------------------------
# Built-in catalogue (simple-root basis; theta = diagram automorphism)

_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}

# diagram automorphisms as permutations of the simple roots (0-indexed)
_DIAGRAM = {
    "A2.flip": ("A2", [1, 0]),
    "A3.flip": ("A3", [2, 1, 0]),
    "A4.flip": ("A4", [3, 2, 1, 0]),
    "D4.swap": ("D4", [0, 1, 3, 2]),
    "D4.triality": ("D4", [2, 1, 3, 0]),
}


def _generate_root_system(cartan) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Close the simple (root, coroot) pairs under simple reflections.

    Roots live in simple-root coordinates, coroots in fundamental-coweight
    coordinates, so the natural pairing is the plain dot product and
    coroot(alpha_j) is column j of the Cartan matrix."""
    n = len(cartan)
    simples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    cosimples = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]

    # close with coroots tracked: s_j(a) = a - <a, aj^>aj ; s_j(av) = av - <aj, av>aj^
    pairs = {(simples[j], cosimples[j]) for j in range(n)}
    pairs |= {(tuple(-x for x in a), tuple(-x for x in av)) for a, av in pairs}
    changed = True
    while changed:
        changed = False
        for a, av in list(pairs):
            for j in range(n):
                pa = sum(a[i] * cartan[i][j] for i in range(n))  # <a, alpha_j^vee>
                pav = av[j]  # <alpha_j, av>
                na = tuple(a[i] - pa * simples[j][i] for i in range(n))
                nav = tuple(av[i] - pav * cosimples[j][i] for i in range(n))
                if (na, nav) not in pairs:
                    pairs.add((na, nav))
                    changed = True
    roots, coroots = zip(*sorted(pairs))
    return list(roots), list(coroots)


def catalogue() -> dict[str, RootDatum]:
    """Built-in root data: A1..A4, B2, C2, D4, with identity theta, plus the
    diagram-automorphism variants. A fresh dict over the data built once."""
    return dict(_catalogue())


@functools.cache
def _catalogue() -> tuple[tuple[str, RootDatum], ...]:
    out = {}
    for name, cartan in _CARTAN.items():
        roots, coroots = _generate_root_system(cartan)
        n = len(cartan)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        out[name] = RootDatum(n, tuple(roots), tuple(coroots), ident)
    for name, (base, perm) in _DIAGRAM.items():
        d = out[base]
        n = d.rank
        theta = tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))
        out[name] = RootDatum(n, d.roots, d.coroots, theta)
    return tuple(out.items())


def datum_from_json(obj) -> RootDatum:
    return RootDatum(
        int(obj["rank"]),
        tuple(tuple(map(int, r)) for r in obj["roots"]),
        tuple(tuple(map(int, r)) for r in obj["coroots"]),
        tuple(tuple(map(int, r)) for r in obj["theta"]),
    )
