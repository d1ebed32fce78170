"""Closed-form character formulas for Weil representations of finite
symplectic groups, evaluated from Sigma-orbits of eigenvalues or invariant
subspaces.

All formulas return exact integers times p-powers (as floats/complex for
comparison against the matrix oracle); weight evaluations are compared to 1
exactly in the field, never numerically.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import ffield, modp, symplectic as sym
from .symplectic import SpElem, SympSpace, TorusElement, TorusPiece


class GerardinError(Exception):
    pass


# ---------------------------------------------------------------------------
# Semisimple formula over Sigma-orbits of eigenvalues


def piece_character(piece: TorusPiece) -> int:
    """The quadratic character of one Sigma-orbit at its root x: sgn of the
    norm-one group of k_i over its half-degree field on a symmetric piece,
    sgn of k_i^x on an asymmetric one."""
    p = piece.x.parent.p
    k_i = ffield.field(p, piece.degree)
    if piece.symmetric:
        return ffield.sgn_norm_one(piece.x, ffield.field(p, piece.degree // 2), k_i)
    return ffield.sgn_mult(piece.x, k_i)


def _moving_orbits(pieces) -> int:
    """l: one Gamma-orbit per symmetric piece with x != 1, two per asymmetric one."""
    return sum(1 if piece.symmetric else 2 for piece in pieces if piece.x != 1)


def orbit_sign(pieces: tuple[TorusPiece, ...], fixed_dim: int) -> int:
    """Gerardin's sign (-1)^l * prod of piece_character over the Sigma-orbits
    `pieces`, l = _moving_orbits(pieces); the x = 1 orbits must fill the
    fixed space, of dimension fixed_dim."""
    chi = math.prod(piece_character(piece) for piece in pieces)
    if sum((1 if piece.symmetric else 2) * piece.degree for piece in pieces if piece.x == 1) != fixed_dim:
        raise GerardinError("weight multiplicities disagree with the fixed space")
    return (-1) ** _moving_orbits(pieces) * chi


def char_semisimple(t: TorusElement) -> float:
    """orbit_sign over the pieces of t times p^{dim V^t / 2} (Gerardin)."""
    if not isinstance(t, TorusElement):
        raise GerardinError("char_semisimple needs a TorusElement, got %s" % type(t).__name__)
    fixed_dim = t.elem.fixed_space_dim()
    return orbit_sign(t.pieces, fixed_dim) * float(t.elem.space.p) ** (fixed_dim // 2)


# ---------------------------------------------------------------------------
# Subspace helpers: a basis is one (k, dim) int64 array mod p, one vector per
# row; each helper answers its question with one row reduction


def _rows(basis, p: int, dim: int) -> np.ndarray:
    """basis, any array-like of coordinate rows (a list of tuples reads as an
    array does), as one (k, dim) int64 array mod p."""
    a = np.asarray(basis, dtype=np.int64)
    return a.reshape(len(a), dim) % p


def perp_basis(space: SympSpace, basis) -> np.ndarray:
    """Basis of {v : <b, v> = 0 for all b in basis}."""
    return modp.kernel_basis(_rows(basis, space.p, space.dim) @ space.gram, space.p)


def restrict_map(g: SpElem, basis) -> np.ndarray:
    """Matrix of g on span(basis) in basis coordinates, read from the row
    reduction of [B | gB]; the basis must be independent and its span
    invariant.  0 x 0 on the zero space."""
    p = g.space.p
    b = _rows(basis, p, g.space.dim).T  # columns
    k = b.shape[1]
    red, piv = modp.rref(np.hstack([b, g.mat @ b]), p)
    if piv[:k] != list(range(k)):
        raise GerardinError("basis vectors are dependent")
    if not _in_span(piv, k):
        raise GerardinError("subspace is not invariant under the element")
    return red[:k, k:]


def _in_span(piv: list[int], k: int) -> bool:
    """Whether gB stays in span(B): [B | gB] has no pivot past B's k columns."""
    return len(piv) == k


def is_isotropic(space: SympSpace, basis) -> bool:
    return not subspace_gram(space, basis).any()


def subspace_gram(space: SympSpace, basis) -> np.ndarray:
    b = _rows(basis, space.p, space.dim)
    return b @ space.gram @ b.T % space.p


def complement_in(big_basis, small_basis, p: int) -> np.ndarray:
    """The big_basis rows that extend small_basis to a basis of the sum,
    picked greedily in order: the pivot columns of [small | big]."""
    dim = max(np.shape(b)[-1] for b in (big_basis, small_basis))
    small = _rows(small_basis, p, dim)
    cols = np.vstack([small, _rows(big_basis, p, dim)])
    _, piv = modp.rref(cols.T, p)
    return cols[[c for c in piv if c >= len(small)]]


# ---------------------------------------------------------------------------
# Fixed-point-free formula


def char_no_fixed_point(g: SpElem, vprime) -> int:
    """sgn((-1)^{dim V0/2} det(g|V') det(g-1|V0)) for V0 = V'^perp/V', where
    V' is a maximal g-invariant totally isotropic subspace and V^g = 0."""
    space = g.space
    p = space.p
    if g.fixed_space_dim() != 0:
        raise GerardinError("element has nonzero fixed points")
    vprime = _rows(vprime, p, space.dim)
    if not is_isotropic(space, vprime):
        raise GerardinError("V' is not totally isotropic")
    # V0 = V'^perp / V', spanned by a complement of V' inside V'^perp; V'^perp
    # is invariant exactly when V' is, so g on (V', V0) is block upper
    # triangular with g|V' top left and the quotient action bottom right
    v0 = complement_in(perp_basis(space, vprime), vprime, p)
    k = len(vprime)
    gq = restrict_map(g, np.vstack([vprime, v0]))  # raises if V' is dependent or not invariant
    det_vp = modp.det(gq[:k, :k], p)
    g_v0 = gq[k:, k:]
    # maximality: g on V0 must have no eigenvalue in F_p
    cp = modp.charpoly(g_v0, p)
    if any(modp.poly_eval(cp, lam, p) == 0 for lam in range(p)):
        raise GerardinError("V' is not maximal (V0 has an eigenline)")
    det_v0_shift = modp.det((g_v0 - np.eye(len(v0), dtype=np.int64)) % p, p)
    sign_arg = pow(p - 1, (len(v0) // 2) % 2, p) * det_vp * det_v0_shift % p
    return modp.legendre(sign_arg, p)


# ---------------------------------------------------------------------------
# Fixed-line recursion


def char_fixed_line(g: SpElem, line, v0_basis) -> complex:
    """Theta_{omega_{V0}}(g|V0) * sum over V0^perp/L of psi(<gv, v>), for a
    pointwise-fixed line L and a g-invariant complement V0 of L in L^perp;
    psi is modp.theta_values, the central character the oracle uses too."""
    space = g.space
    p = space.p
    line = _rows([line], p, space.dim)
    if not line.any() or (g.mat @ line[0] % p != line[0]).any():
        raise GerardinError("the line is not fixed pointwise")
    v0_basis = _rows(v0_basis, p, space.dim)
    lperp = perp_basis(space, line)
    if len(v0_basis) != len(lperp) - 1 or len(complement_in(v0_basis, lperp, p)):
        raise GerardinError("V0 is not a complement of L in L^perp")
    if not len(complement_in(line, v0_basis, p)):
        raise GerardinError("V0 contains L")
    g_v0 = restrict_map(g, v0_basis)  # raises if dependent or not invariant

    # Gauss factor: sum over V0^perp / L, one v per combination of the
    # representatives; their product order fixes the sum's rounding
    reps = complement_in(perp_basis(space, v0_basis), line, p)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(reps))), dtype=np.int64).reshape(-1, len(reps))
    vs = coeffs @ reps % p
    phases = np.einsum("ti,ij,tj->t", vs @ g.mat.T % p, space.gram, vs) % p
    total = sum(modp.theta_values(p)[phases].tolist())

    if not len(v0_basis):
        return total
    sub = sym.symp_space(p, subspace_gram(space, v0_basis))
    return weil_char(sym.sp_elem(sub, g_v0)) * total


def weil_char(g: SpElem) -> complex:
    """Recursive formula-side evaluation of the Weil character of a
    semisimple element: peel fixed lines via the fixed-line formula, finish
    with the fixed-point-free formula."""
    space = g.space
    p = space.p
    if space.dim == 0:
        return 1.0
    if not g.is_semisimple():
        raise GerardinError("recursive evaluation requires a semisimple element")
    fixed = modp.kernel_basis((g.mat - np.eye(space.dim, dtype=np.int64)) % p, p)
    if len(fixed):
        return char_fixed_line(g, fixed[0], invariant_complement_in_perp(g, fixed[0]))
    vprime = maximal_invariant_isotropic(g)
    return float(char_no_fixed_point(g, vprime))


def invariant_complement_in_perp(g: SpElem, line) -> np.ndarray:
    """A g-invariant V0 with L^perp = L + V0 (g semisimple): the (g-1)-image
    of L^perp plus a complement of L inside the fixed part of L^perp."""
    space = g.space
    p = space.p
    line = _rows([line], p, space.dim)
    lperp = perp_basis(space, line)
    shift = (restrict_map(g, lperp) - np.eye(len(lperp), dtype=np.int64)) % p
    img = shift.T @ lperp % p
    fixed = modp.kernel_basis(shift, p) @ lperp % p
    return np.vstack([complement_in(img, [], p), complement_in(fixed, line, p)])


def maximal_invariant_isotropic(g: SpElem) -> np.ndarray:
    """Greedy maximal g-invariant totally isotropic subspace for semisimple g:
    while some eigenvalue has an eigenvector in V'^perp outside V' (for
    semisimple g, an eigenline of V'^perp/V' lifts to one), add the first
    such vector of the least such eigenvalue.  An isotropic subspace has
    dimension at most dim V / 2, so the greedy stops there."""
    space = g.space
    p = space.p
    ident = np.eye(space.dim, dtype=np.int64)
    vprime = np.zeros((0, space.dim), dtype=np.int64)
    while len(vprime) < space.dim // 2:
        in_perp = vprime @ space.gram
        for lam in range(p):
            # the lam-eigenvectors inside V'^perp
            eig = modp.kernel_basis(np.vstack([g.mat - lam * ident, in_perp]), p)
            new = complement_in(eig, vprime, p) if len(eig) else eig
            if len(new):
                vprime = np.vstack([vprime, new[:1]])
                break
        else:
            break
    return vprime


# ---------------------------------------------------------------------------
# Polarization corollary


def char_polarized(g: SpElem, polarization) -> complex:
    """sgn(det(g|V+)) * |V^g|^{1/2} for semisimple g preserving a polarization."""
    space = g.space
    p = space.p
    vplus, vminus = (modp.as_mat(side, p) for side in polarization)
    sym.check_polarization(space, vplus, vminus)
    if not g.is_semisimple():
        raise sym.SymplecticError("polarized formula requires a semisimple element")
    gp = restrict_map(g, vplus)
    restrict_map(g, vminus)
    fixed = g.fixed_space_dim()
    if fixed % 2:
        raise GerardinError("the fixed space of a symplectic element has odd dimension %d" % fixed)
    return modp.legendre(modp.det(gp, p), p) * float(p) ** (fixed // 2)


def invariant_polarizations(g: SpElem):
    """All g-invariant polarizations (V+, V-) of a small space, brute force
    over its _lagrangians; each side a read-only (n, dim) array."""
    lagr, pairs = _lagrangians(g.space)
    invariant = []
    for basis in lagr:
        try:
            restrict_map(g, basis)
            invariant.append(True)
        except GerardinError:
            invariant.append(False)
    for i, j in pairs:
        if invariant[i] and invariant[j]:
            yield lagr[i], lagr[j]
            yield lagr[j], lagr[i]


@lru_cache(maxsize=None)
def _lagrangians(space: SympSpace) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The Lagrangians of a small space, the isotropic ones of
    _all_subspaces in its order (one read-only (N, n, dim) array), and the
    pairs (i, j), i < j, of transversal ones, in itertools.combinations
    order."""
    p, n = space.p, space.dim // 2
    subs = _all_subspaces(space, n)
    lagr = subs[[is_isotropic(space, b) for b in subs]]
    lagr.flags.writeable = False
    pairs = [(i, j) for i, j in itertools.combinations(range(len(lagr)), 2)
             if modp.rank(np.vstack([lagr[i], lagr[j]]), p) == 2 * n]
    return lagr, tuple(pairs)


@lru_cache(maxsize=None)
def _all_subspaces(space: SympSpace, dim: int) -> np.ndarray:
    """All dim-dimensional subspaces as canonical RREF bases, one read-only
    (N, dim, space.dim) array, in the order of their first spanning
    combination of nonzero vectors; small spaces."""
    p = space.p
    # every vector, last coordinate fastest (itertools.product's order); row 0 is 0
    vecs = np.indices((p,) * space.dim).reshape(space.dim, -1).T[1:]
    bases: dict[bytes, np.ndarray] = {}  # an insertion-ordered set
    for combo in itertools.combinations(vecs, dim):
        m, piv = modp.rref(np.array(combo, dtype=np.int64), p)
        if len(piv) == dim:
            bases.setdefault(m.tobytes(), m)
    out = np.array(list(bases.values()), dtype=np.int64).reshape(len(bases), dim, space.dim)
    out.flags.writeable = False
    return out
