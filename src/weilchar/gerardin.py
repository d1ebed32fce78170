"""Closed-form character formulas for Weil representations of finite
symplectic groups, evaluated from Sigma-orbits of eigenvalues or invariant
subspaces.

All formulas return exact integers times p-powers (as floats/complex for
comparison against the matrix oracle); weight evaluations are compared to 1
exactly in the field, never numerically.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import ffield, modp, symplectic as sym
from .symplectic import SpElem, SympSpace, TorusElement, TorusPiece


class GerardinError(Exception):
    pass


class ElementNotInTorus(GerardinError):
    pass


class HasFixedPoint(GerardinError):
    pass


class NotIsotropic(GerardinError):
    pass


class LineNotFixed(GerardinError):
    pass


class NotInvariantPolarization(GerardinError):
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


def orbit_sign(pieces, fixed_dim: int) -> int:
    """Gerardin's sign (-1)^l * prod of piece_character over the Sigma-orbits
    `pieces`, l the number of Gamma-orbits with x != 1 (one per symmetric
    piece, two per asymmetric one); the x = 1 orbits must fill the fixed
    space, of dimension fixed_dim."""
    l_count = ones = 0
    chi = 1
    for piece in pieces:
        gamma_orbits = 1 if piece.symmetric else 2
        if piece.x == 1:
            ones += gamma_orbits * piece.degree
        else:
            l_count += gamma_orbits
        chi *= piece_character(piece)
    if ones != fixed_dim:
        raise GerardinError("weight multiplicities disagree with the fixed space")
    return (-1) ** l_count * chi


def char_semisimple(t: TorusElement) -> float:
    """orbit_sign over the pieces of t times p^{dim V^t / 2} (Gerardin)."""
    if not isinstance(t, TorusElement):
        raise ElementNotInTorus("char_semisimple needs a TorusElement, got %s" % type(t).__name__)
    fixed_dim = t.elem.fixed_space_dim()
    return orbit_sign(t.pieces(), fixed_dim) * float(t.torus.p) ** (fixed_dim // 2)


# ---------------------------------------------------------------------------
# Subspace helpers (bases are lists of coordinate tuples); each answers its
# question with one row reduction


def _basis_mat(space: SympSpace, basis) -> np.ndarray:
    return np.array(basis, dtype=np.int64).reshape(len(basis), space.dim)


def perp_basis(space: SympSpace, basis) -> list[tuple[int, ...]]:
    """Basis of {v : <b, v> = 0 for all b in basis}."""
    m = _basis_mat(space, basis) @ space.gram_mat % space.p
    return [tuple(int(x) for x in v) for v in modp.kernel_basis(m, space.p)]


def restrict_map(g: SpElem, basis) -> np.ndarray:
    """Matrix of g on span(basis) in basis coordinates, read from the row
    reduction of [B | gB]; the basis must be independent and its span
    invariant.  0 x 0 on the zero space."""
    p = g.space.p
    k = len(basis)
    b = _basis_mat(g.space, basis).T  # columns
    red, piv = modp.rref(np.hstack([b, g.mat_np @ b]), p)
    if piv[:k] != list(range(k)):
        raise GerardinError("basis vectors are dependent")
    if len(piv) > k:
        raise GerardinError("subspace is not invariant under the element")
    return red[:k, k:]


def is_isotropic(space: SympSpace, basis) -> bool:
    return not subspace_gram(space, basis).any()


def subspace_gram(space: SympSpace, basis) -> np.ndarray:
    b = _basis_mat(space, basis)
    return b @ space.gram_mat @ b.T % space.p


def complement_in(big_basis, small_basis, p: int) -> list[tuple[int, ...]]:
    """The big_basis vectors that extend small_basis to a basis of the sum,
    picked greedily in order: the pivot columns of [small | big]."""
    cols = [tuple(int(x) % p for x in v) for v in [*small_basis, *big_basis]]
    _, piv = modp.rref(np.array(cols, dtype=np.int64).T, p)
    return [cols[c] for c in piv if c >= len(small_basis)]


# ---------------------------------------------------------------------------
# Fixed-point-free formula


def char_no_fixed_point(g: SpElem, vprime) -> int:
    """sgn((-1)^{dim V0/2} det(g|V') det(g-1|V0)) for V0 = V'^perp/V', where
    V' is a maximal g-invariant totally isotropic subspace and V^g = 0."""
    space = g.space
    p = space.p
    if g.fixed_space_dim() != 0:
        raise HasFixedPoint("element has nonzero fixed points")
    vprime = [tuple(int(x) % p for x in v) for v in vprime]
    if not is_isotropic(space, vprime):
        raise NotIsotropic("V' is not totally isotropic")
    # V0 = V'^perp / V', spanned by a complement of V' inside V'^perp; V'^perp
    # is invariant exactly when V' is, so g on (V', V0) is block upper
    # triangular with g|V' top left and the quotient action bottom right
    v0 = complement_in(perp_basis(space, vprime), vprime, p)
    k = len(vprime)
    gq = restrict_map(g, vprime + v0)  # raises if V' is dependent or not invariant
    det_vp = modp.det(gq[:k, :k], p)
    g_v0 = gq[k:, k:]
    # maximality: g on V0 must have no eigenvalue in F_p
    cp = modp.charpoly(g_v0, p)
    if any(modp.poly_eval(cp, lam, p) == 0 for lam in range(p)):
        raise NotIsotropic("V' is not maximal (V0 has an eigenline)")
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
    line = tuple(int(x) % p for x in line)
    if g.apply(line) != line or not any(line):
        raise LineNotFixed("the line is not fixed pointwise")
    v0_basis = [tuple(int(x) % p for x in v) for v in v0_basis]
    lperp = perp_basis(space, [line])
    if len(v0_basis) != len(lperp) - 1 or complement_in(v0_basis, lperp, p):
        raise GerardinError("V0 is not a complement of L in L^perp")
    if not complement_in([line], v0_basis, p):
        raise GerardinError("V0 contains L")
    g_v0 = restrict_map(g, v0_basis)  # raises if dependent or not invariant

    # Gauss factor: sum over V0^perp / L, one v per combination of the
    # representatives; their product order fixes the sum's rounding
    reps = _basis_mat(space, complement_in(perp_basis(space, v0_basis), [line], p))
    coeffs = np.array(list(itertools.product(range(p), repeat=len(reps))), dtype=np.int64).reshape(-1, len(reps))
    vs = coeffs @ reps % p
    phases = np.einsum("ti,ij,tj->t", vs @ g.mat_np.T % p, space.gram_mat, vs) % p
    total = sum(modp.theta_values(p)[phases].tolist())

    if not v0_basis:
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
    fixed = modp.kernel_basis((g.mat_np - np.eye(space.dim, dtype=np.int64)) % p, p)
    if fixed:
        line = tuple(int(x) for x in fixed[0])
        v0 = invariant_complement_in_perp(g, line)
        return char_fixed_line(g, line, v0)
    vprime = maximal_invariant_isotropic(g)
    return float(char_no_fixed_point(g, vprime))


def invariant_complement_in_perp(g: SpElem, line) -> list[tuple[int, ...]]:
    """A g-invariant V0 with L^perp = L + V0 (g semisimple): the (g-1)-image
    of L^perp plus a complement of L inside the fixed part of L^perp."""
    space = g.space
    p = space.p
    lperp = perp_basis(space, [line])
    glp = restrict_map(g, lperp)
    k = len(lperp)
    ident = np.eye(k, dtype=np.int64)
    img = [(np.array(lperp, dtype=np.int64).T @ col) % p for col in ((glp - ident) % p).T]
    fixed_cols = modp.kernel_basis((glp - ident) % p, p)
    fixed = [tuple(int(x) for x in (np.array(lperp, dtype=np.int64).T @ c) % p) for c in fixed_cols]
    fixed_rest = complement_in(fixed, [line], p)
    return complement_in(img, [], p) + fixed_rest


def maximal_invariant_isotropic(g: SpElem) -> list[tuple[int, ...]]:
    """Greedy maximal g-invariant totally isotropic subspace for semisimple g:
    while some eigenvalue has an eigenvector in V'^perp outside V' (for
    semisimple g, an eigenline of V'^perp/V' lifts to one), add the first
    such vector of the least such eigenvalue.  An isotropic subspace has
    dimension at most dim V / 2, so the greedy stops there."""
    space = g.space
    p = space.p
    ident = np.eye(space.dim, dtype=np.int64)
    vprime: list[tuple[int, ...]] = []
    while len(vprime) < space.dim // 2:
        in_perp = _basis_mat(space, vprime) @ space.gram_mat
        for lam in range(p):
            # the lam-eigenvectors inside V'^perp
            eig = modp.kernel_basis(np.vstack([g.mat_np - lam * ident, in_perp]), p)
            new = complement_in(eig, vprime, p) if eig else []
            if new:
                vprime.append(new[0])
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
    vplus, vminus = polarization
    vplus = [tuple(int(x) % p for x in v) for v in vplus]
    vminus = [tuple(int(x) % p for x in v) for v in vminus]
    n = space.dim // 2
    if len(vplus) != n or len(vminus) != n:
        raise NotInvariantPolarization("polarization sides must have dimension n")
    if not is_isotropic(space, vplus) or not is_isotropic(space, vminus):
        raise NotInvariantPolarization("polarization sides must be Lagrangian")
    if modp.rank(np.array(vplus + vminus, dtype=np.int64), p) != 2 * n:
        raise NotInvariantPolarization("sides do not span")
    if not g.is_semisimple():
        raise sym.NotSemisimple("polarized formula requires a semisimple element")
    try:
        gp = restrict_map(g, vplus)
        restrict_map(g, vminus)
    except GerardinError as exc:
        raise NotInvariantPolarization(str(exc)) from exc
    fixed = g.fixed_space_dim()
    assert fixed % 2 == 0
    return modp.legendre(modp.det(gp, p), p) * float(p) ** (fixed // 2)


def invariant_polarizations(g: SpElem):
    """All g-invariant polarizations (V+, V-) of a small space, brute force."""
    space = g.space
    p = space.p
    n = space.dim // 2
    lagr = []
    for basis in _all_subspaces(space, n):
        if is_isotropic(space, basis):
            try:
                restrict_map(g, basis)
            except GerardinError:
                continue
            lagr.append(basis)
    for vp, vm in itertools.combinations(lagr, 2):
        if modp.rank(np.array(vp + vm, dtype=np.int64), p) == 2 * n:
            yield vp, vm
            yield vm, vp


@lru_cache(maxsize=None)
def _all_subspaces(space: SympSpace, dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All dim-dimensional subspaces as canonical RREF bases, in the order of
    their first spanning combination of nonzero vectors; small spaces."""
    p = space.p
    bases: dict[tuple, None] = {}  # an insertion-ordered set
    vecs = [v for v in space.vectors() if any(v)]
    for combo in itertools.combinations(vecs, dim):
        m, piv = modp.rref(np.array(combo, dtype=np.int64), p)
        if len(piv) == dim:
            bases.setdefault(tuple(tuple(row) for row in m.tolist()), None)
    return tuple(bases)
