"""Explicit matrix models of Heisenberg-Weil representations: the brute-force
oracle layer.

rho is the Schrodinger model on functions on a Lagrangian; omega comes in two
independent constructions:

* a generator word model (lower unipotents, Levi, partial Fourier operators
  with inverse Gauss-sum scalars) putting every element into one Bruhat-cell
  normal form W D1 M1 F_S M2 D2 W^H, with W the unitary Fourier operator, F_S
  the Fourier operator on the coordinates of S (|S| = rank C), D diagonal and
  M monomial, kept as its n x n matrices (WordFactors); omega and omega_word
  multiply it out, and trace_omega sums it over the points where F_S's
  diagonal can be nonzero as one histogram of integer phases mod p, in
  O(p^n) work on every cell and with no p^n x p^n product.  It is the only
  model omega and trace_omega read.  It takes a stack of elements of one
  space (normal_forms, omega_stack, trace_stack), SpElems or one int64
  array of matrices, such as a whole group's: each distinct n x n block's
  elimination runs once on Python-int rows and is memoized (_reduce_block),
  the rest once per cell rank with a leading batch axis; one element is the
  stack of one;
* a whole-group model (omega_group) for |Sp(V)| p^2n within GROUP_TABLE_CAP,
  built from one Schur average of a matrix unit per element (a projective
  intertwiner, one scatter of p^2n phases) and scaled so that
  omega(g)^ord(g) = I and det omega(g) = 1 where ord(g) is prime to p; the
  other elements are products of two such, or in SL_2(F_3) of one and the
  classical unipotent operator.  It names nothing of the word model and is
  the independent reference the word model is compared against.

The central character is psi(z) = exp(2*pi*i*z/p), read from
modp.theta_values: every phase here stays an integer mod p until it indexes
that table.  Nothing here reads the closed-form side (gerardin, signcalc, the
ffield quadratic characters).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import modp, symplectic as sym
from .symplectic import SpElem, SympSpace

GATHER_CHUNK_ENTRIES = 2**18  # entries per chunk of a batched rho gather (weil-verify, the group model's Schur averages)
DENSE_DIM_CAP = 729  # largest model dimension p^n weil-verify builds dense operators for (8.5 MB each)
MODEL_DIM_CAP = 32767  # largest model dimension p^n of any WeilModel: GF(13^4) sign blocks (28561) fit
# most complex entries |Sp(V)| p^2n of the whole-group model's operator table:
# Sp_2(F_19)'s 2,469,240 (40 MB) fit; Sp_2(F_23) and Sp_4(F_3), within the
# enumeration cap, are past it
GROUP_TABLE_CAP = 2_500_000


class WeilError(Exception):
    pass


def check_odd_prime(p: int) -> None:
    """Refuse a characteristic the Schrodinger model cannot take."""
    if p == 2 or not modp.is_prime(p):
        raise WeilError("the Schrodinger model needs an odd prime, got p = %d" % p)


def check_model_dim(p: int, n: int, cap: int = MODEL_DIM_CAP, what: str = "model") -> None:
    """Refuse a model dimension p^n above cap, before anything is built."""
    # p^n for p >= 2 is above the cap from this exponent on, so a huge n costs nothing
    if p ** min(n, cap.bit_length()) > cap:
        raise WeilError("p^n = %d^%d exceeds the %s cap %d" % (p, n, what, cap))


def monomial_distance(cols1: np.ndarray, phases1: np.ndarray, cols2: np.ndarray, phases2: np.ndarray) -> float:
    """Max-norm of the difference of monomial matrices given row by row as
    (column, phase) arrays, as rho_parts returns them: where a row's columns
    differ, the difference holds both entries."""
    diff = np.where(cols1 == cols2, np.abs(phases1 - phases2), np.maximum(np.abs(phases1), np.abs(phases2)))
    return float(diff.max())


def gauss_sum(p: int) -> complex:
    return sum(modp.theta_values(p)[np.arange(p) ** 2 % p].tolist())


@lru_cache(maxsize=None)
def _fourier_scalar(p: int, r: int) -> complex:
    # sgn(-2)^r / g1^r, the scalar of the Fourier operator in r coordinates,
    # is forced by n(1) nbar(-1) n(1) = w once the lower-unipotent operators
    # carry scalar 1 (the -2 comes from the 1/2 in the rho phase convention);
    # |g1|^2 = p makes it unitary; cached per (p, r), so no trace re-sums g1
    return (modp.legendre(-2, p) / gauss_sum(p)) ** r


@lru_cache(maxsize=None)
def _std_frame(space: SympSpace) -> tuple[np.ndarray, np.ndarray]:
    """(B, B^-1) for B = hyperbolic_basis(space), read-only and shared by
    every default-polarized model of an equal space; B is checked once to
    carry the form G of space to the form J of standard_polarized_space,
    so that B^-1 is sym.frame_inverse."""
    p, n = space.p, space.dim // 2
    basis = sym.hyperbolic_basis(space)
    if ((basis.T @ space.gram @ basis - sym.standard_polarized_space(p, n).gram) % p).any():
        raise WeilError("the hyperbolic basis does not carry the form to the standard one")
    inv = sym.frame_inverse(space, basis)
    basis.flags.writeable = inv.flags.writeable = False
    return basis, inv


@lru_cache(maxsize=None)
def _points(p: int, n: int) -> np.ndarray:
    """All of F_p^n, shape (p^n, n), row index = encoding (little-endian
    digits); read-only and shared by every model of dimension p^n."""
    out = np.indices((p,) * n).reshape(n, -1)[::-1].T.copy()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _place_values(p: int, n: int) -> np.ndarray:
    """p^i for i < n: a point's digits @ these is its row in _points;
    read-only and shared by every model of dimension p^n."""
    out = p ** np.arange(n, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, int64 and read-only."""
    out = np.eye(n, dtype=np.int64)
    out.flags.writeable = False
    return out


BLOCK_MEMO_SIZE = 1024  # distinct n x n blocks _reduce_block keeps (one registry run meets 155, at most about 1 KB each)


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _reduce_block(key: bytes, n: int, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """[m | I] reduced once per distinct n x n block m, keyed by m's int64
    bytes (row-major, entries in [0, p)), n and p: the right half E of the
    reduced rows as a read-only int64 array (E = m^-1 when m is invertible),
    the pivot columns within m and the determinant of the row operations,
    det E, as modp.reduce_rows returns it."""
    rows = modp.with_identity(np.frombuffer(key, dtype=np.int64).reshape(n, n).tolist())
    pivots, det_e = modp.reduce_rows(rows, p)
    e = np.array([row[n:] for row in rows], dtype=np.int64)
    e.flags.writeable = False
    return e, tuple(j for j in pivots if j < n), det_e


def _reduce_blocks(blocks: np.ndarray, p: int) -> tuple[np.ndarray, tuple, tuple]:
    """_reduce_block of each block of a (k, n, n) int64 stack, keyed by
    slices of the stack's bytes: the E's stacked (for a stack of one, a
    read-only view of the memo's E), and the pivot columns and det E of
    each block."""
    k, n = blocks.shape[:2]
    buf, size = blocks.tobytes(), 8 * n * n
    es, pivots, dets = zip(*(_reduce_block(buf[lo : lo + size], n, p) for lo in range(0, k * size, size)))
    return es[0][None] if k == 1 else np.array(es), pivots, dets


def _half_pairing(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """<x,y>/2 = x . y / 2 over the last axis, unreduced: rho's half phase."""
    return pow(2, p - 2, p) * (x * y).sum(axis=-1)


def _nbar_form(b: np.ndarray, p: int) -> np.ndarray:
    """-b/2 mod p: the diagonal of the lower-unipotent operator nbar(b) is
    psi(t^T (-b/2) t) at the point t."""
    return -pow(2, p - 2, p) * np.asarray(b, dtype=np.int64) % p


@lru_cache(maxsize=None)
def _pair_products(p: int, n: int) -> np.ndarray:
    """s_i s_j for every point s of F_p^n (rows in _points order) and every
    pair (i, j), row-major: shape (p^n, n^2), read-only and shared by every
    model of dimension p^n."""
    pts = _points(p, n)
    out = (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), n * n)
    out.flags.writeable = False
    return out


def _quadratic_phases(p: int, n: int, q: np.ndarray) -> np.ndarray:
    """The integer phases s^T q s mod p at every point s of F_p^n, in
    _points order: one matmul with _pair_products, one row of phases per
    n x n matrix of a stack q.  q is reduced mod p, as _nbar_form and
    _trace_phase return it, so no sum exceeds n^2 p^3 and int64 holds for
    every p^n <= MODEL_DIM_CAP."""
    out = q.reshape(q.shape[:-2] + (n * n,)) @ _pair_products(p, n).T
    out %= p
    return out


@dataclass(frozen=True, eq=False)
class WordFactors:
    """The normal form omega(g) = W D1 M1 F_S M2 D2 W^H of word_factors, as
    n x n int64 matrices mod p: h = w^-1 g w = nbar(b1) m(a1) w_S m(a2)
    nbar(b2) with t = a1^-1, the cell rank r = |S| and sgn = (det a1 / p)
    (det a2 / p) = (det t det a2 / p), both determinants read off the row
    reductions that give t and a2^-1; on the big cell (r = n) a2 = I.  On
    functions on F_p^n, omega(h)[s, u] = sgn psi(d1(s))
    F_S(t s, a2 u) psi(d2(u)) with the nbar phases d(s) = s^T (-b/2) s and
    F_S[x, y] = c_r psi(x_S . y_S) delta(x_S^c = y_S^c).

    normal_forms stacks the elements of one cell rank: there sgn is an int64
    array and every matrix gains a leading axis, one entry per element."""

    rank: int
    sgn: int | np.ndarray
    t: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def _trace_support(f: WordFactors, p: int) -> np.ndarray:
    """(t - a2) on the coordinates off S, mod p, for each element of a
    stacked normal form: F_S(t s, a2 s) vanishes unless t s and a2 s agree
    there, so the trace sums over this matrix's kernel."""
    return (f.t - f.a2)[:, f.rank :] % p


def _trace_phase(f: WordFactors, p: int) -> np.ndarray:
    """Q mod p with the trace's summand sgn c_r psi(s^T Q s) at a point s of
    the support, for each element of a stacked normal form: both nbar
    phases and F_S's phase (t s)_S . (a2 s)_S, which the Siegel cell (r = 0,
    S empty) does not have."""
    q = _nbar_form(f.b1 + f.b2, p)
    if f.rank:
        q += _cross_phase(f)
        q %= p
    return q


def _cross_phase(f: WordFactors) -> np.ndarray:
    """F_S's phase (t s)_S . (a2 s)_S as the unreduced matrices t_S^T a2_S."""
    return f.t[:, : f.rank].transpose(0, 2, 1) @ f.a2[:, : f.rank]


class WeilModel:
    """Schrodinger model of the Heisenberg-Weil representation of
    Sp(V) x H(V) with the fixed central character, dimension p^n.

    Internally everything is transported to standard (e, f)-coordinates by a
    symplectic basis change; rho acts on functions on the X-coordinates.
    from_std, to_std, _pts and _powers are read-only: with the default
    polarization the basis change is shared by every model of an equal space
    (_std_frame), and the point table and its place values by every model of
    dimension p^n (_points, _place_values)."""

    def __init__(self, space: SympSpace, polarization=None):
        check_odd_prime(space.p)
        check_model_dim(space.p, space.dim // 2)
        self.space = space
        self.p = space.p
        self.n = space.dim // 2
        self.dim = self.p**self.n
        if polarization is not None:
            xs, ys = (modp.as_mat(side, self.p) for side in polarization)
            gramxy = sym.check_polarization(space, xs, ys)
            # rescale the Y-vectors so <x_i, y_j> = delta_ij: then B^T G B = J
            basis = np.hstack([xs.T, ys.T @ modp.mat_inv(gramxy, self.p)]) % self.p
            self.from_std, self.to_std = basis, sym.frame_inverse(space, basis)
            basis.flags.writeable = self.to_std.flags.writeable = False
        else:
            self.from_std, self.to_std = _std_frame(space)
        self._group_table: list | None = None
        self._w: np.ndarray | None = None  # the Fourier operator, built on first use
        self._powers = _place_values(self.p, self.n)
        self._pts = _points(self.p, self.n)

    # -- Heisenberg action --------------------------------------------------

    def rho_parts(self, vs, zs) -> tuple[np.ndarray, np.ndarray]:
        """rho(x+y, z) f(t) = theta(z + <t,y> + <x,y>/2) f(t+x) is monomial:
        row t of rho(v, z) holds the phase at column t + x.  For a batch of
        elements (vs[..., :] in the model's space, zs[...]) returns the column
        indices and phases, both of shape zs.shape + (p^n,), rows in order."""
        p, n = self.p, self.n
        vstd = np.asarray(vs, dtype=np.int64) @ self.to_std.T % p
        a, b = vstd[..., None, :n], vstd[..., None, n:]
        pts = self._pts
        phases = (np.asarray(zs, dtype=np.int64)[..., None] + (pts * b).sum(axis=-1) + _half_pairing(a, b, p)) % p
        return (pts + a) % p @ self._powers, modp.theta_values(p)[phases]

    def rho(self, vs, zs) -> np.ndarray:
        """The dense matrices of rho(v, z), scattered from rho_parts: shape
        zs.shape + (p^n, p^n)."""
        cols, phases = self.rho_parts(vs, zs)
        out = np.zeros(cols.shape + (self.dim,), dtype=complex)
        np.put_along_axis(out, cols[..., None], phases[..., None], axis=-1)
        return out

    # -- Weil operators: generator word model -------------------------------

    def _fourier(self) -> np.ndarray:
        """The unitary Fourier operator W, built once per model."""
        if self._w is None:
            self._w = self._fourier_entries(self._pts @ self._pts.T, self.n)
        return self._w

    def _fourier_entries(self, phases: np.ndarray, r: int) -> np.ndarray:
        """Entries c_r psi(x) of the rank-r Fourier operator from phases x."""
        roots = _fourier_scalar(self.p, r) * modp.theta_values(self.p)
        return np.take(roots, phases, mode="wrap")  # wrap: index x mod p

    def _matrices(self, gs) -> np.ndarray:
        """The (k, 2n, 2n) int64 matrices of a stack of elements of this
        model's space: a sequence of SpElems, each refused unless it is of
        this space, or an int64 array of that shape, refused unless its
        entries lie in [0, p) and one check_form passes for the stack."""
        d = self.space.dim
        if isinstance(gs, np.ndarray):
            if gs.dtype != np.int64 or gs.ndim != 3 or gs.shape[1:] != (d, d):
                raise sym.SymplecticError("a %s stack of shape %r for a space of dimension %d" % (gs.dtype, gs.shape, d))
            if ((gs < 0) | (gs >= self.p)).any():
                raise sym.SymplecticError("a stack entry lies outside [0, %d)" % self.p)
            sym.check_form(self.space, gs)
            return gs
        for g in gs:
            if g.space is not self.space and g.space != self.space:
                raise sym.SymplecticError("element from another space")
        if not gs:
            return np.empty((0, d, d), dtype=np.int64)
        return gs[0].mat[None] if len(gs) == 1 else np.stack([g.mat for g in gs])

    def normal_forms(self, gs) -> list[tuple[np.ndarray, WordFactors]]:
        """Bruhat-cell normal forms omega(g) = W D1 M1 F_S M2 D2 W^H of a
        stack of elements of this model's space (_matrices), grouped by cell
        rank: one (positions in gs, stacked WordFactors) pair per rank that
        occurs.

        With g = [[A, B], [C, D]] in standard coordinates, h = w^-1 g w =
        [[D, -C], [-B, A]] factors as nbar(b1) m(a1) w_S m(a2) nbar(b2), w_S
        the Weyl element on the first r = rank C coordinate pairs.  One row
        reduction T [-C | I] = [R | T] per distinct block -C (_reduce_block)
        gives T = a1^-1, r, the pivot columns and det T; the rest is read off
        h's rows, once per rank group with a leading batch axis
        (_cell_forms).  A stack of one rank is not regrouped."""
        mats = self._matrices(gs)
        if not len(mats):
            return []
        p, n = self.p, self.n
        gstd = self.to_std @ mats @ self.from_std % p
        t, pivots, dets = _reduce_blocks(-gstd[:, n:, :n] % p, p)
        ranks = [len(piv) for piv in pivots]
        if ranks.count(ranks[0]) == len(ranks):
            return [(np.arange(len(gs)), self._cell_forms(gstd, t, pivots, dets))]
        groups = [np.flatnonzero(np.array(ranks) == r) for r in sorted(set(ranks))]
        return [(pos, self._cell_forms(gstd[pos], t[pos], [pivots[i] for i in pos], [dets[i] for i in pos]))
                for pos in groups]

    def _cell_forms(self, gstd: np.ndarray, t: np.ndarray, pivots: list, dets: list) -> WordFactors:
        """The stacked normal form of elements of one cell rank r, from their
        standard matrices, T, pivot columns and det T.  On the big cell
        (r = n) a2 = I, so b2 = T D and b1 = A T; on the Siegel parabolic
        (r = 0, C = 0, whose reduction leaves T = I) a2 = D and b2 = 0, so
        b1 = -B a2^-1; on the others
        b2 = a2^T beta a2 from the symmetric beta.  Off the big cell one
        reduction of [a2 | I] per distinct a2 (_reduce_block) gives a2^-1 and
        det a2.  sgn = (det T det a2 / p)."""
        p, n, r = self.p, self.n, len(pivots[0])
        a, b, d = gstd[:, :n, :n], gstd[:, :n, n:], gstd[:, n:, n:]
        # top row of h: T D = E' a2 + E a2^-T b2 and T (-C) = E a2^-T, E the
        # projection on the first r coordinates; a2 has rows e_pivot there
        if r == 0:  # C = 0 reduces to T = I, so a2 = T D = D
            a2 = d
        else:
            x = t @ d % p
            if r == n:  # the pivots are 0..n-1, so a2 = I and beta = X
                a2 = _identity(n)[None].repeat(len(t), axis=0)
                sgn = np.array([modp.legendre(det_t, p) for det_t in dets])
                return WordFactors(rank=r, sgn=sgn, t=t, a2=a2, b1=a @ t % p, b2=x)
            a2 = x.copy()
            a2[:, :r] = _identity(n)[np.array(pivots)]
        # det a2^-1 = 1 / det a2, of the same quadratic character
        a2inv, _, det_invs = _reduce_blocks(a2, p)
        sgn = np.array([modp.legendre(det_t * det_inv, p) for det_t, det_inv in zip(dets, det_invs)])
        if r == 0:  # h = nbar(b1) m(a2) with T = I: beta = 0
            return WordFactors(rank=r, sgn=sgn, t=t, a2=a2, b1=-b @ a2inv % p, b2=np.zeros(a2.shape, dtype=np.int64))
        a2t = a2.transpose(0, 2, 1)
        # b2 = a2^T beta a2 with beta symmetric, its first r rows X_S a2^-1
        beta = np.zeros(t.shape, dtype=np.int64)
        beta[:, :r] = x[:, :r] @ a2inv
        beta[:, r:, :r] = beta[:, :r, r:].transpose(0, 2, 1)
        b2 = a2t @ beta @ a2 % p
        # bottom row of h nbar(-b2) = nbar(b1) m(a1) w_S m(a2), paired with
        # [a2^-1 E'; a2^T E], gives b1 a1
        q = (-b - a @ b2) @ a2inv
        q[:, :, :r] = (a @ a2t)[:, :, :r]
        b1 = (q % p) @ t % p
        return WordFactors(rank=r, sgn=sgn, t=t, a2=a2, b1=b1, b2=b2)

    def word_factors(self, g: SpElem) -> WordFactors:
        """The normal form of one element: normal_forms on a stack of one."""
        [(_, f)] = self.normal_forms([g])
        return WordFactors(rank=f.rank, sgn=int(f.sgn[0]), t=f.t[0], a2=f.a2[0], b1=f.b1[0], b2=f.b2[0])

    def _stacked(self, gs, cell, entries: int, shape: tuple) -> np.ndarray:
        """cell(f) on the stacked normal forms f of gs, one call per rank group
        of each slice of gs, put back in input order: shape (len(gs),) +
        shape.  A slice holds GATHER_CHUNK_ENTRIES // entries elements (at
        least one), entries bounding what cell gathers per element."""
        step = max(1, GATHER_CHUNK_ENTRIES // entries)
        if len(gs) <= step:
            groups = self.normal_forms(gs)
            if len(groups) == 1:  # one slice of one rank: nothing to put back
                return cell(groups[0][1])
            slices = [(0, groups)]
        else:
            # a slice's normal forms are taken when its turn comes
            slices = ((lo, self.normal_forms(gs[lo : lo + step])) for lo in range(0, len(gs), step))
        out = np.empty((len(gs),) + shape, dtype=complex)
        for lo, groups in slices:
            for pos, f in groups:
                out[lo + pos] = cell(f)
        return out

    def omega_stack(self, gs) -> np.ndarray:
        """Weil operators of a stack of elements (normal_forms), the dense
        products of their word-model normal forms: shape (len(gs), p^n, p^n),
        in input order."""
        return self._stacked(gs, self._cell_operators, self.dim**2, (self.dim, self.dim))

    def _cell_operators(self, f: WordFactors) -> np.ndarray:
        p, r, pts = self.p, f.rank, self._pts
        w, theta = self._fourier(), modp.theta_values(p)
        left, right = pts @ f.t.transpose(0, 2, 1) % p, pts @ f.a2.transpose(0, 2, 1) % p
        d1, d2 = _quadratic_phases(p, self.n, _nbar_form(np.stack([f.b1, f.b2]), p))
        # omega(h)[s, u] = sgn psi(d1(s)) F_S(t s, a2 u) psi(d2(u))
        rest = self._powers[: self.n - r]
        same = (left[..., r:] @ rest)[:, :, None] == (right[..., r:] @ rest)[:, None, :]
        fs = self._fourier_entries(left[..., :r] @ right[..., :r].transpose(0, 2, 1), r) * same
        return (w * theta[d1][:, None]) @ (f.sgn[:, None, None] * fs * theta[d2][:, None]) @ w.conj().T

    def omega_word(self, g: SpElem) -> np.ndarray:
        """Weil operator: the dense product of the word-model normal form."""
        return self.omega_stack([g])[0]

    def omega(self, g: SpElem) -> np.ndarray:
        """Weil operator: the word model, omega_word."""
        return self.omega_word(g)

    def trace_stack(self, gs) -> np.ndarray:
        """tr omega_word(g) for each g of a stack (normal_forms), from the
        normal forms without forming any operator: complex, in input order.

        tr omega(g) = tr omega(h) = sum_s sgn c_r psi(s^T Q s) over the points
        s with (t s)_S^c = (a2 s)_S^c, the only ones where F_S(t s, a2 s) is
        nonzero (_trace_support, _trace_phase).  The brute-force sum is
        regrouped by phase: one bincount N_z of the integer phases s^T Q s mod
        p, then sgn c_r sum_z N_z psi(z), a 1-D sum per element, so that a
        trace does not depend on the stack it is taken in."""
        return self._stacked(gs, self._cell_traces, self.dim * self.n, ())

    def _cell_traces(self, f: WordFactors) -> np.ndarray:
        p, k = self.p, len(f.sgn)
        # one bincount for the stack: element i's phases are offset by i p;
        # on the big cell every point is in the support
        phases = _quadratic_phases(p, self.n, _trace_phase(f, p))
        if k > 1:
            phases += np.arange(0, k * p, p)[:, None]
        if f.rank < self.n:
            off = self._pts @ _trace_support(f, p).transpose(0, 2, 1)
            off %= p
            phases = phases[~off.any(axis=-1)]
        counts = np.bincount(phases.ravel(), minlength=k * p).reshape(k, p)
        c_r, theta = _fourier_scalar(p, f.rank), modp.theta_values(p)
        return np.array([sgn * c_r * (row @ theta) for sgn, row in zip(f.sgn.tolist(), counts)])

    def trace_omega(self, g: SpElem) -> complex:
        """tr omega_word(g): trace_stack on a stack of one."""
        return complex(self.trace_stack([g])[0])

    # -- Weil operators: whole-group model ----------------------------------

    def build_group_model(self) -> None:
        """Enumerate Sp(V) and build every operator; refuses a table past
        GROUP_TABLE_CAP entries.

        An element g of order prime to p gets the unit-column Schur average
        M0, checked at the probe (_probed_average) and lifted by linear_lift.  Any other element i is omega(i j^-1)
        omega(j), j the first anchor in group order with i j^-1 of order
        prime to p: an element of order prime to p, or in Sp_2(F_3) = Q_8 x|
        <U0> the classical unipotent U0 or its square."""
        if self._group_table is not None:
            return
        grp = sym.sp_group(self.space)  # raises above the enumeration cap
        p, size, orders = self.p, len(grp.mats), grp.orders
        if size * self.dim**2 > GROUP_TABLE_CAP:
            raise WeilError("%d operators of dimension %d exceed the group table cap %d entries"
                            % (size, self.dim, GROUP_TABLE_CAP))
        coprime = np.flatnonzero(orders % p)
        # slices of the stack keep _schur_average's (k, p^2n, p^n) gathers bounded
        step = max(1, GATHER_CHUNK_ENTRIES // (p**self.space.dim * self.dim))
        m0 = np.concatenate([_probed_average(self, self, grp.mats[coprime[i : i + step]]) for i in range(0, len(coprime), step)])
        table = np.empty((size, self.dim, self.dim), dtype=complex)
        table[coprime] = linear_lift(m0, orders[coprime])
        if p == 3 and self.n == 1:
            u0 = self.from_std @ np.array([[1, 0], [1, 1]], dtype=np.int64) @ self.to_std
            anchors = grp.positions(np.stack([u0, u0 @ u0]))
            table[anchors[0]] = np.diag(modp.theta_values(3)[_quadratic_phases(3, 1, _nbar_form([[1]], 3))])
            table[anchors[1]] = table[anchors[0]] @ table[anchors[0]]
        else:
            anchors = coprime
        unanchored = orders % p == 0
        unanchored[anchors] = False
        rest = np.flatnonzero(unanchored)
        # positions of i j^-1, a slice of rows at a time: at most GATHER_CHUNK_ENTRIES matrix entries
        inv = sym.inverses(self.space, grp.mats[anchors])
        step = max(1, GATHER_CHUNK_ENTRIES // inv.size)
        quot = np.concatenate([grp.positions(grp.mats[rest[i : i + step], None] @ inv) for i in range(0, len(rest), step)])
        ok = orders[quot] % p != 0
        if not ok.any(axis=1).all():
            raise WeilError("an element of order divisible by p is no product of two anchors")
        first = ok.argmax(axis=1)
        table[rest] = table[quot[np.arange(len(rest)), first]] @ table[anchors[first]]
        table.flags.writeable = False
        self._group_table = table

    def omega_group(self, gs) -> np.ndarray:
        """Weil operators of a stack of elements (as normal_forms takes it)
        from the whole-group model, built on first use: its table rows, read
        by one positions lookup, shape (len(gs), p^n, p^n), in input order."""
        mats = self._matrices(gs)
        self.build_group_model()
        return self._group_table[sym.sp_group(self.space).positions(mats)]


def linear_lift(m0: np.ndarray, ords: np.ndarray) -> np.ndarray:
    """The Weil operators of elements of order prime to p, from intertwiners
    known up to a scalar: for each matrix M0 of the stack m0, shape
    (k, p^n, p^n), with ords[i] the order of its element, the one multiple
    c M0 with (c M0)^ord = I and det(c M0) = 1.

    omega is the unique linear lift of the projective representation (Howe
    1973), and det omega = 1: Sp_2n(F_p) is perfect for odd p, and the
    elements of Sp_2(F_3) of order prime to 3 form its derived group Q_8.
    With M0^ord = lambda I and a ord + b p^n = 1, c = lambda^-a det(M0)^-b."""
    dim = m0.shape[-1]
    lam, acc = np.empty(len(ords), dtype=complex), m0
    for e in range(1, ords.max() + 1):
        lam[ords == e] = acc[ords == e, 0, 0]
        acc = acc @ m0
    # a ord = 1 mod p^n with |a| <= p^n / 2, which keeps both exponents small
    a = np.array([(pow(int(o), -1, dim) + dim // 2) % dim - dim // 2 for o in ords])
    b = (1 - a * ords) // dim
    return m0 * (lam**-a * np.linalg.det(m0) ** -b)[:, None, None]


def _schur_average(model_a: WeilModel, model_b: WeilModel, phis: np.ndarray) -> np.ndarray:
    """For each matrix phi of the stack phis, shape (k, 2n, 2n), the Schur
    average M = |V|^-1 sum_v rho_b(phi v) E_{s0,0} rho_a(v)^-1 of a matrix
    unit, scaled to a unit column 0: shape (k, p^n, p^n).  By Schur's lemma
    M = conj(T[s0, 0]) T / p^n, T the unitary operator with
    T rho_a(h) = rho_b(phi h) T, so the result is T times a phase.

    Both rho operators are monomial, so each term is one entry: with r the
    row that rho_b(phi v) sends to column s0, and c the column of row 0 of
    rho_a(v)^-1 = rho_a(-v), term v is ph_b(r) ph_a(0) at [r, c], and the
    average is one scatter of |V| phases.  The terms with r = s0 and c = 0
    give M's entry [s0, 0] = |T[s0, 0]|^2 / p^n for every s0 at once; s0 is
    the first whose value is at least half the largest.  The nonzero entries
    of a column of T share one modulus, so the choice does not hinge on
    rounding, and M is never zero."""
    p = model_a.p
    vs = _points(p, model_a.space.dim)
    cols_a, ph_a = (x[:, 0] for x in model_a.rho_parts(-vs, np.zeros(len(vs), dtype=np.int64)))
    cols_b, ph_b = model_b.rho_parts(vs @ phis.transpose(0, 2, 1) % p, np.zeros((len(phis), len(vs)), dtype=np.int64))
    on = cols_a == 0
    fixed = cols_b[:, on] == np.arange(model_b.dim)
    diag = np.einsum("kvs,v->ks", np.where(fixed, ph_b[:, on], 0), ph_a[on]).real
    s0 = (diag >= 0.5 * diag.max(axis=1, keepdims=True)).argmax(axis=1)
    rows = (cols_b == s0[:, None, None]).argmax(axis=2)
    vals = np.take_along_axis(ph_b, rows[..., None], axis=2)[..., 0] * ph_a
    out = np.zeros((len(phis), model_b.dim, model_a.dim), dtype=complex)
    np.add.at(out, (np.arange(len(phis))[:, None], rows, cols_a), vals)
    return out / np.linalg.norm(out[..., 0], axis=-1)[..., None, None]


def schur_intertwiners(model_a: WeilModel, model_b: WeilModel, phis) -> np.ndarray:
    """For each element phi of a stack of elements of the space both models
    share (as normal_forms takes it, WeilModel._matrices), the unitary T
    with T rho_a(h) = rho_b(phi h) T, up to a phase: the Schur averages of
    one matrix unit, checked to intertwine at the probe (_probed_average),
    shape (k, p^n, p^n)."""
    if model_a.space != model_b.space:
        raise sym.SymplecticError("Schur intertwiners need two models of one space")
    return _probed_average(model_a, model_b, model_a._matrices(phis))


def schur_intertwiner(model_a: WeilModel, model_b: WeilModel, phi: SpElem) -> np.ndarray:
    """schur_intertwiners on the stack of one phi."""
    return schur_intertwiners(model_a, model_b, [phi])[0]


def _probed_average(model_a: WeilModel, model_b: WeilModel, phis: np.ndarray) -> np.ndarray:
    """_schur_average of the stack phis, checked to intertwine at the probe
    (e_1, 1): each M must have M rho_a(e_1, 1) = rho_b(phi e_1, 1) M, or no
    scaling (linear_lift's included) makes it a Weil operator."""
    out = _schur_average(model_a, model_b, phis)
    e1 = np.eye(model_a.space.dim, dtype=np.int64)[0]
    probes = model_b.rho(phis @ e1 % model_a.p, np.ones(len(phis), dtype=np.int64))
    if np.abs(out @ model_a.rho(e1, 1) - probes @ out).max() > 1e-7:
        raise WeilError("averaged operator fails to intertwine")
    return out


# ---------------------------------------------------------------------------
# Cyclic tensor traces


def _composite(maps) -> np.ndarray:
    """I_l ... I_1 I_0: the maps composed in order, I_0 applied first."""
    return functools.reduce(lambda acc, m: m @ acc, maps)


def cyclic_tensor_trace(maps: list[np.ndarray]) -> tuple[complex, complex]:
    """Both sides of the rotation-trace identity.

    maps = [I_0, ..., I_l] with I_j: W_j -> W_{j+1} (cyclically).  Returns
    (trace of the rotated operator on the tensor product, summed from its
    diagonal without forming the operator, trace of the composite
    I_l ... I_0 on W_0)."""
    ms = [np.asarray(m, dtype=complex) for m in maps]
    l = len(ms) - 1
    dims = [m.shape[1] for m in ms]
    for j, m in enumerate(ms):
        if m.shape[0] != dims[(j + 1) % (l + 1)]:
            raise WeilError("map %d has shape %r, expected to land in W_%d" % (j, m.shape, (j + 1) % (l + 1)))
    return complex(_rotation_diagonal(ms).ravel().sum()), complex(np.trace(_composite(ms)))


def _rotation_diagonal(ms: list[np.ndarray]) -> np.ndarray:
    """The diagonal of v_0 x ... x v_l -> I_l(v_l) x I_0(v_0) x ... x
    I_{l-1}(v_{l-1}), indexed by (slot 0, ..., slot l)."""
    l = len(ms) - 1
    letters = "abcdefghijkl"
    # output slot 0 takes I_l applied to input slot l; slot j+1 takes I_j on
    # slot j; each output index equals its input index
    subs = [letters[0] + letters[l]] + [letters[j + 1] + letters[j] for j in range(l)]
    return np.einsum(",".join(subs) + "->" + letters[: l + 1], ms[l], *ms[:l])


# ---------------------------------------------------------------------------
# Block twists and twisted traces


@dataclass(frozen=True, eq=False)
class TwistChain:
    """One chain of orthogonal blocks V_0 -> ... -> V_l, `length` copies of
    one block space, cyclically permuted by the twist, with the block's Weil
    model (shared by its copies).  The direct side of a twisted trace reads
    the whole chain V_0 + ... + V_l instead: its Weil model, its block-cyclic
    twist iota, and the word model's Levi sign of the bare block
    permutation."""

    loop: SpElem  # L, an element of the block space
    length: int  # the number of copies
    model: WeilModel  # the block's model, shared by its copies
    whole: WeilModel  # the model of the whole chain
    iota: SpElem  # on the whole chain: copy j -> j+1 by the identity, copy l -> 0 by L
    sign: int  # whole.word_factors(iota with the loop the identity).sgn


def block_cycle(space: SympSpace, loop: SpElem) -> SpElem:
    """The twist of one chain, space the direct sum of its copies: copy j
    goes to copy j + 1 by the identity, and the last copy back to copy 0 by
    loop."""
    blocks = space.blocks
    mat = np.zeros((space.dim, space.dim), dtype=np.int64)
    for j, src in enumerate(blocks):
        dst = blocks[(j + 1) % len(blocks)]
        mat[np.ix_(dst, src)] = loop.mat if j == len(blocks) - 1 else np.eye(len(src), dtype=np.int64)
    return sym.sp_elem(space, mat)


def block_twist(chains) -> tuple[TwistChain, ...]:
    """Build the Weil models of a cyclic block twist.

    chains: one (loop, length) pair per chain, the loop L an SpElem of the
    chain's block space.  A chain is `length` copies V_0, ..., V_l of that
    space; the twist maps V_j to V_{j+1} by the identity and closes the
    chain V_l -> V_0 by L.  Any iota permuting the blocks of a Theta-orbit
    cyclically reduces to a chain: conjugating it by the block-diagonal
    transport t = (iota^j on V_0, onto V_j) makes t^-1 iota t the identity
    from copy j to copy j+1 and L = iota^(l+1) restricted to V_0 on the
    closing step.  Every chain is checked against MODEL_DIM_CAP before
    anything is built."""
    chains = list(chains)
    if not chains or min(length for _, length in chains) < 1:
        raise WeilError("need one or more chains, each of length >= 1")
    for loop, length in chains:  # before the chain's Gram, quadratic in the length
        check_model_dim(loop.space.p, loop.space.dim // 2 * length)
    return tuple(_twist_chain(loop, length) for loop, length in chains)


def _twist_chain(loop: SpElem, length: int) -> TwistChain:
    whole = WeilModel(sym.direct_sum([loop.space] * length))
    bare = block_cycle(whole.space, sym.sp_identity(loop.space))
    return TwistChain(loop, length, WeilModel(loop.space), whole, block_cycle(whole.space, loop),
                      whole.word_factors(bare).sgn)


@dataclass(frozen=True)
class TwistedTraceResult:
    product_value: complex
    direct_value: complex


def twisted_trace(chains, parts) -> TwistedTraceResult:
    """Trace of omega(g) composed with the block-twist intertwiner, evaluated
    by the per-chain product formula and directly on each whole chain:
    twisted_trace_stack on a stack of one element g, given by its parts."""
    return twisted_trace_stack(chains, [parts])[0]


def twisted_trace_stack(chains, elements) -> list[TwistedTraceResult]:
    """twisted_trace of each element of a stack, in input order.

    chains is block_twist's tuple; each element is a list of parts, one
    SpElem of the block space per block, chain after chain and copy after
    copy.  Both values are products over the chains.  The product value's
    factor is tr omega(g_0 L g_l ... g_1) on the block, the trace at the
    chain's norm.  The direct value's is sign * tr omega(g_c iota) in the
    word model of the whole chain, g_c the chain's parts as one
    block-diagonal element.  The chain's Weil representation restricts to
    the tensor product of its blocks' (Gerardin 1977), and omega(iota)
    differs by sign, the Levi sign the word model gives the bare block
    permutation, from the rotation of the tensor factors by I, ..., I,
    omega(L); the rotation's trace against omega(g_0) x ... x omega(g_l) is
    the trace of the composite omega(L) omega(g_l) ... omega(g_0)
    (cyclic_tensor_trace), which is the norm's.  Per chain, each side is one
    trace_stack."""
    elements = [list(parts) for parts in elements]
    starts = list(itertools.accumulate((chain.length for chain in chains), initial=0))
    for parts in elements:
        if len(parts) != starts[-1]:
            raise WeilError("%d parts for %d blocks" % (len(parts), starts[-1]))
    if not elements:
        return []
    products = [1.0 + 0j] * len(elements)
    directs = [1.0 + 0j] * len(elements)
    for i, chain in enumerate(chains):
        model, p = chain.model, chain.model.p
        gss = [parts[starts[i] : starts[i + 1]] for parts in elements]
        if any(g.space != model.space for gs in gss for g in gs):
            raise WeilError("a part of chain %d is not an element of its block space" % i)
        mats = np.array([[g.mat for g in gs] for gs in gss])  # (element, copy, row, column)
        norm = mats[:, 0] @ chain.loop.mat % p
        for j in range(chain.length - 1, 0, -1):
            norm = norm @ mats[:, j] % p
        vals = model.trace_stack(norm)
        diag = np.zeros((len(gss),) + (chain.whole.space.dim,) * 2, dtype=np.int64)
        for j, idx in enumerate(chain.whole.space.blocks):  # g_c, the parts as one block-diagonal stack
            diag[(slice(None),) + np.ix_(idx, idx)] = mats[:, j]
        whole = chain.whole.trace_stack(diag @ chain.iota.mat % p)
        for e, (val, tr) in enumerate(zip(vals.tolist(), whole.tolist())):
            products[e] *= val
            directs[e] *= chain.sign * tr
    return [TwistedTraceResult(prod, direct) for prod, direct in zip(products, directs)]
