"""Explicit matrix models of Heisenberg-Weil representations: the brute-force
oracle layer.

rho is the Schrodinger model on functions on a Lagrangian; omega comes in two
independent constructions:

* a whole-group model for |Sp(V)| within the enumeration cap, built from
  Schur-averaged projective intertwiners whose scalar ambiguity is resolved by
  a commutator walk of the Cayley graph (commutators of projective operators
  are scalar-free, so on the perfect groups the walk is forced); SL_2(F_3) is
  seeded with the classical unipotent operator;
* a generator word model (lower unipotents, Levi, Weyl/Fourier with inverse
  Gauss-sum scalar) factoring arbitrary elements through the Siegel big cell
  into one normal form (W^H)^e W D1 M W D2 W^H D3 with W the unitary Fourier
  operator, D diagonal and M monomial; omega_word multiplies it out and
  trace_word takes its trace by the cyclic-trace identity, in O(p^n) work on
  the big cell and O(p^2n) at most, without forming a p^n x p^n product.

The central character is pinned to theta(z) = exp(2*pi*i*z/p).
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field as dc_field
from operator import attrgetter

import numpy as np

from . import modp, symplectic as sym
from .symplectic import HeisElem, SpElem, SympSpace

SCHUR_RETRIES = 8


class WeilError(Exception):
    pass


class NotAPolarization(WeilError):
    pass


class ZeroAverage(WeilError):
    pass


class DimensionMismatch(WeilError):
    pass


class BlockMismatch(WeilError):
    pass


class NotNormalized(WeilError):
    pass


class LinearizationFailed(WeilError):
    pass


def theta_char(p: int, z: int) -> complex:
    """The fixed central character: exp(2 pi i z / p) with z lifted to 0..p-1."""
    return cmath.exp(2j * cmath.pi * (int(z) % p) / p)


def dump_operator(m: np.ndarray) -> list:
    """Dense complex matrix as [[re, im], ...] rows for report files."""
    flat = np.asarray(m, dtype=complex).ravel()
    return [[round(float(x.real), 12), round(float(x.imag), 12)] for x in flat]


def gauss_sum(p: int) -> complex:
    return sum(theta_char(p, t * t) for t in range(p))


def _fourier_scalar(p: int, n: int) -> complex:
    # sgn(-2)^n / g1^n is forced by n(1) nbar(-1) n(1) = w once the
    # lower-unipotent operators carry scalar 1 (the -2 comes from the 1/2 in
    # the rho phase convention); |g1|^2 = p makes W unitary
    return (modp.legendre(-2, p) / gauss_sum(p)) ** n


@dataclass(frozen=True, eq=False)
class WordFactors:
    """Factors of omega(g) = (W^H)^fallback W D1 M W D2 W^H D3 in standard
    coordinates: W the unitary Fourier operator, D1, D2, D3 the diagonals of
    lower unipotents (d3 None for D3 = I), and M f(a0 s) = sgn f(s), given by
    the images a0 s of the points s (one row each) and sgn = (det a0 / p)."""

    fallback: bool
    d1: np.ndarray
    images: np.ndarray
    sgn: int
    d2: np.ndarray
    d3: np.ndarray | None


class WeilModel:
    """Schrodinger model of the Heisenberg-Weil representation of
    Sp(V) x H(V) with the fixed central character, dimension p^n.

    Internally everything is transported to standard (e, f)-coordinates by a
    symplectic basis change; rho acts on functions on the X-coordinates."""

    def __init__(self, space: SympSpace, polarization=None):
        if space.p % 2 == 0:
            raise WeilError("the Schrodinger model needs an odd prime, got p = %d" % space.p)
        self.space = space
        self.p = space.p
        self.n = space.dim // 2
        self.dim = self.p**self.n
        if polarization is not None:
            xs, ys = polarization
            self._check_polarization(xs, ys)
            basis = np.array(list(xs) + list(ys), dtype=np.int64).T
            # rescale the Y-vectors so <x_i, y_j> = delta_ij
            gramxy = np.array([[space.form(x, y) for y in ys] for x in xs], dtype=np.int64)
            fix = modp.mat_inv(gramxy, self.p)
            ys_fixed = (np.array(ys, dtype=np.int64).T @ fix).T % self.p
            basis = np.array(list(xs) + [tuple(int(v) for v in row) for row in ys_fixed], dtype=np.int64).T
            self.to_std = modp.mat_inv(basis, self.p)
        else:
            self.to_std = sym.transport_to_standard(space)
        self.from_std = modp.mat_inv(self.to_std, self.p)
        self._group_table: dict | None = None
        self._w: np.ndarray | None = None  # the Fourier operator, built on first use
        self._powers = self.p ** np.arange(self.n, dtype=np.int64)
        # all of F_p^n, shape (p^n, n), row index = encoding (little-endian digits)
        self._pts = np.indices((self.p,) * self.n).reshape(self.n, -1)[::-1].T.copy()

    def _check_polarization(self, xs, ys):
        n = self.n
        if len(xs) != n or len(ys) != n:
            raise NotAPolarization("need n vectors on each side")
        vecs = np.array(list(xs) + list(ys), dtype=np.int64)
        if modp.rank(vecs, self.p) != 2 * n:
            raise NotAPolarization("polarization vectors do not span")
        for u, v in itertools.combinations(xs, 2):
            if self.space.form(u, v):
                raise NotAPolarization("X side not isotropic")
        for u, v in itertools.combinations(ys, 2):
            if self.space.form(u, v):
                raise NotAPolarization("Y side not isotropic")
        gramxy = np.array([[self.space.form(x, y) for y in ys] for x in xs], dtype=np.int64)
        if modp.det(gramxy, self.p) == 0:
            raise NotAPolarization("X and Y are not complementary Lagrangians")

    # -- index helpers ------------------------------------------------------

    def _enc(self, t: np.ndarray) -> np.ndarray:
        return (t % self.p) @ self._powers

    # -- Heisenberg action --------------------------------------------------

    def rho(self, h: HeisElem) -> np.ndarray:
        """rho(x+y, z) f(t) = theta(z + <t,y> + <x,y>/2) f(t+x)."""
        if h.space != self.space:
            raise sym.SpaceMismatch("element from another space")
        p = self.p
        vstd = self.to_std @ np.asarray(h.v, dtype=np.int64) % p
        a, b = vstd[: self.n], vstd[self.n :]
        half = pow(2, p - 2, p)
        pts = self._pts
        phases = (int(h.z) + pts @ b + half * int(a @ b)) % p
        rows = self._enc(pts)
        cols = self._enc(pts + a)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[rows, cols] = np.exp(2j * np.pi * phases / p)
        return out

    # -- Weil operators: generator word model -------------------------------

    def _fourier(self) -> np.ndarray:
        """The unitary Fourier operator W, built once per model."""
        if self._w is None:
            self._w = self._fourier_entries(self._pts @ self._pts.T)
        return self._w

    def _fourier_entries(self, phases: np.ndarray) -> np.ndarray:
        """Entries c theta(s.t) of W from their integer phases s.t."""
        roots = _fourier_scalar(self.p, self.n) * np.exp(2j * np.pi * np.arange(self.p) / self.p)
        return np.take(roots, phases, mode="wrap")  # wrap: index s.t mod p

    def _nbar_diag(self, b: np.ndarray) -> np.ndarray:
        """Diagonal of the lower-unipotent operator nbar(b): theta(-t.b.t / 2)."""
        p = self.p
        half = pow(2, p - 2, p)
        phases = (-half * np.einsum("ti,ij,tj->t", self._pts, b, self._pts)) % p
        return np.exp(2j * np.pi * phases / p)

    def _kernel(self, d: np.ndarray) -> np.ndarray:
        """Kernel k of the convolution W diag(d) W^H: k(x) = p^-n sum_t d(t) theta(t.x)."""
        return np.fft.ifftn(d.reshape((self.p,) * self.n)).ravel()

    def _diff_index(self) -> np.ndarray:
        """(N, N) encodings of s - t, the index of a convolution kernel."""
        p, n = self.p, self.n
        step = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
        # as a (p,)*2n array the axes are the digits of s, then of t, each
        # most significant first
        out = np.zeros((p,) * (2 * n), dtype=np.int64)
        for i in range(n):
            shape = [1] * (2 * n)
            shape[n - 1 - i] = shape[2 * n - 1 - i] = p
            out += (step * self._powers[i]).reshape(shape)
        return out.reshape(self.dim, self.dim)

    def word_factors(self, g: SpElem) -> WordFactors:
        """Normal form omega(g) = (W^H)^fallback W D1 M(a0) W D2 W^H D3.

        On the Siegel big cell (C invertible) g = n(A C^-1) w m(-C) n(C^-1 D),
        and n(b) = W nbar(-b) W^H; otherwise g nbar(b0) is moved into the big
        cell (D3 = nbar(-b0)), and if no b0 is found, w g is factored instead."""
        if g.space != self.space:
            raise sym.SpaceMismatch("element from another space")
        p, n = self.p, self.n
        gstd = self.to_std @ g.mat_np @ self.from_std % p
        ident = np.eye(n, dtype=np.int64)
        zero = np.zeros((n, n), dtype=np.int64)
        for fallback in (False, True):
            if fallback:
                gstd = np.block([[zero, ident], [(-ident) % p, zero]]) @ gstd % p
            c, d = gstd[n:, :n], gstd[n:, n:]
            if modp.det(c, p) != 0:
                b0 = None
                break
            b0 = self._find_perturbation(c, d)
            if b0 is not None:
                break
        else:
            raise LinearizationFailed("no big-cell factorization found")
        d3 = None
        if b0 is not None:
            gstd = gstd @ np.block([[ident, zero], [b0, ident]]) % p
            d3 = self._nbar_diag((-b0) % p)
        a, c, d = gstd[:n, :n], gstd[n:, :n], gstd[n:, n:]
        cinv = modp.mat_inv(c, p)
        a0 = (-c) % p
        return WordFactors(
            fallback=fallback,
            d1=self._nbar_diag((-(a @ cinv)) % p),
            images=self._pts @ a0.T % p,
            sgn=modp.legendre(modp.det(a0, p), p),
            d2=self._nbar_diag((-(cinv @ d)) % p),
            d3=d3,
        )

    def omega_word(self, g: SpElem) -> np.ndarray:
        """Weil operator: the dense product of the word-model normal form."""
        f = self.word_factors(g)
        w = self._fourier()
        wh = w.conj().T
        out = ((w * f.d1)[:, self._enc(f.images)] * f.sgn) @ w
        out = (out * f.d2) @ wh
        if f.d3 is not None:
            out *= f.d3
        if f.fallback:
            out = wh @ out
        return out

    def trace_word(self, g: SpElem) -> complex:
        """tr omega_word(g) from the normal form without forming the operator.

        With K2 = W D2 W^H (a convolution with kernel k2) and M[a0 s, s] = sgn,
        the cyclic trace gives, summed over s:
          fallback: sgn d1(a0 s) k2(s - a0 s) d3(a0 s);
          otherwise sgn d1(a0 s) (K2 D3 W)[s, a0 s], which is
          d2(a0 s) W[s, a0 s] when D3 = I (K2 W = W D2)."""
        f = self.word_factors(g)
        pts, perm = self._pts, self._enc(f.images)
        if f.fallback:
            terms = self._kernel(f.d2)[self._enc(pts - f.images)]
            if f.d3 is not None:
                terms = terms * f.d3[perm]
        elif f.d3 is None:
            terms = f.d2[perm] * self._fourier_entries(np.einsum("ti,ti->t", pts, f.images))
        else:
            inner = self._kernel(f.d2)[self._diff_index()]  # K2[s, t]
            inner *= f.d3
            inner *= self._fourier_entries(f.images @ pts.T)  # W[t, a0 s], W symmetric
            terms = inner.sum(axis=1)
        return complex(f.sgn * np.dot(f.d1[perm], terms))

    def _find_perturbation(self, c: np.ndarray, d: np.ndarray) -> np.ndarray | None:
        """Symmetric B0 with C + D B0 invertible."""
        p, n = self.p, self.n
        if modp.det(d, p) != 0:
            dinv = modp.mat_inv(d, p)
            return (np.eye(n, dtype=np.int64) - dinv @ c) % p
        for diag in itertools.product(range(p), repeat=n):
            b0 = np.diag(np.array(diag, dtype=np.int64))
            if modp.det((c + d @ b0) % p, p) != 0:
                return b0
        count = 0
        for entries in itertools.product(range(p), repeat=n * (n + 1) // 2):
            b0 = np.zeros((n, n), dtype=np.int64)
            k = 0
            for i in range(n):
                for j in range(i, n):
                    b0[i, j] = b0[j, i] = entries[k]
                    k += 1
            if modp.det((c + d @ b0) % p, p) != 0:
                return b0
            count += 1
            if count > 20000:
                break
        return None

    # -- Weil operators: whole-group model ----------------------------------

    def build_group_model(self) -> None:
        """Enumerate Sp(V) and resolve all operators; cap-guarded."""
        if self._group_table is not None:
            return
        elements = sym.sp_elements(self.space)  # raises above the cap
        gens = sym.sp_generators(self.space)
        ball = _schur_ball([sym.sp_identity(self.space)] + gens + [g.inverse() for g in gens])
        ms = {b.mat: _unitary_normalize(schur_intertwiner(self, self, b, check=False)) for b in ball}
        pool: dict = {}
        for x, y in itertools.product(ball, repeat=2):
            c = x * y * x.inverse() * y.inverse()
            if c.mat not in pool and c.order() > 1:
                mx, my = ms[x.mat], ms[y.mat]
                pool[c.mat] = (c, mx @ my @ np.linalg.inv(mx) @ np.linalg.inv(my))
        if self.p == 3 and self.n == 1:
            # SL_2(F_3) is not perfect; seed the order-3 cosets with the
            # classical unipotent operator (generator-model convention)
            u0_std = np.array([[1, 0], [1, 1]], dtype=np.int64)
            u0 = sym.sp_elem(self.space, self.from_std @ u0_std @ self.to_std % 3)
            pool[u0.mat] = (u0, np.diag(self._nbar_diag(np.array([[1]], dtype=np.int64))))
        table = {sym.sp_identity(self.space).mat: np.eye(self.dim, dtype=complex)}
        frontier = [sym.sp_identity(self.space)]
        while frontier:
            nxt = []
            for x in frontier:
                mx = table[x.mat]
                for c, kc in pool.values():
                    y = x * c
                    if y.mat not in table:
                        table[y.mat] = mx @ kc
                        nxt.append(y)
            frontier = nxt
        if len(table) != len(elements):
            raise LinearizationFailed(
                "commutator walk covered %d of %d elements" % (len(table), len(elements))
            )
        self._group_table = table

    def omega_group(self, g: SpElem) -> np.ndarray:
        self.build_group_model()
        return self._group_table[g.mat]

    def omega(self, g: SpElem) -> np.ndarray:
        """Weil operator: group model when already built, else word model."""
        if self._group_table is not None and g.mat in self._group_table:
            return self._group_table[g.mat]
        return self.omega_word(g)

    def trace_omega(self, g: SpElem) -> complex:
        """Trace of omega(g): from the group model when built, else trace_word."""
        if self._group_table is not None and g.mat in self._group_table:
            return complex(np.trace(self.omega(g)))
        return self.trace_word(g)


def _schur_ball(seeds) -> list[SpElem]:
    """The seeds and their pairwise products, stopping once more than 40
    elements are collected; products are taken in matrix order so that the
    ball depends on the set of seeds only, not on their order or hashes."""
    ball = set(seeds)
    for g, h in itertools.product(sorted(ball, key=attrgetter("mat")), repeat=2):
        if len(ball) > 40:
            break
        ball.add(g * h)
    return sorted(ball, key=attrgetter("mat"))


def _unitary_normalize(m: np.ndarray) -> np.ndarray:
    gram = m.conj().T @ m
    scale = np.sqrt(abs(gram[0, 0]))
    if scale < 1e-12:
        raise ZeroAverage("cannot normalize a null operator")
    return m / scale


def _phase_normalize(m: np.ndarray) -> np.ndarray:
    flat = np.abs(m).ravel()
    top = flat.max()
    idx = int(np.argmax(flat > 0.5 * top))
    val = m.ravel()[idx]
    return m * (abs(val) / val)


def schur_intertwiner(model_a: WeilModel, model_b: WeilModel, phi, seed: int = 0, check: bool = True) -> np.ndarray:
    """Nonzero T with T rho_a(h) = rho_b(phi h) T, by averaging
    rho_b(phi h) A0 rho_a(h)^{-1} over H(V_a)/center; unitary- and
    phase-normalized, deterministic for a fixed seed.

    phi: an SpElem of the common space, or a raw matrix mapping a-coordinates
    to b-coordinates preserving the forms."""
    if isinstance(phi, SpElem):
        phi_mat = phi.mat_np
    else:
        phi_mat = np.asarray(phi, dtype=np.int64)
    p = model_a.p
    if model_b.p != p:
        raise WeilError("mixed characteristics")
    ga = model_a.space.gram_mat
    gb = model_b.space.gram_mat
    if ((phi_mat.T @ gb @ phi_mat - ga) % p).any():
        raise WeilError("phi does not preserve the symplectic forms")
    dim_v = model_a.space.dim
    for attempt in range(SCHUR_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        a0 = rng.standard_normal((model_b.dim, model_a.dim)) + 1j * rng.standard_normal((model_b.dim, model_a.dim))
        acc = np.zeros_like(a0)
        for v in itertools.product(range(p), repeat=dim_v):
            hv = HeisElem(model_a.space, v, 0)
            bv = HeisElem(model_b.space, tuple(int(x) for x in phi_mat @ np.array(v) % p), 0)
            acc += model_b.rho(bv) @ a0 @ model_a.rho(hv.inverse())
        acc /= p**dim_v
        if np.abs(acc).max() > 1e-9:
            out = _phase_normalize(_unitary_normalize(acc))
            if check:
                probe = HeisElem(model_a.space, (1,) + (0,) * (dim_v - 1), 1)
                probe_b = HeisElem(model_b.space, tuple(int(x) for x in phi_mat @ np.array(probe.v) % p), probe.z)
                err = np.abs(out @ model_a.rho(probe) - model_b.rho(probe_b) @ out).max()
                if err > 1e-7:
                    raise WeilError("averaged operator fails to intertwine")
            return out
    raise ZeroAverage("Schur average vanished for %d seeds" % SCHUR_RETRIES)


# ---------------------------------------------------------------------------
# Cyclic tensor traces


def cyclic_tensor_trace(maps: list[np.ndarray]) -> tuple[complex, complex]:
    """Both sides of the rotation-trace identity.

    maps = [I_0, ..., I_l] with I_j: W_j -> W_{j+1} (cyclically).  Returns
    (trace of the rotated big operator on the tensor product, trace of the
    composite I_l ... I_0 on W_0)."""
    ms = [np.asarray(m, dtype=complex) for m in maps]
    l = len(ms) - 1
    dims = [m.shape[1] for m in ms]
    for j, m in enumerate(ms):
        if m.shape[0] != dims[(j + 1) % (l + 1)]:
            raise DimensionMismatch("map %d has shape %r, expected to land in W_%d" % (j, m.shape, (j + 1) % (l + 1)))
    big = _rotation_big_op(ms)
    composite = ms[0]
    for m in ms[1:]:
        composite = m @ composite
    return complex(np.trace(big)), complex(np.trace(composite))


def _rotation_big_op(ms: list[np.ndarray]) -> np.ndarray:
    """Matrix of v_0 x ... x v_l -> I_l(v_l) x I_0(v_0) x ... x I_{l-1}(v_{l-1})."""
    l = len(ms) - 1
    letters = "abcdefghijkl"
    caps = "ABCDEFGHIJKL"
    # output slot 0 takes I_l applied to input slot l; slot j+1 takes I_j on slot j
    operands = [ms[l]] + ms[:l]
    subs = [letters[0] + caps[l]] + [letters[j + 1] + caps[j] for j in range(l)]
    out = "".join(letters[: l + 1]) + "".join(caps[: l + 1])
    arr = np.einsum(",".join(subs) + "->" + out, *operands)
    n = int(np.prod([m.shape[1] for m in ms]))
    return arr.reshape(n, n)


# ---------------------------------------------------------------------------
# Block twists and twisted traces


@dataclass
class BlockTwist:
    """Orthogonal blocks V^i_j cyclically permuted by a symplectic iota, with
    per-block models and intertwiners normalized so each group's composite
    equals the block Weil operator of iota^(l_i+1)."""

    space: SympSpace
    groups: tuple[tuple[int, ...], ...]  # tuples of block indices into space.blocks
    iota: SpElem
    models: dict = dc_field(default_factory=dict)  # block index -> WeilModel
    inters: dict = dc_field(default_factory=dict)  # (i, j) -> matrix W_j -> W_{j+1}

    def group_blocks(self, i: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.space.blocks[b] for b in self.groups[i])

    def composite(self, i: int) -> np.ndarray:
        blocks = self.groups[i]
        out = self.inters[(i, 0)]
        for j in range(1, len(blocks)):
            out = self.inters[(i, j)] @ out
        return out

    def redistribute(self, i: int, phases: list[complex]) -> None:
        """Rescale the individual intertwiners of group i by unit scalars with
        product 1 (composite unchanged); for distribution-invariance tests."""
        blocks = self.groups[i]
        prod = np.prod(phases)
        if abs(prod - 1) > 1e-9 or len(phases) != len(blocks):
            raise NotNormalized("phases must multiply to 1, one per factor")
        for j, ph in enumerate(phases):
            self.inters[(i, j)] = self.inters[(i, j)] * ph


def _restrict(mat: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...], p: int) -> np.ndarray:
    return mat[np.ix_(rows, cols)] % p


def block_twist(space: SympSpace, groups, iota: SpElem, seed: int = 0) -> BlockTwist:
    """Build models and normalized intertwiners for a cyclic block twist."""
    if space.blocks is None:
        raise BlockMismatch("space carries no block structure")
    groups = tuple(tuple(g) for g in groups)
    used = sorted(b for g in groups for b in g)
    if used != list(range(len(space.blocks))):
        raise BlockMismatch("groups must partition the blocks")
    p = space.p
    bt = BlockTwist(space, groups, iota)
    imat = iota.mat_np
    for i, grp in enumerate(groups):
        li = len(grp) - 1
        for j, b in enumerate(grp):
            idx = space.blocks[b]
            nxt = space.blocks[grp[(j + 1) % (li + 1)]]
            # iota must carry block (i, j) onto block (i, j+1)
            other = [r for r in range(space.dim) if r not in nxt]
            if (imat[np.ix_(other, idx)] % p).any():
                raise BlockMismatch("iota does not map block (%d,%d) into its successor" % (i, j))
            if b not in bt.models:
                bt.models[b] = WeilModel(space.sub_block(idx))
        for j, b in enumerate(grp):
            idx = space.blocks[b]
            nxt_b = grp[(j + 1) % (li + 1)]
            nxt = space.blocks[nxt_b]
            phi = _restrict(imat, nxt, idx, p)
            bt.inters[(i, j)] = schur_intertwiner(bt.models[b], bt.models[nxt_b], phi, seed=seed + 37 * (i + 5 * j))
        # normalize: composite = omega_{block (i,0)}(iota^(l_i+1) restricted)
        b0 = grp[0]
        idx0 = space.blocks[b0]
        ipow = modp.mat_pow(imat, li + 1, p)
        loop = sym.sp_elem(bt.models[b0].space, _restrict(ipow, idx0, idx0, p))
        target = bt.models[b0].omega(loop)
        comp = bt.composite(i)
        ratio = target @ np.linalg.inv(comp)
        off = np.abs(ratio - ratio[0, 0] * np.eye(ratio.shape[0])).max()
        if off > 1e-7:
            raise NotNormalized("composite is not a scalar multiple of the block Weil operator")
        scalar = complex(ratio[0, 0])
        root = scalar ** (1.0 / (li + 1))
        for j in range(li + 1):
            bt.inters[(i, j)] = bt.inters[(i, j)] * root
    return bt


@dataclass(frozen=True)
class TwistedTraceResult:
    product_value: complex
    direct_value: complex


def twisted_trace(bt: BlockTwist, g: SpElem) -> TwistedTraceResult:
    """Trace of omega(g) composed with the block-twist intertwiner, evaluated
    by the per-group product formula and by the direct full-tensor trace."""
    p = bt.space.p
    gmat = g.mat_np
    # g must preserve every block
    for idx in bt.space.blocks:
        other = [r for r in range(bt.space.dim) if r not in idx]
        if (gmat[np.ix_(other, idx)] % p).any():
            raise BlockMismatch("element does not preserve the blocks")

    product_value = 1.0 + 0j
    direct_value = 1.0 + 0j
    imat = bt.iota.mat_np
    for i, grp in enumerate(bt.groups):
        li = len(grp) - 1
        idx0 = bt.space.blocks[grp[0]]
        # argument g_0 . iota_*(g_l) . iota_*^2(g_{l-1}) ... iota_*^l(g_1) on block 0
        arg = _restrict(gmat, idx0, idx0, p)
        for k in range(1, li + 1):
            jblk = li + 1 - k
            idxj = bt.space.blocks[grp[jblk]]
            gj = _restrict(gmat, idxj, idxj, p)
            ik = modp.mat_pow(imat, k, p)
            fwd = _restrict(ik, idx0, idxj, p)  # iota^k: block j -> block 0
            back = modp.mat_inv(fwd, p)
            arg = arg @ (fwd @ gj @ back % p) % p
        m0 = bt.models[grp[0]]
        val = np.trace(m0.omega(sym.sp_elem(m0.space, arg)) @ bt.composite(i))
        product_value *= complex(val)

        # direct: [tensor of omega_j(g_j)] composed with the rotation big op
        macs = []
        for j, b in enumerate(grp):
            idx = bt.space.blocks[b]
            gj = _restrict(gmat, idx, idx, p)
            mj = bt.models[b]
            macs.append(mj.omega(sym.sp_elem(mj.space, gj)))
        rot = _rotation_big_op([bt.inters[(i, j)] for j in range(li + 1)])
        tensor_g = macs[0]
        for mjop in macs[1:]:
            tensor_g = np.kron(tensor_g, mjop)
        direct_value *= complex(np.trace(tensor_g @ rot))
    return TwistedTraceResult(product_value, direct_value)
