"""Sign formulas for twisted blocks: orbit combinatorics of roots under
Galois x {+-1} x twist actions, block construction of the twisted symplectic
spaces, the case-by-case closed-form signs, the torus-finding algorithm for
the unramified branches, and the assembled product formulas.

Scenario conventions: Gamma is cyclic with a designated generator acting as
arithmetic Frobenius x -> x^p on residue fields; residue degrees are scenario
inputs validated for coherence with the orbit combinatorics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from . import ffield, gerardin, modp, symplectic as sym
from .ffield import FieldDesc, FieldElem

BRANCHES = ("asym/asym", "asym/sym-ur", "asym/sym-ram", "sym-ur/sym-ur", "sym-ur/sym-ram")
# the most roots an OrbitAction takes (E8 has 240); its orbit records grow
# faster than size^2 (2.6 s at 1,000 roots, 0.17-0.31 s at 256, 2-vCPU VM)
ACTION_ROOT_CAP = 256
# families (action, root, fields, C, classification) family_target keeps;
# sign_sweep((3, 5, 7), 4, eta_cap, 2) meets 88, the registry 10
FAMILY_CACHE_SIZE = 1024


class SignCalcError(Exception):
    pass


class FormDegenerate(SignCalcError):
    pass


# ---------------------------------------------------------------------------
# Orbit actions


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def _cycle(perm: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The orbit of a under the powers of perm, starting at a."""
    out = [a]
    cur = perm[a]
    while cur != a:
        out.append(cur)
        cur = perm[cur]
    return tuple(out)


@dataclass(frozen=True)
class RootOrbit:
    """What an OrbitAction knows about one root alpha, computed once."""

    gamma: tuple[int, ...]  # the Gamma-orbit, frobenius^j(alpha) at j; its length is [F_alpha : F]
    theta: tuple[int, ...]  # the Theta-orbit, theta^j(alpha) at j; its length is l_alpha
    sigma: frozenset  # the Sigma-orbit: gamma and its negation
    cluster: frozenset  # the <Sigma, Theta>-orbit: the Sigma-orbits along theta
    symmetric: bool  # -alpha lies in gamma
    m: int  # the least m >= 1 with theta^m(alpha) in sigma
    # asymmetric alpha: +1 if theta^m(alpha) lies in gamma, -1 if in the
    # negated orbit (then alpha_res is symmetric); None for symmetric alpha
    branch_sign: int | None
    sigma_exp: int  # frobenius^sigma_exp(alpha) = sigma_alpha(alpha) = (-)^branch theta^m(alpha)
    tau_exp: int | None  # frobenius^tau_exp(alpha) = -alpha; None for asymmetric alpha
    # F-level degrees from stabilizer indices
    deg_pm_alpha: int
    deg_res: int
    deg_pm_res: int


@dataclass(frozen=True)
class OrbitAction:
    """Abstract roots with commuting actions: cyclic Galois group generated by
    `frobenius`, fixed-point-free negation, and a finite-order twist.

    `roots[a]` is the RootOrbit of root a, computed once on construction;
    the hash, which family_target's cache keys read, is computed once."""

    size: int
    frobenius: tuple[int, ...]
    neg: tuple[int, ...]
    theta: tuple[int, ...]
    theta_order: int = field(init=False, repr=False, compare=False, hash=False)
    roots: tuple[RootOrbit, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        n = self.size
        for name in ("frobenius", "neg", "theta"):
            perm = getattr(self, name)
            # the length first: sorted and range would be as long as size
            if len(perm) != n or not all(isinstance(x, int) and not isinstance(x, bool) for x in perm) or sorted(perm) != list(range(n)):
                raise SignCalcError("%s is not a permutation of 0..%d" % (name, n - 1))
        if n > ACTION_ROOT_CAP:
            raise SignCalcError("%d roots exceed the action cap %d" % (n, ACTION_ROOT_CAP))
        if _perm_mul(self.neg, self.neg) != tuple(range(n)):
            raise SignCalcError("neg is not an involution")
        if any(self.neg[i] == i for i in range(n)):
            raise SignCalcError("neg has a fixed point")
        for a, b in itertools.combinations((self.frobenius, self.neg, self.theta), 2):
            if _perm_mul(a, b) != _perm_mul(b, a):
                raise SignCalcError("actions do not commute")
        gammas = [_cycle(self.frobenius, a) for a in range(n)]
        thetas = [_cycle(self.theta, a) for a in range(n)]
        sigmas = [frozenset(g) | frozenset(self.neg[x] for x in g) for g in gammas]
        symmetric = [self.neg[a] in gammas[a] for a in range(n)]
        for a in range(n):
            if symmetric[self.theta[a]] != symmetric[a]:
                raise SignCalcError("theta does not preserve the symmetry partition")
        object.__setattr__(self, "theta_order", math.lcm(*map(len, thetas)))
        object.__setattr__(self, "roots", tuple(
            self._root_orbit(a, gammas[a], thetas[a], sigmas, symmetric[a]) for a in range(n)))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.size, self.frobenius, self.neg, self.theta))

    def _root_orbit(self, a: int, gamma: tuple[int, ...], theta: tuple[int, ...], sigmas: list[frozenset], symmetric: bool) -> RootOrbit:
        neg, sigma = self.neg, sigmas[a]
        # m: the first theta^m(a) back in the Sigma-orbit (theta^l(a) = a is)
        m = next(j for j in range(1, len(theta) + 1) if theta[j % len(theta)] in sigma)
        target = theta[m % len(theta)]
        # sigma_alpha carries a to (-)^branch theta^m(a); the branch sign is
        # +1 if theta^m(a) lands in the Gamma-orbit, -1 if in the negated one.
        # Either way goal lies in gamma: neg commutes with frobenius, and on a
        # symmetric root the Sigma-orbit is gamma itself.
        if symmetric:
            branch_sign, goal = None, target
        elif target in gamma:
            branch_sign, goal = 1, target
        else:
            branch_sign, goal = -1, neg[target]
        theta_set = frozenset(theta)
        return RootOrbit(
            gamma=gamma,
            theta=theta,
            sigma=sigma,
            cluster=frozenset().union(*(sigmas[b] for b in theta)),
            symmetric=symmetric,
            m=m,
            branch_sign=branch_sign,
            sigma_exp=gamma.index(goal),
            tau_exp=gamma.index(neg[a]) if symmetric else None,
            deg_pm_alpha=len({frozenset((x, neg[x])) for x in gamma}),
            deg_res=self._translates(theta_set),
            deg_pm_res=self._translates(theta_set | frozenset(neg[x] for x in theta)),
        )

    def _translates(self, roots: frozenset) -> int:
        """How many distinct sets frobenius^j(roots) there are."""
        seen = set()
        while roots not in seen:
            seen.add(roots)
            roots = frozenset(self.frobenius[x] for x in roots)
        return len(seen)


def one_orbit_action(d: int, symmetric: bool, shift: int = 0, neg: bool = False) -> OrbitAction:
    """Gamma = Z/d acting freely on one Sigma-orbit, with twist
    theta = neg^[neg] gamma^shift.  Asymmetric: 2d roots, gamma^i(alpha) at i
    and -gamma^i(alpha) at d + i.  Symmetric (d even): d roots gamma^i(alpha)
    at i, with gamma^(d/2) = neg."""
    if symmetric:
        if d % 2:
            raise SignCalcError("a symmetric orbit needs even d, got %d" % d)
        n = d
        frob = tuple((i + 1) % d for i in range(d))
        negp = tuple((i + d // 2) % d for i in range(d))
    else:
        n = 2 * d
        frob = tuple(d * (i // d) + (i + 1) % d for i in range(n))
        negp = tuple((i + d) % n for i in range(n))
    theta = tuple(_cycle(frob, i)[shift % d] for i in range(n))
    if neg:
        theta = _perm_mul(negp, theta)
    return OrbitAction(n, frob, negp, theta)


def orbit_branch(action: OrbitAction, a: int, d_alpha: int, d_res: int, d_pm_res: int) -> str:
    """The branch of the orbit of a whose fields k_alpha, k_res, k_pm_res have
    degrees d_alpha, d_res, d_pm_res.  Symmetric a: alpha_res is unramified
    iff f = [k_alpha : k_res] is odd.  Asymmetric a: alpha_res is asymmetric
    on the +1 branch; on the -1 branch it is symmetric, unramified iff
    [k_alpha : k_pm_res] is even."""
    root = action.roots[a]
    if root.symmetric:
        return "sym-ur/sym-ur" if (d_alpha // d_res) % 2 else "sym-ur/sym-ram"
    if root.branch_sign == 1:
        return "asym/asym"
    return "asym/sym-ur" if (d_alpha // d_pm_res) % 2 == 0 else "asym/sym-ram"


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class OrbitScenario:
    """One Sigma x Theta orbit with residue-field tags and twist data.

    eta_alpha / eta_minus_alpha are the matrix entries of the twist in the
    fixed basis vectors; for symmetric alpha only eta_alpha is used."""

    action: OrbitAction
    alpha: int
    k_alpha: FieldDesc
    k_pm_alpha: FieldDesc
    k_res: FieldDesc
    k_pm_res: FieldDesc
    C: FieldElem
    eta_alpha: FieldElem
    eta_minus_alpha: FieldElem | None
    classification: str

    def __post_init__(self):
        validate_scenario(self)

    # -- derived combinatorics ---------------------------------------------

    @property
    def p(self) -> int:
        return self.k_alpha.p

    @property
    def root(self) -> RootOrbit:
        return self.action.roots[self.alpha]

    @property
    def f(self) -> int:
        return self.k_alpha.degree // self.k_res.degree

    @property
    def g(self) -> int:
        return self.k_pm_res.degree

    @property
    def sym_alpha(self) -> bool:
        return self.root.symmetric

    @property
    def varsigma_exp(self) -> int:
        """Residue exponent of varsigma_alpha = sigma_alpha^{-1} on k_alpha."""
        return (-self.root.sigma_exp) % self.k_alpha.degree

    @property
    def tau_exp(self) -> int:
        """Residue exponent of tau_alpha, the element of Gamma carrying alpha to -alpha."""
        tau = self.root.tau_exp
        if tau is None:
            raise SignCalcError("tau_alpha only exists for symmetric roots")
        return tau % self.k_alpha.degree

    def varsigma(self, x: FieldElem) -> FieldElem:
        return x.frobenius(self.varsigma_exp)

    def tau(self, x: FieldElem) -> FieldElem:
        return x.frobenius(self.tau_exp)


def validate_scenario(sc: OrbitScenario) -> None:
    """Refuse a scenario that does not describe its orbit: the root index and
    the classification, then family_target's checks of the rest but the
    twist, then the twist against its target.  The first two run here, so
    an unhashable alpha or classification is refused before the cache."""
    act, a = sc.action, sc.alpha
    if not isinstance(a, int) or not 0 <= a < act.size:
        raise SignCalcError("alpha = %r is not a root index 0..%d" % (a, act.size - 1))
    if sc.classification not in BRANCHES:
        raise SignCalcError("unknown classification %r" % (sc.classification,))
    _check_eta(sc, family_target(act, a, sc.k_alpha, sc.k_pm_alpha, sc.k_res, sc.k_pm_res, sc.C, sc.classification))


@lru_cache(maxsize=FAMILY_CACHE_SIZE, typed=True)
def family_target(act: OrbitAction, a: int, k_alpha: FieldDesc, k_pm_alpha: FieldDesc, k_res: FieldDesc,
                  k_pm_res: FieldDesc, C: FieldElem, classification: str) -> FieldElem:
    """A scenario's checks but the root index and classification
    (validate_scenario's) and the twist (_check_eta's), run once per family:
    the field tower against the stabilizer indices, sigma_alpha's fixed
    field, the branch and C.  Returns the family's eta target,
    eta_target(root, C).  Cached (typed, so a constant and an element are
    different keys); a refusal raises and is not cached."""
    root = act.roots[a]
    p = k_alpha.p
    for fdesc in (k_pm_alpha, k_res, k_pm_res):
        if fdesc.p != p:
            raise SignCalcError("mixed characteristics in the field tags")
    d_a, d_pm, d_r, d_pr = (k_alpha.degree, k_pm_alpha.degree, k_res.degree, k_pm_res.degree)
    if d_a % d_r or d_r % d_pr or d_a % d_pm:
        raise SignCalcError("field degrees do not form a tower")
    # residue degrees divide the F-level stabilizer indices
    if len(root.gamma) % d_a or root.deg_res % d_r or root.deg_pm_res % d_pr:
        raise SignCalcError("residue degrees incompatible with stabilizer indices")
    f = d_a // d_r
    if f % p == 0:
        raise SignCalcError("f_alpha must be coprime to p")
    if act.theta_order % p == 0:
        raise SignCalcError("the twist order must be coprime to p")

    sym_a = root.symmetric
    # the residue image of sigma_alpha must generate the right Galois group:
    # its fixed field inside k_alpha is k_res (sym or asym-res) or k_pm_res
    j_res = root.sigma_exp % d_a
    fixed_deg = math.gcd(j_res, d_a) if j_res else d_a
    want_fixed = d_r if (sym_a or root.branch_sign == 1) else d_pr
    if fixed_deg != want_fixed:
        raise SignCalcError(
            "sigma_alpha fixes GF(p^%d) on the residue level, expected GF(p^%d)" % (fixed_deg, want_fixed)
        )
    branch = orbit_branch(act, a, d_a, d_r, d_pr)
    if classification != branch:
        raise SignCalcError("the orbit of alpha is %s; classification says %r" % (branch, classification))
    if C.parent != k_alpha or C.is_zero():
        raise SignCalcError("C must be a unit of k_alpha")
    if sym_a:
        if d_pm * 2 != d_a:
            # symmetric ramified alpha: k_alpha = k_pm_alpha, excluded
            raise FormDegenerate("symmetric ramified alpha admits no antisymmetric C")
        tau_exp = root.tau_exp % d_a
        if tau_exp != d_a // 2:
            raise SignCalcError("tau does not act as the order-2 residue automorphism")
        if C.frobenius(tau_exp) != -C:
            raise FormDegenerate("C is not tau-antiinvariant")
    elif d_pm != d_a:
        raise SignCalcError("asymmetric alpha needs k_alpha = k_pm_alpha")
    # [k_res : k_pm_res] is 2 on an unramified symmetric restricted root, else 1
    if d_r != (2 * d_pr if branch.endswith("sym-ur") else d_pr):
        raise SignCalcError("[k_res : k_pm_res] = %d does not fit a %s restricted root" % (d_r // d_pr, branch.split("/")[1]))
    return eta_target(root, C)


def _check_eta(sc: OrbitScenario, target: FieldElem) -> None:
    """The twist's checks: units of k_alpha whose product (eta_alpha
    tau(eta_alpha) on a symmetric root) is the family's eta target."""
    k, eta, root = sc.k_alpha, sc.eta_alpha, sc.action.roots[sc.alpha]
    if root.symmetric:
        if eta.parent != k or eta.is_zero():
            raise SignCalcError("eta_alpha must be a unit of k_alpha")
        if eta * eta.frobenius(root.tau_exp) != target:
            raise FormDegenerate("eta_alpha tau(eta_alpha) != varsigma(C)/C")
        return
    eta_minus = sc.eta_minus_alpha
    if eta_minus is None:
        raise SignCalcError("asymmetric alpha needs eta_minus_alpha")
    for e in (eta, eta_minus):
        if e.parent != k or e.is_zero():
            raise SignCalcError("eta values must be units of k_alpha")
    if eta * eta_minus != target:
        raise FormDegenerate("eta_alpha eta_minus_alpha violates form preservation")


def eta_target(root: RootOrbit, C: FieldElem) -> FieldElem:
    """What the form constraint asks of the twist on root's block with the
    form constant C, an element of k_alpha: eta_alpha tau(eta_alpha)
    (symmetric root) or eta_alpha eta_minus_alpha (asymmetric) must be
    varsigma(C)/C, negated on the -1 branch."""
    ratio = C.frobenius(-root.sigma_exp) / C
    return -ratio if root.branch_sign == -1 else ratio


# ---------------------------------------------------------------------------
# Block construction


@dataclass(frozen=True)
class BlockBuild:
    space: sym.SympSpace
    op: sym.SpElem
    scenario: OrbitScenario


def build_block(sc: OrbitScenario) -> BlockBuild:
    """The symplectic block V_{Sigma alpha}: the field block of k_alpha with
    the form Tr(C x tau(y)) (symmetric alpha) or Tr(C (x+ y- - x- y+)), and
    the twist eta o varsigma on each line in the plus/minus layout of the
    branch sign."""
    k = sc.k_alpha
    space = sym.field_block(k, sc.C, sc.tau_exp if sc.sym_alpha else None)
    etas = (sc.eta_alpha,) if sc.sym_alpha else (sc.eta_alpha, sc.eta_minus_alpha)
    mat = sym.plus_minus(*(sym.twist_matrix(eta, sc.varsigma_exp) for eta in etas), sign=sc.root.branch_sign)
    return BlockBuild(space, sym.sp_elem(space, mat), sc)


def fixed_space_dim(sc: OrbitScenario) -> int:
    """dim V^g of the block's twist g, in closed form, without building the
    block (ffield.twisted_fixed_dim, e = varsigma_exp): eta_alpha varsigma
    on a symmetric block; eta_alpha varsigma and eta_-alpha varsigma on the
    two lines of the +1 branch; on the -1 branch, whose lines g swaps, a
    fixed (x+, x-) has x- = eta_-alpha varsigma(x+) and x+ fixed by g^2 =
    eta_alpha varsigma(eta_-alpha) varsigma^2."""
    e = sc.varsigma_exp
    if sc.sym_alpha:
        return ffield.twisted_fixed_dim(sc.eta_alpha, e)
    if sc.root.branch_sign == 1:
        return ffield.twisted_fixed_dim(sc.eta_alpha, e) + ffield.twisted_fixed_dim(sc.eta_minus_alpha, e)
    return ffield.twisted_fixed_dim(sc.eta_alpha * sc.varsigma(sc.eta_minus_alpha), 2 * e)


def s_action_matrix(bb: BlockBuild, value: FieldElem) -> sym.SpElem:
    """The toral element [s] on the built block: multiplication by
    bar-alpha(s) on the plus line (inverse on the minus line for asymmetric
    blocks)."""
    return sym.sp_elem(bb.space, sym.toral_matrix(_s_value(bb.scenario, value), bb.scenario.sym_alpha))


def _s_value(sc: OrbitScenario, value: FieldElem) -> FieldElem:
    """value, refused on a symmetric block unless it is norm-one."""
    if sc.sym_alpha and value * sc.tau(value) != 1:
        raise SignCalcError("symmetric s-value must be norm-one")
    return value


# ---------------------------------------------------------------------------
# Torus algorithm for the unramified branches


@dataclass(frozen=True)
class TorusPieces:
    pieces: tuple[sym.TorusPiece, ...]
    trace: tuple[str, ...]  # case tags along the recursion


def _galois_pieces(b: FieldElem, f: int, k_res: FieldDesc, ambient: FieldDesc, symmetric: bool) -> list[sym.TorusPiece]:
    """Factor X^f - b over k_res inside the ambient field: one piece per
    Galois orbit of roots, tagged symmetric or asymmetric."""
    roots = ffield.nth_roots(ffield.embed(b, ambient), f)
    if len(roots) != f:
        raise SignCalcError(
            "X^%d - %r has %d roots in %r; the root lemma is violated" % (f, b, len(roots), ambient)
        )
    seen: set[FieldElem] = set()
    pieces = []
    q_res = k_res.order
    for r in roots:
        if r in seen:
            continue
        orbit = [r]
        cur = r**q_res
        while cur != r:
            orbit.append(cur)
            cur = cur**q_res
        seen.update(orbit)
        pieces.append(sym.TorusPiece(len(orbit) * k_res.degree, r, symmetric))
    return pieces


def torus_algorithm(beta: FieldElem, f: int, branch: str, ambient: FieldDesc) -> TorusPieces:
    """Factor fields and roots realizing the eigenvalue multiset of the twist.

    branch "asym": beta is a square root of the norm delta; handles the pair
    {beta, -beta} with the norm-case split and the even-f halving recursion.
    branch "sym": single polynomial X^f - beta, all pieces symmetric (f odd).
    The roots are looked for in `ambient`, a field that holds them all.
    """
    k_res = beta.parent
    if f % k_res.p == 0:
        raise SignCalcError("f must be coprime to p")
    if branch == "sym":
        if f % 2 == 0:
            raise SignCalcError("symmetric branch needs odd f")
        sub = ffield.field(k_res.p, k_res.degree // 2)
        if ffield.norm_to(beta, sub) != 1:
            raise SignCalcError("beta is not norm-one over k_pm_res")
        pieces = _galois_pieces(beta, f, k_res, ambient, True)
        return TorusPieces(tuple(pieces), ("sym",))
    if branch != "asym":
        raise SignCalcError("unknown branch %r" % (branch,))
    sub = ffield.field(k_res.p, k_res.degree // 2)
    nr = ffield.norm_to(beta, sub)
    if nr != 1 and nr != -1:
        raise SignCalcError("Nr(beta) must be +-1 in the asym branch")
    pieces, trace = _asym_pm_pieces(beta, f, k_res, sub, ambient)
    return TorusPieces(tuple(pieces), tuple(trace))


def _inverse_closed(b: FieldElem, sub: FieldDesc) -> bool:
    """Nr(b) = -1: the pair Gal{b}^{1/f}, Gal{-b}^{1/f} is one inverse-closed
    set (case 1)."""
    return ffield.norm_to(b, sub) == -1


def _asym_pm_pieces(b: FieldElem, f: int, k_res: FieldDesc, sub: FieldDesc, ambient: FieldDesc):
    """Pieces for the eigenvalue pair Gal{b}^{1/f} and Gal{-b}^{1/f}."""
    if _inverse_closed(b, sub):
        # inverse-closed: the fields of X^f - b with split (k_i^x) factors
        return _galois_pieces(b, f, k_res, ambient, False), ["case1"]
    if f % 2 == 1:
        out = _galois_pieces(b, f, k_res, ambient, True)
        out = out + _galois_pieces(-b, f, k_res, ambient, True)
        return out, ["case2"]
    # f even: halve via square roots (exist by the root lemma)
    roots_b = ffield.nth_roots(b, 2)
    roots_mb = ffield.nth_roots(-b, 2)
    if not roots_b or not roots_mb:
        raise SignCalcError("square root missing in the halving step")
    p1, t1 = _asym_pm_pieces(roots_b[0], f // 2, k_res, sub, ambient)
    p2, t2 = _asym_pm_pieces(roots_mb[0], f // 2, k_res, sub, ambient)
    return p1 + p2, ["case3"] + t1 + t2


# ---------------------------------------------------------------------------
# Sign formula per block


@dataclass(frozen=True)
class BlockValue:
    value: float
    sign: int
    fixed_factor: float
    n_alpha: int
    pieces: TorusPieces | None


def _asym_asym_sign(sc: OrbitScenario) -> int:
    """sgn(-1)^{g(f-1)} sgn(eta_alpha): the sign of an asym/asym block."""
    return modp.legendre(-1, sc.p) ** (sc.g * (sc.f - 1)) * ffield.sgn_mult(sc.eta_alpha)


def _ramified_sign(sc: OrbitScenario) -> int:
    """sgn_{k_res}(-2) = (-2/p)^[k_res : F_p], the Gauss-sum sign of Gerardin
    (J. Algebra, 1977): the sign of a */sym-ram block, for every eta and C.

    Derived where the twist g squares to -1 (asym/sym-ram with f = 1,
    sym-ur/sym-ram with f = 2): there n = [k_res : F_p], and the
    fixed-point-free formula gives (-2/p)^n, since g has eigenvalues +-i,
    n of each, and det(g - 1) = 2^n. Conjectured for f = 3, where tests check
    it against the Weil trace and gerardin.weil_char. On every family built
    today it equals (-2/p)^n for a block of dimension 2n."""
    return modp.legendre(-2, sc.p) ** sc.k_res.degree


def block_sign_formula(sc: OrbitScenario) -> BlockValue:
    """Closed-form value of the twisted-block Weil character.

    asym/asym is sgn(-1)^{g(f-1)} sgn(eta_alpha); unramified restricted
    branches run the torus algorithm and take gerardin.orbit_sign of its
    pieces; ramified branches return the closed-form constant
    sgn_{k_res}(-2) of _ramified_sign. The fixed factor reads
    fixed_space_dim. No branch calls the Weil oracle or builds the block."""
    p = sc.p
    fixed_dim = fixed_space_dim(sc)
    if fixed_dim % 2:
        raise SignCalcError("odd fixed-space dimension")
    fixed_factor = float(p) ** (fixed_dim // 2)
    n_alpha = 1 if fixed_dim else 0
    branch = sc.classification

    if branch == "asym/asym":
        sign = _asym_asym_sign(sc)
        return BlockValue(sign * fixed_factor, sign, fixed_factor, n_alpha, None)

    if branch.endswith("sym-ram"):
        if fixed_dim:
            raise SignCalcError("ramified branch must have a trivial fixed space")
        sign = _ramified_sign(sc)
        return BlockValue(float(sign), sign, 1.0, 0, None)

    # unramified restricted branches: torus algorithm + Gerardin bookkeeping
    if branch == "asym/sym-ur":
        gamma = sc.varsigma(sc.eta_minus_alpha * sc.C) / (sc.eta_minus_alpha * sc.C)
        delta = ffield.norm_to(-gamma, sc.k_res)
        betas = ffield.nth_roots(delta, 2)
        if not betas:
            raise SignCalcError("delta has no square root in k_res")
        pieces = torus_algorithm(betas[0], sc.f, "asym", ambient=sc.k_alpha)
    else:  # sym-ur/sym-ur
        beta = ffield.norm_to(sc.eta_alpha, sc.k_res)
        pieces = torus_algorithm(beta, sc.f, "sym", ambient=sc.k_alpha)

    sign = gerardin.orbit_sign(pieces.pieces, fixed_dim)
    return BlockValue(sign * fixed_factor, sign, fixed_factor, n_alpha, pieces)


def ramified_cache_snapshot() -> dict[tuple, int]:
    """Always empty: ramified signs are closed-form and nothing is cached.
    Kept because the benchmark's traced runs read its length."""
    return {}


def f1_constant(sc: OrbitScenario) -> int:
    """The eta-underline constant of the f = 1 regime (one per Theta-orbit)."""
    branch = sc.classification
    if branch == "asym/asym":
        return _asym_asym_sign(sc)
    if branch == "asym/sym-ur":
        return ffield.sgn_mult(sc.eta_minus_alpha * sc.C)
    if branch == "sym-ur/sym-ur":
        return -ffield.sgn_norm_one(sc.eta_alpha, sc.k_pm_alpha)
    return _ramified_sign(sc)


# ---------------------------------------------------------------------------
# Assembled products


@dataclass(frozen=True)
class Assembled:
    value: complex
    blocks: dict
    f1_regime: bool
    c_eta: int | None
    ur_count: int | None
    v_factor: float | None
    eps_tilde: int | None


def _orbit_reps(orbits: list[frozenset]) -> list[int]:
    """The least root of each orbit, orbits[a] the set of roots in a's."""
    seen: set[int] = set()
    reps = []
    for a, orbit in enumerate(orbits):
        if a not in seen:
            reps.append(a)
            seen |= orbit
    return reps


def theta_orbit_reps(action: OrbitAction) -> list[int]:
    """Canonical representatives of Theta \\ (Phi / Sigma)."""
    return _orbit_reps([root.cluster for root in action.roots])


def _check_s_values(action: OrbitAction, s_values: dict[int, FieldElem]) -> None:
    """Refuse an s_values key that is not a root index, or two keys in one
    Sigma-orbit: the value at a root would then depend on the key order."""
    owner: dict[int, int] = {}
    for key in s_values:
        if not isinstance(key, int) or isinstance(key, bool) or not 0 <= key < action.size:
            raise SignCalcError("s_values key %r is not a root index 0..%d" % (key, action.size - 1))
        if key in owner:
            raise SignCalcError("s_values keys %d and %d share a Sigma-orbit" % (owner[key], key))
        owner.update(dict.fromkeys(action.roots[key].sigma, key))


def _check_cover(action: OrbitAction, scenarios: dict[int, OrbitScenario], s_values: dict[int, FieldElem]) -> list[int]:
    """The Theta-orbit reps, after refusing scenarios that are not keyed by
    them, a scenario that does not describe its orbit, and bad s_values keys."""
    reps = theta_orbit_reps(action)
    if sorted(scenarios) != sorted(reps):
        raise SignCalcError("scenarios must be keyed by the canonical orbit reps %r" % (reps,))
    for rep, sc in scenarios.items():
        if sc.alpha != rep or sc.action != action:
            raise SignCalcError("scenario keyed by %d does not describe that orbit" % rep)
    _check_s_values(action, s_values)
    return reps


def _value_at_root(action: OrbitAction, s_values: dict[int, FieldElem], root: int) -> FieldElem:
    """bar-root(s) derived from the stored Sigma-orbit representative value by
    Galois transport and negation-inversion."""
    for rep, val in s_values.items():
        orbit = action.roots[rep].gamma
        if root in orbit:
            return val.frobenius(orbit.index(root))
        neg_root = action.neg[root]
        if neg_root in orbit:
            return val.frobenius(orbit.index(neg_root)).inverse()
    raise SignCalcError("no s-value covers root %d" % root)


def twisted_scenario(sc: OrbitScenario, s_values: dict[int, FieldElem]) -> OrbitScenario:
    """Scenario for eta = s . eta_underline, by field arithmetic on no block.

    The base block of ([s] . iota)^m, iota the full-space oracle's twist, is
    s_0 . op . s_(m-1) ... s_1, with [s_j] multiplication by x_j =
    bar-theta^j(alpha)(s) on the plus line and by x_j^-1 on the minus line.
    With y = x_1 ... x_(m-1) it is eta' o varsigma on each line, eta'_alpha =
    x_0 eta_alpha varsigma(u) and eta'_-alpha = eta_-alpha / (x_0 varsigma(u)),
    u = y^-1 on the -1 branch (whose lines op swaps) and u = y otherwise."""
    act, root = sc.action, sc.root
    _check_s_values(act, s_values)
    xs = [_s_value(sc, _value_at_root(act, s_values, root.theta[j])) for j in range(root.m)]
    y = math.prod(xs[1:], start=sc.k_alpha.one())
    shift = xs[0] * sc.varsigma(y.inverse() if root.branch_sign == -1 else y)
    eta_minus = None if sc.sym_alpha else sc.eta_minus_alpha / shift
    return replace(sc, eta_alpha=sc.eta_alpha * shift, eta_minus_alpha=eta_minus)


def assemble_product(action: OrbitAction, scenarios: dict[int, OrbitScenario], s_values: dict[int, FieldElem]) -> Assembled:
    """Product over Theta-orbits of the twisted block values for eta = s eta_0;
    in the all-f=1 regime also the factored decomposition, asserted equal."""
    _check_cover(action, scenarios, s_values)
    blocks = {}
    total = 1.0
    f1 = all(sc.f == 1 for sc in scenarios.values())
    for rep, sc in scenarios.items():
        tw = twisted_scenario(sc, s_values)
        bv = block_sign_formula(tw)
        blocks[rep] = bv
        total *= bv.value

    if not f1:
        return Assembled(total, blocks, False, None, None, None, None)

    c_eta = 1
    ur_count = 0
    v_factor = 1.0
    for rep, sc in scenarios.items():
        c_eta *= f1_constant(sc)
        if sc.classification.endswith("sym-ur"):
            ur_count += blocks[rep].n_alpha
    for bv in blocks.values():
        v_factor *= bv.fixed_factor
    eps_tilde = 1
    for srep in _orbit_reps([root.sigma for root in action.roots]):
        if _orbit_classification(action, scenarios, srep).endswith("sym-ram"):
            continue
        val = _value_at_root(action, s_values, srep)
        eps_tilde *= gerardin.piece_character(sym.TorusPiece(val.parent.degree, val, action.roots[srep].symmetric))
    factored = c_eta * (-1) ** ur_count * v_factor * eps_tilde
    if abs(factored - total) > 1e-6:
        raise SignCalcError("factored and unfactored evaluations disagree: %r vs %r" % (factored, total))
    return Assembled(total, blocks, True, c_eta, ur_count, v_factor, eps_tilde)


def _orbit_classification(action: OrbitAction, scenarios: dict[int, OrbitScenario], root: int) -> str:
    for rep, sc in scenarios.items():
        if root in action.roots[rep].cluster:
            return sc.classification
    raise SignCalcError("root %d not covered" % root)


def theta_rho(assembled: Assembled, vartheta_s: complex) -> complex:
    """The assembled twisted character value times the opaque unit character
    value; f = 1 regime only."""
    if not assembled.f1_regime:
        raise SignCalcError("theta_rho requires f_alpha = 1 for all orbits")
    if abs(abs(vartheta_s) - 1.0) > 1e-9:
        raise SignCalcError("vartheta(s) must be a unit complex number")
    return assembled.value * vartheta_s


# ---------------------------------------------------------------------------
# Full-space oracle for assembled products


def full_space_oracle(action: OrbitAction, scenarios: dict[int, OrbitScenario], s_values: dict[int, FieldElem]) -> weil.TwistedTraceResult:
    """tr(omega([s]) o I) on the direct sum of all twisted blocks, one chain
    per covered orbit and one s-block per copy, computed by the weil module:
    the independent cross-check of assemble_product.  The only code here
    that reaches the oracle, so weil is imported here alone."""
    from . import weil

    chains, s_parts = [], []
    for rep in _check_cover(action, scenarios, s_values):
        bb = build_block(scenarios[rep])
        root = action.roots[rep]
        chains.append((bb.op, root.m))
        s_parts.extend(s_action_matrix(bb, _value_at_root(action, s_values, root.theta[j])) for j in range(root.m))
    return weil.twisted_trace(weil.block_twist(chains), s_parts)
