import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from weilchar import checks, modp


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_legendre_matches_brute_force_squares(p):
    squares = {x * x % p for x in range(1, p)}
    for a in range(-2 * p, 2 * p):
        if a % p == 0:
            with pytest.raises(ValueError):
                modp.legendre(a, p)
        else:
            assert modp.legendre(a, p) == (1 if a % p in squares else -1)


def test_poly_helpers_examples():
    p = 7
    a, b = [1, 2, 3], [6, 1]  # 1 + 2X + 3X^2 and X - 1
    prod = modp.poly_mul(a, b, p)
    assert prod == [6, 6, 6, 3]
    assert modp.poly_mul([1], b, p) == b
    for x in range(p):
        assert modp.poly_eval(prod, x, p) == modp.poly_eval(a, x, p) * modp.poly_eval(b, x, p) % p
    assert modp.poly_eval(prod, 1, p) == 0


# -- the exact kernel: pinned digests and brute force ------------------------

PINNED = json.loads((pathlib.Path(__file__).parent / "modp_digests.json").read_text())
PRIMES = (3, 5, 7, 11, 13)
SHAPES = ((1, 2), (2, 2), (2, 4), (3, 3), (3, 6), (4, 4), (4, 8), (5, 5), (6, 6), (6, 12), (7, 7), (8, 8), (8, 16))


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _arr(a):
    return [str(a.dtype), list(a.shape), a.tolist()]


def kernel_batch(p):
    """A random, a low-rank and a zero matrix of every shape in SHAPES."""
    rng = np.random.RandomState(1000 + p)
    out = []
    for r, c in SHAPES:
        out.append(rng.randint(0, p, size=(r, c)))
        k = max(1, min(r, c) - 1)
        out.append(rng.randint(0, p, size=(r, k)) @ rng.randint(0, p, size=(k, c)) % p)
        out.append(np.zeros((r, c), dtype=np.int64))
    return out


def kernel_digests():
    """sha256 per (function, p) of every kernel result on kernel_batch(p):
    arrays with dtype and shape, pivots and the exception type of mat_inv."""
    out = {}
    for p in PRIMES:
        res = {k: [] for k in ("rref", "rank", "kernel_basis", "det", "mat_inv")}
        for m in kernel_batch(p):
            a, piv = modp.rref(m, p)
            res["rref"].append([_arr(a), piv])
            res["rank"].append(modp.rank(m, p))
            res["kernel_basis"].append([_arr(v) for v in modp.kernel_basis(m, p)])
            if m.shape[0] == m.shape[1]:
                d = modp.det(m, p)
                res["det"].append([type(d).__name__, d])
                try:
                    res["mat_inv"].append(_arr(modp.mat_inv(m, p)))
                except ZeroDivisionError as exc:
                    res["mat_inv"].append(type(exc).__name__)
        for k, v in res.items():
            out["%s p=%d" % (k, p)] = _sha(v)
    return out


def test_kernel_digests_pinned():
    assert kernel_digests() == PINNED["kernel"]


def test_prime_factors_are_trial_division_and_is_prime_the_primes():
    top = 10**4
    primes = np.array([d for d in range(2, top + 1) if all(d % e for e in range(2, int(d**0.5) + 1))])
    assert modp.prime_factors(0) == modp.prime_factors(1) == []
    for n in range(2, top + 1):
        assert modp.prime_factors(n) == primes[n % primes == 0].tolist()
    assert [n for n in range(-3, top + 1) if modp.is_prime(n)] == primes.tolist()


def test_non_square_input_rejected():
    m = [[1, 2, 3], [0, 1, 4]]
    with pytest.raises(ValueError):
        modp.mat_inv(m, 7)
    with pytest.raises(ValueError):
        modp.det(m, 7)
    with pytest.raises(ValueError):
        modp.det([1, 2, 3], 7)


def det_2x2_mismatches(p):
    """Matrices [[a, b], [c, d]] over F_p whose det is not ad - bc."""
    return sum(modp.det([[a, b], [c, d]], p) != (a * d - b * c) % p
               for a, b, c, d in itertools.product(range(p), repeat=4))


@pytest.mark.parametrize("p", [3, 5])
def test_det_is_ad_minus_bc(p):
    assert det_2x2_mismatches(p) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_mat_inv_of_seeded_units(p):
    # four units of each size 1..6, drawn from a seeded stream; the singular
    # draws on the way must raise
    rng = np.random.default_rng(p)
    for n in range(1, 7):
        ident = np.eye(n, dtype=np.int64)
        units = 0
        while units < 4:
            m = rng.integers(0, p, size=(n, n))
            if modp.det(m, p) == 0:
                with pytest.raises(ZeroDivisionError):
                    modp.mat_inv(m, p)
                continue
            inv = modp.mat_inv(m, p)
            assert inv.dtype == np.int64 and inv.shape == (n, n)
            assert (m @ inv % p == ident).all() and (inv @ m % p == ident).all()
            units += 1


def _row_space(m, p):
    """Every vector of the row space of m, by enumerating coefficients."""
    m = np.asarray(m, dtype=np.int64).reshape(-1, np.shape(m)[-1])
    return {tuple(int(x) for x in np.array(c, dtype=np.int64) @ m % p)
            for c in itertools.product(range(p), repeat=m.shape[0])}


def test_rref_idempotent_with_the_same_row_space():
    p = 3
    rng = np.random.default_rng(3)
    for shape in ((1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 6)):
        for m in (rng.integers(0, p, size=shape), rng.integers(0, p, size=(shape[0], 1)) * rng.integers(0, p, size=shape[1])):
            a, piv = modp.rref(m, p)
            assert a.dtype == np.int64 and a.shape == m.shape
            again, piv2 = modp.rref(a, p)
            assert (again == a).all() and piv2 == piv
            assert _row_space(a, p) == _row_space(m, p)
            assert len(piv) == len(set(piv)) == sum(bool(row.any()) for row in a)
            for r, c in enumerate(piv):  # reduced echelon: pivot 1, zero column elsewhere
                assert a[r, c] == 1 and not np.delete(a[:, c], r).any()


@pytest.mark.parametrize("p", [3, 5])
def test_kernel_basis_spans_every_solution(p):
    rng = np.random.default_rng(p + 20)
    for shape in ((1, 3), (2, 3), (2, 4), (3, 3), (3, 4)):
        for m in (rng.integers(0, p, size=shape), np.zeros(shape, dtype=np.int64),
                  rng.integers(0, p, size=(shape[0], 1)) * rng.integers(0, p, size=shape[1])):
            sols = {x for x in itertools.product(range(p), repeat=shape[1]) if not (m @ np.array(x) % p).any()}
            basis = modp.kernel_basis(m, p)
            assert len(sols) == p ** (shape[1] - modp.rank(m, p)) == p ** len(basis)
            assert _row_space(np.array(basis, dtype=np.int64).reshape(len(basis), shape[1]), p) == sols


def test_det_swap_sign_fault_turns_rows_red():
    # det reads the determinant reduce_rows tracks, swap signs included
    with checks.FAULTS["swap-sign"]():
        bad_2x2 = det_2x2_mismatches(3)
    assert bad_2x2 > 0
    assert det_2x2_mismatches(3) == 0


def tracked_det_mismatches(p):
    """Matrices [[a, b], [c, d]] over F_p, invertible, whose inverse's
    determinant as reduce_rows tracks it on [m | I] is not 1 / (ad - bc)."""
    bad = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            rows = modp.with_identity([[a, b], [c, d]])
            bad += modp.reduce_rows(rows, p)[1] * (a * d - b * c) % p != 1
    return bad


@pytest.mark.parametrize("p", [3, 5])
def test_reduce_rows_tracks_the_determinant(p):
    assert tracked_det_mismatches(p) == 0
    rng = np.random.default_rng(p + 40)
    for n in range(1, 7):
        for _ in range(6):
            m = rng.integers(0, p, size=(n, n))
            rows = modp.with_identity(m.tolist())
            pivots, d = modp.reduce_rows(rows, p)
            # the right half is E with E [m | I] = [rref m | E]: d = det E
            e = np.array([row[n:] for row in rows], dtype=np.int64)
            assert d == modp.det(e, p) != 0
            assert (e @ m % p == np.array([row[:n] for row in rows])).all()
            if pivots == list(range(n)):
                assert d * modp.det(m, p) % p == 1


def test_elimination_swap_sign_fault_turns_rows_red():
    # the word model's Levi sign reads the determinants reduce_rows tracks
    with checks.FAULTS["swap-sign"]():
        rows, _ = checks.run_checks("weil.omega-mult")
        bad_2x2 = tracked_det_mismatches(3)
    assert bad_2x2 > 0
    failed = {r.quantity for r in rows if not r.passed}
    # a 1x1 reduction never swaps, so only the Sp_4 and Sp_6 word-model products see it
    assert failed == {
        "word model multiplicative Sp_4(F_3) (9 pairs, ranks 0-2)",
        "word model multiplicative Sp_6(F_3) (16 pairs, ranks 0-3)",
    }
    assert tracked_det_mismatches(3) == 0
