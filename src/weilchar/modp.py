"""Small exact linear algebra over F_p (p odd prime): numpy int arrays in and
out, row operations on Python-int rows; and the additive character of F_p."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def as_mat(m, p: int) -> np.ndarray:
    return np.asarray(m, dtype=np.int64) % p


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing, by trial division; [] for
    n < 2."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


@lru_cache(maxsize=None)
def theta_values(p: int) -> np.ndarray:
    """The additive character psi(z) = exp(2 pi i z / p) of F_p at z = 0..p-1,
    read-only: a phase mod p indexes it.  The only place that turns a phase
    into a root of unity; the oracle and the formula side both gather here."""
    vals = np.exp(2j * np.pi * np.arange(p) / p)
    vals.flags.writeable = False
    return vals


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) as +-1 (Euler's criterion); a must be a unit."""
    a %= p
    if a == 0:
        raise ValueError("Legendre symbol of 0 mod %d" % p)
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# Polynomials over F_p are coefficient lists, low degree first.


def poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_eval(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _square(m, p: int) -> np.ndarray:
    a = as_mat(m, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix, got shape %s" % (a.shape,))
    return a


def _first_nonzero(rows: list[list[int]], start: int, c: int) -> int | None:
    for i in range(start, len(rows)):
        if rows[i][c]:
            return i
    return None


def _exchange(rows: list[list[int]], i: int, j: int) -> int:
    """Swap rows i and j in place; returns the swap's determinant, -1."""
    rows[i], rows[j] = rows[j], rows[i]
    return -1


def reduce_rows(rows: list[list[int]], p: int) -> tuple[list[int], int]:
    """Gauss-Jordan elimination of Python-int rows in place (entries stay in
    0..p-1): afterwards rows is the reduced echelon form.  Returns the pivot
    columns and the determinant of the row operations applied, -1 per swap
    times the inverse of each pivot scaled to 1: reducing [m | I] leaves
    E = m^-1 in the right half, with det E = 1 / det m when m is invertible."""
    n = len(rows)
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = _first_nonzero(rows, r, c)
        if piv is None:
            continue
        if piv != r:
            d *= _exchange(rows, r, piv)
        inv = pow(rows[r][c], p - 2, p)
        d = d * inv % p
        pr = rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots, d


def with_identity(rows: list[list[int]]) -> list[list[int]]:
    """[m | I] as new Python-int rows, m given by its n rows."""
    n = len(rows)
    return [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(rows)]


def rref(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form and pivot columns, as reduce_rows leaves them;
    the result is an int64 array of m's shape."""
    a = as_mat(m, p)
    rows = a.tolist()
    pivots, _ = reduce_rows(rows, p)
    return np.array(rows, dtype=np.int64).reshape(a.shape), pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m, p: int) -> np.ndarray:
    """Basis of the right kernel {x : m x = 0}, one row per free column c of
    the reduced m: 1 at c, and minus column c of the reduced rows at their
    pivots."""
    a = as_mat(m, p)
    rows = a.tolist()
    pivots, _ = reduce_rows(rows, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = [[0] * cols for _ in free]
    for v, f in zip(basis, free):
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[f] % p
    return np.array(basis, dtype=np.int64).reshape(len(free), cols)


def mat_inv(m, p: int) -> np.ndarray:
    a = _square(m, p)
    n = a.shape[0]
    rows = with_identity(a.tolist())
    if reduce_rows(rows, p)[0] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible mod %d" % p)
    return np.array([row[n:] for row in rows], dtype=np.int64).reshape(n, n)


def det(m, p: int) -> int:
    """0 unless reduce_rows finds a pivot in every column; then m reduces to
    I, and det m is the inverse of the determinant reduce_rows returns."""
    rows = _square(m, p).tolist()
    pivots, d = reduce_rows(rows, p)
    return pow(d, p - 2, p) if len(pivots) == len(rows) else 0


def _berkowitz(a: list[list[int]], p: int) -> list[int]:
    """Division-free characteristic polynomial det(X*I - a) over F_p.

    Returns coefficients low degree first, length n+1, monic.
    """
    n = len(a)
    if n == 0:
        return [1]
    # High-degree-first coefficient vector of the leading 1x1 block.
    vec = [1, -a[0][0] % p]
    for k in range(1, n):
        R = a[k][:k]
        C = [a[i][k] for i in range(k)]
        M = [row[:k] for row in a[:k]]
        # q_j = R . M^j . C for j = 0..k-1
        q = []
        w = C[:]
        for _ in range(k):
            q.append(sum(R[i] * w[i] for i in range(k)) % p)
            w = [sum(M[i][j] * w[j] for j in range(k)) % p for i in range(k)]
        # Toeplitz generator (1, -a_kk, -q_0, -q_1, ...): truncated convolution.
        t = [1, -a[k][k] % p] + [-x % p for x in q]
        new = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(min(i, k) + 1):
                if i - j < len(t):
                    s += t[i - j] * vec[j]
            new[i] = s % p
        vec = new
    return list(reversed(vec))


def charpoly(m, p: int) -> list[int]:
    """Characteristic polynomial of m over F_p, low degree first, monic."""
    return _berkowitz(as_mat(m, p).tolist(), p)
