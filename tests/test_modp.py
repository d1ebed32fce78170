import numpy as np
import pytest

from weilchar import modp


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
    assert modp.poly_deflate(prod, 1, p) == a
    m = np.array([[0, 1], [3, 2]], dtype=np.int64)
    cp = modp.charpoly(m, p)
    assert not modp.poly_eval_mat(cp, m, p).any()  # Cayley-Hamilton
    assert (modp.poly_eval_mat(a, m, p) == (np.eye(2, dtype=np.int64) + 2 * m + 3 * m @ m) % p).all()
