"""Defining-property checks for the built-in Conway polynomial table.

Every entry must be monic, irreducible, primitive, and norm-compatible
with the entries for its subfields; lexicographic minimality (in the
alternating-sign word order) is re-verified exhaustively for small
cases.
"""

from itertools import product

import pytest

from fcrystals.conway import (
    CONWAY_TABLE,
    MAX_DEGREE,
    SUPPORTED_PRIMES,
    conway_polynomial,
)
from fcrystals.errors import UnknownField

KNOWN = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
}


def _polmulmod(a, b, f, p):
    q = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, q - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(q):
                res[i - q + j] = (res[i - q + j] - c * f[j]) % p
    res = res[:q]
    res += [0] * (q - len(res))
    return tuple(res)


def _polpow(a, e, f, p):
    q = len(f) - 1
    r = tuple([1] + [0] * (q - 1))
    while e:
        if e & 1:
            r = _polmulmod(r, a, f, p)
        a = _polmulmod(a, a, f, p)
        e >>= 1
    return r


def _x(f):
    q = len(f) - 1
    return tuple([0, 1] + [0] * (q - 2))


def _small_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _is_primitive(f, p, q):
    order = p ** q - 1
    one = tuple([1] + [0] * (q - 1))
    x = _x(f) if q > 1 else ((-f[0]) % p,)
    for r in _small_factors(order):
        if _polpow(x, order // r, f, p) == one:
            return False
    return True


def _is_irreducible(f, p, q):
    x = _x(f) if q > 1 else ((-f[0]) % p,)
    if _polpow(x, p ** q, f, p) != x:
        return False
    for l in _small_factors(q):
        if _polpow(x, p ** (q // l), f, p) == x:
            return False
    return True


def _norm_compatible(f, p, q):
    order = p ** q - 1
    x = _x(f) if q > 1 else ((-f[0]) % p,)
    for m in range(1, q):
        if q % m:
            continue
        g = CONWAY_TABLE[(p, m)]
        xe = _polpow(x, order // (p ** m - 1), f, p)
        acc = tuple([g[m] % p] + [0] * (q - 1))
        for i in range(m - 1, -1, -1):
            acc = _polmulmod(acc, xe, f, p)
            acc = tuple((acc[0] + g[i]) % p if t == 0 else acc[t]
                        for t in range(q))
        if any(acc):
            return False
    return True


def test_known_values():
    for key, val in KNOWN.items():
        assert conway_polynomial(*key) == val, key


def test_table_lacks_7_12():
    # the one gap in the table until a verified value is added
    assert set(CONWAY_TABLE) == {(p, q) for p in SUPPORTED_PRIMES
                                 for q in range(1, MAX_DEGREE + 1)} - {(7, 12)}
    with pytest.raises(UnknownField, match="except"):
        conway_polynomial(7, 12)


@pytest.mark.parametrize("q, p", sorted((q, p) for p, q in CONWAY_TABLE))
def test_defining_properties(p, q):
    f = CONWAY_TABLE[(p, q)]
    assert len(f) == q + 1 and f[q] == 1
    assert _is_irreducible(f, p, q)
    assert _is_primitive(f, p, q)
    assert _norm_compatible(f, p, q)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_lexicographic_minimality_small(p, q):
    """No earlier word gives a primitive norm-compatible polynomial."""
    f = CONWAY_TABLE[(p, q)]
    target_word = tuple(
        (f[q - 1 - k] * pow(-1, q - (q - 1 - k), p)) % p for k in range(q - 1))
    a0 = f[0]
    for word in product(range(p), repeat=q - 1):
        if word >= target_word:
            break
        a = [0] * (q + 1)
        a[q] = 1
        a[0] = a0
        for k, b in enumerate(word):
            i = q - 1 - k
            a[i] = (b * pow(-1, q - i, p)) % p
        cand = tuple(a)
        if _is_irreducible(cand, p, q) and _is_primitive(cand, p, q) \
                and _norm_compatible(cand, p, q):
            raise AssertionError(f"earlier candidate {cand} beats {f}")
