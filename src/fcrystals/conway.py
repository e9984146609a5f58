"""Built-in table of Conway polynomials.

Coefficients are listed low degree first, so ``(1, 1)`` is ``x + 1``.  The
table covers p in {2, 3, 5, 7} and extension degrees up to 12, except
(7, 12), which awaits a verified value; anything outside errors.  Entries follow the standard normalization: primitive,
norm-compatible with all subfield entries, minimal in the usual
alternating-sign word order.
"""

from math import isqrt

from .errors import NotPrime, UnknownField

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_DEGREE = 12

CONWAY_TABLE = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (3, 7): (1, 0, 2, 0, 0, 0, 0, 1),
    (3, 8): (2, 2, 2, 0, 1, 2, 0, 0, 1),
    (3, 9): (1, 1, 2, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1),
    (3, 11): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (5, 5): (3, 4, 0, 0, 0, 1),
    (5, 6): (2, 0, 1, 4, 1, 0, 1),
    (5, 7): (3, 3, 0, 0, 0, 0, 0, 1),
    (5, 8): (2, 4, 3, 0, 1, 0, 0, 0, 1),
    (5, 9): (3, 1, 0, 2, 0, 0, 0, 0, 0, 1),
    (5, 10): (2, 1, 4, 2, 3, 3, 0, 0, 0, 0, 1),
    (5, 11): (3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 12): (2, 2, 3, 4, 4, 0, 1, 1, 0, 0, 0, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
    (7, 5): (4, 1, 0, 0, 0, 1),
    (7, 6): (3, 6, 4, 5, 1, 0, 1),
    (7, 7): (4, 6, 0, 0, 0, 0, 0, 1),
    (7, 8): (3, 2, 6, 4, 0, 0, 0, 0, 1),
    (7, 9): (4, 6, 0, 1, 6, 0, 0, 0, 0, 1),
    (7, 10): (3, 3, 2, 1, 4, 1, 1, 0, 0, 0, 1),
    (7, 11): (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


# largest p that `require_prime` accepts: trial division then takes at
# most 2^16 steps, and no larger p has a table entry
MAX_PRIME = 2 ** 32


def require_prime(p):
    if p > MAX_PRIME:
        raise NotPrime("p exceeds the maximum 2^32")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise NotPrime(f"p = {p} is not prime")


def conway_polynomial(p: int, q: int) -> tuple:
    """Return the Conway polynomial for F_{p^q}, coefficients mod p."""
    require_prime(p)
    poly = CONWAY_TABLE.get((p, q))
    if poly is None:
        raise UnknownField(
            f"no built-in Conway polynomial for (p, q) = ({p}, {q}); "
            f"supported: p in {SUPPORTED_PRIMES}, q <= {MAX_DEGREE}, "
            f"except (7, 12)"
        )
    return poly
