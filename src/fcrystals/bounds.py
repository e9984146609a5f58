"""Effective torsion and truncation-level bounds, in exact big integers.

The recursion below is one sound reading of the existence proof for the
torsion bounds: it returns certified upper bounds, not the (unknown)
optimal constants.  Factorial growth is expected; everything is a Python
int.
"""

from functools import lru_cache

from .errors import BadParams


def epsilon_p(p: int) -> int:
    return 2 if p == 2 else 1


# largest rank the bounds accept: the split case is quadratic in the rank
# (about 0.05 s at this rank), and at rank ~1,700 the values outgrow
# Python's 4,300-digit int-to-string limit
MAX_BOUND_RANK = 500
# largest s- and h-number they accept: D0 is linear in h and D0(500, 1)
# has 1,135 digits, so every accepted bound has at most 2,140 digits and
# prints inside that limit
MAX_BOUND_NUMBER = 10 ** 1000


@lru_cache(maxsize=None)
def d_plus_bound0(a: int, c: int) -> int:
    """Upper bound for the torsion of rank-a crystals with s = 0, h = c.

    Computed bottom-up over the ranks 2..a, so its depth is constant.
    """
    if a < 1 or c < 0:
        raise BadParams("need a >= 1 and c >= 0")
    if a > MAX_BOUND_RANK:
        raise BadParams(f"rank {a} exceeds the maximum {MAX_BOUND_RANK}")
    if c > MAX_BOUND_NUMBER:
        raise BadParams("h-number exceeds the maximum 10^1000")
    if c == 0:
        return 0
    d = [0, 0]  # d[k] = D0(k, c); d[0] is unused
    d_sum, fact_sum, fact = 0, 0, 1  # sums over r < k of d[r] and of r!
    for k in range(2, a + 1):
        d_sum += d[k - 1]
        fact_sum += fact
        fact *= k
        split_case = max(d[k1] + d[k - k1] for k1 in range(1, k)) + c * k
        # simple case: c_1 = 0, c_{r+1} = c_r + d_r + r! * k * c
        d.append(max(split_case, d_sum + fact_sum * k * c))
    return d[a]


def d_plus_bound(a: int, b: int, c: int) -> int:
    """Upper bound for the torsion of rank-a crystals, s-number b, h-number c."""
    if a < 1 or b < 0 or c < 0:
        raise BadParams("need a >= 1, b >= 0, c >= 0")
    if b > MAX_BOUND_NUMBER:
        raise BadParams("s-number exceeds the maximum 10^1000")
    return b * (a - 1) + d_plus_bound0(a, c)


def n_fam_bound(v: int, s: int, h: int, p: int) -> int:
    """Isomorphism-level bound 2*d(v, s, h) + eps_p for a v-dimensional group."""
    if v < 1:
        raise BadParams("need v >= 1")
    return 2 * d_plus_bound(v, s, h) + epsilon_p(p)


def truncation_level_bound(kind: str, r: int, p: int, d=None) -> int:
    """Level at which the listed objects are determined up to isomorphism.

    kind="pdiv": height r, optional dimension 0 <= d <= r (0 or r
    short-circuits to 0); kind="polarized": the symplectic variant in
    terms of d = r/2.
    """
    if kind == "pdiv":
        if r < 1:
            raise BadParams("need r >= 1")
        if d is not None and not 0 <= d <= r:
            raise BadParams(f"dimension {d} is outside [0, {r}]")
        if d in (0, r):
            return 0
        dim = r * r
    elif kind == "polarized":
        if r < 1:
            raise BadParams("need d >= 1")
        dim = 2 * r * r + r
    else:
        raise BadParams(f"unknown bound kind {kind!r}")
    # so that the rank, r^2 or 2r^2 + r, prints in a rank error
    if r > MAX_BOUND_NUMBER:
        raise BadParams(f"{kind} size exceeds the maximum 10^1000")
    return 2 * d_plus_bound(dim, 1, 2) + epsilon_p(p)
