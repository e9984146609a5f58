"""Output checks.  Each one rests on a separate computation or on a
property the method must have, never on a copy of an earlier output."""

import json
from fractions import Fraction

from arith import (
    CheckFailed,
    congruence_level,
    equal_mod,
    is_invertible,
    mat_map,
    mat_sigma,
    matmul,
    require,
)


def epsilon_p(p):
    return 2 if p == 2 else 1


def check_intertwiner(R, B1, B2, w, level, unit):
    """w B1 = B2 sigma(w) mod p^level; with `unit`, w is invertible."""
    require(equal_mod(R, matmul(R, w, B1), matmul(R, B2, mat_sigma(R, w)),
                      level),
            "witness does not intertwine the two crystals")
    if unit:
        require(is_invertible(R, w), "witness is not invertible")


def check_negative(found, regime, hom_order, end_orders):
    """A definitive negative: exhaustive regime, no witness, and an order of
    Hom(C1, C2) that no isomorphism allows (g -> f o g would be a bijection
    End(C1) -> Hom(C1, C2), and likewise for End(C2))."""
    require(not found, "a witness was reported for a non-isomorphic pair")
    require(regime == "exhaustive", f"regime {regime!r} is not definitive")
    require(any(hom_order != e for e in end_orders),
            "Hom and End orders agree, so the negative is unproven")


def check_conjugation(base, big, B, g, w, level, torsion):
    """Stairs certificate: w g B = B sigma(w) mod p^level, with B and g
    embedded into the witness's ring by the benchmark's own map; the level
    reaches min(n, 2m + eps_p) and improves on the twist's own level."""
    embed = base.embedding(big)
    Bb, gb = mat_map(embed, B), mat_map(embed, g)
    require(level <= big.n, "level above the ring precision")
    lhs = matmul(big, matmul(big, w, gb), Bb)
    rhs = matmul(big, Bb, mat_sigma(big, w))
    require(equal_mod(big, lhs, rhs, level),
            f"witness does not conjugate mod p^{level}")
    require(level >= min(big.n, 2 * torsion + epsilon_p(big.p)),
            f"level {level} below the threshold")
    require(level >= big.n or level > congruence_level(base, g),
            "no progress beyond the twist's own congruence level")


# -- deviations --------------------------------------------------------------


def deviation_oracle(tau):
    """(S, W) by brute force over all cyclic windows."""
    l = len(tau)
    windows = [[tau[(t + k) % l] for k in range(length)]
               for t in range(l) for length in range(1, l + 1)]

    def sign_dev(side):
        best = 0
        for w in windows:
            suffixes = [sum(w[v:]) for v in range(len(w))]
            if all(s * side <= 0 for s in suffixes):
                best = max(best, -side * sum(w))
        return best

    def value_dev(side):
        return sum(-side * x for x in tau if x * side <= 0)

    total = sum(tau)
    if total:
        side = 1 if total > 0 else -1
        return sign_dev(side), value_dev(side)
    return min(sign_dev(1), sign_dev(-1)), min(value_dev(1), value_dev(-1))


def check_deviation(tau, out):
    s, w = deviation_oracle(tau)
    require((out["S"], out["W"]) == (s, w),
            f"deviations of {tau} differ from the oracle {(s, w)}")
    a, new = out["rescale"], out["reduced"]
    l = len(tau)
    require(len(a) == l and len(new) == l, "rescaling has the wrong length")
    require(all(0 <= x <= s for x in a), "rescaling outside [0, S]")
    require(all(new[i] == tau[i] + a[i] - a[(i + 1) % l] for i in range(l)),
            "reduced tuple is not the rescaled one")
    require(all(x >= 0 for x in new) or all(x <= 0 for x in new),
            "reduced tuple has mixed signs")


# -- polygons ----------------------------------------------------------------


def slopes_of(out):
    slopes = []
    for num, den, mult in out["slopes"]:
        slopes.extend([Fraction(num, den)] * mult)
    return slopes


def check_newton_above_hodge(newton, hodge):
    """Mazur: same endpoint, Newton never below Hodge."""
    require(len(newton) == len(hodge), "polygons of different length")
    require(sorted(newton) == newton and sorted(hodge) == hodge,
            "slopes are not increasing")
    pn = ph = Fraction(0)
    for a, b in zip(newton, hodge):
        pn += a
        ph += b
        require(pn >= ph, "Newton polygon dips below the Hodge polygon")
    require(pn == ph, "Newton and Hodge polygons end at different points")


# -- command-line contract ---------------------------------------------------


def one_json_document(stdout):
    require(stdout.endswith("\n") and stdout.count("\n") == 1,
            "stdout is not exactly one line")
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None

