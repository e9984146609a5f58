"""Sign/value deviations of cyclic exponent tuples and lattice rescaling.

A tuple (n_1, ..., n_l) encodes a cyclic map e_i -> p^(n_i) e_(i+1)
(indices cyclic).  The deviations measure how far the tuple is from
having uniform sign; the rescaling produces exponents a_i >= 0 such that
the sublattice spanned by p^(a_i) e_i has a uniform-sign tuple, with
max(a_i) bounded by the sign deviation.
"""

from dataclasses import dataclass

from .errors import InternalError


def _one_sided_sign_deviation(tau, side):
    """side=+1: windows whose suffix sums are all <= 0, value = -sum.

    side=-1: windows whose suffix sums are all >= 0, value = +sum.
    """
    l = len(tau)
    best = 0
    for t in range(l):
        # grow the window backwards from its right end t
        s = 0
        ok = True
        for v in range(l):
            s += tau[(t - v) % l]
            if side > 0:
                ok = ok and s <= 0
            else:
                ok = ok and s >= 0
            if not ok:
                break
            val = -s if side > 0 else s
            if val > best:
                best = val
    return best


def _one_sided_value_deviation(tau, side):
    if side > 0:
        return -sum(x for x in tau if x <= 0)
    return sum(x for x in tau if x >= 0)


def deviations(tau):
    """(sign deviation, value deviation) of the tuple."""
    tau = list(tau)
    if not tau:
        raise ValueError("empty tuple")
    total = sum(tau)
    if total > 0:
        return (_one_sided_sign_deviation(tau, +1),
                _one_sided_value_deviation(tau, +1))
    if total < 0:
        return (_one_sided_sign_deviation(tau, -1),
                _one_sided_value_deviation(tau, -1))
    s = min(_one_sided_sign_deviation(tau, +1),
            _one_sided_sign_deviation(tau, -1))
    w = min(_one_sided_value_deviation(tau, +1),
            _one_sided_value_deviation(tau, -1))
    return (s, w)


@dataclass
class DfReduction:
    rescale: list        # a_i >= 0, one per position
    new_exponents: list  # tuple for the rescaled basis p^(a_i) e_i
    sign: int            # +1 when the result is all >= 0, else -1


def _reduce_nonneg_side(tau):
    """Rescale so every exponent becomes >= 0 (needs sum >= 0).

    Repeatedly picks the widest window, looking backwards from a position
    t, whose suffix sums are all <= 0 (leftmost t on ties, matching the
    window's left end), and rescales those positions by the negated
    suffix sums.
    """
    l = len(tau)
    a = [0] * l
    done = [False] * l
    while True:
        best_u, best_t = -1, None
        for t in range(l):
            if done[t] or tau[t] > 0:
                continue
            s, u = 0, -1
            for v in range(l):
                i = (t - v) % l
                if done[i]:
                    break
                s += tau[i]
                if s > 0:
                    break
                u = v
            if u > best_u:
                best_u, best_t = u, t
            elif u == best_u and u >= 0:
                # leftmost window start in 1-based cyclic order
                if best_t is None or (best_t - u) % l > (t - u) % l:
                    best_t = t
        if best_t is None or best_u < 0:
            break
        t, u = best_t, best_u
        s = 0
        for v in range(u + 1):
            i = (t - v) % l
            s += tau[i]
            a[i] = -s
            done[i] = True
    new = [tau[i] + a[i] - a[(i + 1) % l] for i in range(l)]
    return a, new


def _reduce_nonpos_side(tau):
    """Rescale so every exponent becomes <= 0 (needs sum <= 0).

    Mirror of the other side: widest forward window from t whose prefix
    sums stay >= 0; positions t+1 .. t+u+1 are rescaled by those sums.
    """
    l = len(tau)
    a = [0] * l
    done = [False] * l
    while True:
        best_u, best_t = -1, None
        for t in range(l):
            if done[t] or tau[t] < 0:
                continue
            s, u = 0, -1
            for v in range(l):
                i = (t + v) % l
                if done[i]:
                    break
                s += tau[i]
                if s < 0:
                    break
                u = v
            if u > best_u:
                best_u, best_t = u, t
            elif u == best_u and u >= 0:
                if best_t is None or best_t > t:
                    best_t = t
        if best_t is None or best_u < 0:
            break
        t, u = best_t, best_u
        s = 0
        for v in range(u + 1):
            i = (t + v) % l
            s += tau[i]
            a[(i + 1) % l] = s
            done[i] = True
    new = [tau[i] + a[i] - a[(i + 1) % l] for i in range(l)]
    return a, new


def df_reduce(tau) -> DfReduction:
    """Rescaling exponents a_i in [0, S(tau)] making the tuple uniform-sign."""
    tau = list(tau)
    if not tau:
        raise ValueError("empty tuple")
    total = sum(tau)
    if total > 0:
        side = +1
    elif total < 0:
        side = -1
    else:
        s_plus = _one_sided_sign_deviation(tau, +1)
        s_minus = _one_sided_sign_deviation(tau, -1)
        side = +1 if s_plus <= s_minus else -1
    if side > 0:
        a, new = _reduce_nonneg_side(tau)
        if any(x < 0 for x in new):
            raise InternalError(f"rescaling {a} of {tau} left {new}")
    else:
        a, new = _reduce_nonpos_side(tau)
        if any(x > 0 for x in new):
            raise InternalError(f"rescaling {a} of {tau} left {new}")
    return DfReduction(a, new, side)


def torsion_upper_from_tuple(tau) -> int:
    """Certified upper bound for the lattice torsion of the cyclic object."""
    return deviations(tau)[0]
