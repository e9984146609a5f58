"""Sign/value deviations of cyclic exponent tuples and lattice rescaling.

A tuple (n_1, ..., n_l) encodes a cyclic map e_i -> p^(n_i) e_(i+1)
(indices cyclic).  The deviations measure how far the tuple is from
having uniform sign; the rescaling produces exponents a_i >= 0 such that
the sublattice spanned by p^(a_i) e_i has a uniform-sign tuple, with
max(a_i) bounded by the sign deviation.
"""

from dataclasses import dataclass

from .errors import InternalError


def _reflect(tau):
    """tau -> -reverse(tau): exchanges the two sides of every definition."""
    return [-x for x in reversed(tau)]


def _sign_deviation(tau):
    """Largest -sum over windows whose suffix sums are all <= 0.

    The other side (suffix sums >= 0, value +sum) is this on _reflect(tau).
    """
    l = len(tau)
    best = 0
    for t in range(l):
        # grow the window backwards from its right end t
        s = 0
        for v in range(l):
            s += tau[(t - v) % l]
            if s > 0:
                break
            best = max(best, -s)
    return best


def _value_deviation(tau):
    return -sum(x for x in tau if x <= 0)


def deviations(tau):
    """(sign deviation, value deviation) of the tuple.

    A positive sum takes the "+1" side, a negative sum the reflected one,
    a zero sum the smaller of the two.
    """
    tau = list(tau)
    if not tau:
        raise ValueError("empty tuple")
    total = sum(tau)
    sides = []
    if total >= 0:
        sides.append(tau)
    if total <= 0:
        sides.append(_reflect(tau))
    return (min(_sign_deviation(t) for t in sides),
            min(_value_deviation(t) for t in sides))


@dataclass
class DfReduction:
    rescale: list        # a_i >= 0, one per position
    new_exponents: list  # tuple for the rescaled basis p^(a_i) e_i
    sign: int            # +1 when the result is all >= 0, else -1


def _reduce_nonneg_side(tau):
    """Rescaling a making every exponent >= 0 (needs sum >= 0).

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
    return a


def _reduce_nonpos_side(tau):
    """Rescaling a making every exponent <= 0 (needs sum <= 0).

    The reflection turns the arrow e_k -> e_(k+1) into one between the
    positions l - k and l - 1 - k of _reflect(tau), and nonpositive
    exponents into nonnegative ones, so position k reads the other
    side's rescaling at (l - k) % l.
    """
    l = len(tau)
    a = _reduce_nonneg_side(_reflect(tau))
    return [a[(l - k) % l] for k in range(l)]


def df_reduce(tau) -> DfReduction:
    """Rescaling exponents a_i in [0, S(tau)] making the tuple uniform-sign."""
    tau = list(tau)
    if not tau:
        raise ValueError("empty tuple")
    total = sum(tau)
    if total == 0:
        side = +1 if _sign_deviation(tau) <= \
            _sign_deviation(_reflect(tau)) else -1
    else:
        side = +1 if total > 0 else -1
    a = _reduce_nonneg_side(tau) if side > 0 else _reduce_nonpos_side(tau)
    l = len(tau)
    new = [tau[i] + a[i] - a[(i + 1) % l] for i in range(l)]
    if any(side * x < 0 for x in new):
        raise InternalError(f"rescaling {a} of {tau} left {new}")
    return DfReduction(a, new, side)


def torsion_upper_from_tuple(tau) -> int:
    """Certified upper bound for the lattice torsion of the cyclic object."""
    return deviations(tau)[0]
