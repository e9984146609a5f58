import random

import pytest

from fcrystals.bounds import (
    MAX_BOUND_RANK,
    d_plus_bound,
    d_plus_bound0,
    n_fam_bound,
    truncation_level_bound,
)
from fcrystals.deviation import deviations, df_reduce, torsion_upper_from_tuple
from fcrystals.errors import BadParams


def test_published_samples():
    assert deviations([-1, 1, -1, -1, 1, 1, 0, -1]) == (2, 3)
    assert deviations([1, 1, -2, 1, 3]) == (2, 2)
    assert deviations([-1, 1, -1]) == (1, 1)


def test_nonnegative_tuples_have_zero_deviation():
    assert deviations([0]) == (0, 0)
    assert deviations([2, 0, 1]) == (0, 0)
    assert df_reduce([3, 0, 1]).rescale == [0, 0, 0]


def test_plus_minus_one_tuples():
    # W = min(#negative, #positive) for entries in {-1, 0, 1}
    rng = random.Random(0)
    for _ in range(200):
        l = rng.randrange(1, 9)
        tau = [rng.randrange(-1, 2) for _ in range(l)]
        _, w = deviations(tau)
        n_minus = sum(1 for x in tau if x == -1)
        n_plus = sum(1 for x in tau if x == 1)
        assert w == min(n_minus, n_plus), tau


def test_example_tuple_reduction():
    for r in (3, 4, 5, 6):
        tau = [1] * (r - 1) + [-1]
        red = df_reduce(tau)
        assert red.rescale == [0] * (r - 1) + [1]
        assert red.new_exponents == [1] * (r - 2) + [0, 0]
        assert torsion_upper_from_tuple(tau) == 1


def test_rotation_invariance():
    rng = random.Random(1)
    for _ in range(150):
        l = rng.randrange(1, 8)
        tau = [rng.randrange(-3, 4) for _ in range(l)]
        s, w = deviations(tau)
        k = rng.randrange(l)
        rot = tau[k:] + tau[:k]
        assert deviations(rot) == (s, w)


def test_reduce_bounds_and_consistency():
    rng = random.Random(2)
    for _ in range(400):
        l = rng.randrange(1, 9)
        tau = [rng.randrange(-3, 4) for _ in range(l)]
        s, w = deviations(tau)
        assert s <= w <= sum(abs(x) for x in tau)
        red = df_reduce(tau)
        assert 0 <= min(red.rescale) and max(red.rescale) <= s
        signs = [x for x in red.new_exponents if x != 0]
        if red.sign > 0:
            assert all(x > 0 for x in signs)
        else:
            assert all(x < 0 for x in signs)


def test_bound_recursion_hand_values():
    assert d_plus_bound0(1, 9) == 0
    assert d_plus_bound0(5, 0) == 0
    assert d_plus_bound0(2, 1) == 2
    assert d_plus_bound(2, 1, 1) == 3
    assert d_plus_bound(1, 5, 7) == 0
    with pytest.raises(BadParams):
        d_plus_bound0(0, 1)


def _top_down_bound0(a, c, memo):
    """The recursion as the existence proof states it, top down."""
    if a == 1 or c == 0:
        return 0
    if (a, c) not in memo:
        split = max(_top_down_bound0(a1, c, memo)
                    + _top_down_bound0(a - a1, c, memo) + c * a
                    for a1 in range(1, a))
        c_t, fact = 0, 1
        for r in range(1, a):
            c_t += _top_down_bound0(r, c, memo) + fact * a * c
            fact *= r + 1
        memo[(a, c)] = max(split, c_t)
    return memo[(a, c)]


def test_bottom_up_bound_matches_the_recursion():
    memo = {}
    for a in range(1, 41):
        for c in range(5):
            assert d_plus_bound0(a, c) == _top_down_bound0(a, c, memo)
    # the whole admitted range runs, far deeper than the recursion could
    assert d_plus_bound0(MAX_BOUND_RANK, 2) > d_plus_bound0(40, 2)
    with pytest.raises(BadParams):
        d_plus_bound0(MAX_BOUND_RANK + 1, 2)
    with pytest.raises(BadParams):
        d_plus_bound(MAX_BOUND_RANK + 1, 1, 0)


def test_bound_monotone_and_family():
    for a in range(2, 7):
        for c in range(1, 5):
            assert d_plus_bound0(a, c) >= d_plus_bound0(a - 1, c)
            assert d_plus_bound0(a, c) >= d_plus_bound0(a, c - 1)
    assert n_fam_bound(1, 0, 0, 3) == 1
    assert n_fam_bound(1, 0, 0, 2) == 2
    assert n_fam_bound(4, 1, 2, 2) == n_fam_bound(4, 1, 2, 3) + 1


def test_truncation_levels():
    assert truncation_level_bound("pdiv", 5, 2, d=0) == 0
    assert truncation_level_bound("pdiv", 5, 2, d=5) == 0
    v2 = truncation_level_bound("pdiv", 2, 2)
    v3 = truncation_level_bound("pdiv", 2, 3)
    assert v2 == v3 + 1
    assert truncation_level_bound("polarized", 1, 3) == \
        2 * d_plus_bound(3, 1, 2) + 1
    with pytest.raises(BadParams):
        truncation_level_bound("other", 2, 2)
