import itertools
import math
import random
from fractions import Fraction

import pytest

from fcrystals.errors import OutsideExpDomain, SingularAtPrecision
from fcrystals.plinalg import (
    IntSolver,
    Matrix,
    exp_trunc,
    extract_congruence_digit,
    howell_form,
    in_howell_span,
    inverse_with_shift,
    pack_rows,
    smith_normal_form,
    solve_linear_module,
)
from fcrystals.witt import make_witt_ring


def _random_matrix(ring, r, rng):
    return Matrix(ring, [[ring.random_element(rng) for _ in range(r)]
                         for _ in range(r)])


def test_snf_hand_cases():
    W = make_witt_ring(2, 1, 3)
    assert smith_normal_form(Matrix.identity(W, 3)).exponents == [0, 0, 0]
    assert smith_normal_form(
        Matrix.from_ints(W, [[1, 0], [0, 4]])).exponents == [0, 2]
    s = smith_normal_form(Matrix.from_ints(W, [[2, 1], [0, 2]]))
    assert s.exponents == [0, 2]
    assert (s.left @ Matrix.from_ints(W, [[2, 1], [0, 2]]) @ s.right) \
        == s.diagonal
    assert s.diagonal == Matrix.from_ints(W, [[1, 0], [0, 4]])


def test_snf_transform_identity_random():
    ring = make_witt_ring(3, 2, 3)
    rng = random.Random(0)
    for _ in range(30):
        A = _random_matrix(ring, 3, rng)
        s = smith_normal_form(A)
        assert (s.left @ A @ s.right) == s.diagonal
        assert sorted(s.exponents) == s.exponents
        for i, e in enumerate(s.exponents):
            want = ring.zero() if e >= ring.n else \
                ring.from_int(ring.p ** e)
            assert s.diagonal[i, i] == want


def test_inverse_with_shift():
    W = make_witt_ring(2, 1, 4)
    D = Matrix.from_ints(W, [[1, 0], [0, 2]])
    C, e = inverse_with_shift(D)
    assert e == 1 and (D @ C) == Matrix.scalar(W, 2, 2)
    with pytest.raises(SingularAtPrecision):
        inverse_with_shift(Matrix.scalar(make_witt_ring(2, 1, 1), 2, 2))
    rng = random.Random(1)
    ring = make_witt_ring(3, 2, 4)
    for _ in range(20):
        A = _random_matrix(ring, 2, rng)
        try:
            C, e = inverse_with_shift(A)
        except SingularAtPrecision:
            continue
        assert (A @ C) == Matrix.scalar(ring, 2, ring.p ** e)
        assert (C @ A) == Matrix.scalar(ring, 2, ring.p ** e)


def test_solve_linear_module():
    sol = solve_linear_module([[2]], [4], 2, 3)
    assert sol.has_solution and sol.particular == [2] and sol.basis == [[4]]
    sol0 = solve_linear_module([[1, 0], [0, 1]], [0, 0], 2, 3)
    assert sol0.has_solution and sol0.particular == [0, 0] \
        and sol0.basis == []
    solp = solve_linear_module([[2, 0], [0, 2]], [0, 0], 2, 2)
    assert len(solp.basis) == 2
    for row in solp.basis:
        assert all(c % 2 == 0 for c in row)
    nos = solve_linear_module([[2]], [1], 2, 3)
    assert not nos.has_solution
    # brute-force oracle over Z/8: every reported solution solves, and
    # every solution is reported
    rng = random.Random(2)
    for _ in range(20):
        A = [[rng.randrange(8) for _ in range(2)] for _ in range(2)]
        b = [rng.randrange(8) for _ in range(2)]
        sol = solve_linear_module(A, b, 2, 3)
        brute = [
            (x, y) for x in range(8) for y in range(8)
            if (A[0][0] * x + A[0][1] * y - b[0]) % 8 == 0
            and (A[1][0] * x + A[1][1] * y - b[1]) % 8 == 0
        ]
        if not sol.has_solution:
            assert not brute
            continue
        got = sorted(tuple(v) for v in sol.all_elements())
        assert got == sorted(brute)


def test_howell_canonical():
    # span of (2,1) inside (Z/4)^2: howell adds the closure row (0,2)
    basis = howell_form(*pack_rows([[2, 1]], 2, 2))
    assert in_howell_span([2, 1], basis, 2, 2)
    assert in_howell_span([0, 2], basis, 2, 2)
    assert not in_howell_span([1, 0], basis, 2, 2)
    # canonical regardless of generator presentation
    b2 = howell_form(*pack_rows([[2, 3], [0, 2]], 2, 2))
    assert basis == b2


def test_exp_hand_cases():
    W = make_witt_ring(3, 1, 4)
    X = Matrix.from_ints(W, [[0, 3], [0, 0]])
    assert exp_trunc(X) == Matrix.from_ints(W, [[1, 3], [0, 1]])
    val = 0
    s = Fraction(0)
    for i in range(0, 12):
        s += Fraction(3 ** i, math.factorial(i))
    num, den = s.numerator, s.denominator
    target = (num * pow(den, -1, 81)) % 81
    assert exp_trunc(Matrix.from_ints(W, [[3]]))[0, 0].coeffs == (target,)
    with pytest.raises(OutsideExpDomain):
        exp_trunc(Matrix.from_ints(W, [[1]]))
    W2 = make_witt_ring(2, 1, 4)
    with pytest.raises(OutsideExpDomain):
        exp_trunc(Matrix.from_ints(W2, [[2, 0], [0, 2]]))
    # square-zero p=2 case: exp = 1 + X
    N = Matrix.from_ints(W2, [[0, 2], [0, 0]])
    assert exp_trunc(N) == Matrix.identity(W2, 2) + N


def test_exp_congruences_and_inverse():
    rng = random.Random(3)
    for p, q, n in [(3, 1, 5), (2, 1, 6), (5, 2, 3), (2, 2, 5)]:
        ring = make_witt_ring(p, q, n)
        lv = 1 if p >= 3 else 2
        for _ in range(25):
            X = Matrix(ring, [[ring.random_element(rng) * p ** lv
                               for _ in range(2)] for _ in range(2)])
            E = exp_trunc(X)
            assert E @ exp_trunc(-X) == Matrix.identity(ring, 2)
            if X.is_zero():
                continue
            l = int(X.min_valuation())
            target = 2 * l if p >= 3 else 2 * l - 1
            D = E - (Matrix.identity(ring, 2) + X)
            assert D.is_zero() or D.min_valuation() >= min(target, n)


def test_extract_congruence_digit():
    ring = make_witt_ring(3, 1, 4)
    rng = random.Random(4)
    for l in (1, 2):
        Z = Matrix(ring, [[ring.random_element(rng) for _ in range(2)]
                          for _ in range(2)])
        g = Matrix.identity(ring, 2) + Z.scale(3 ** l)
        z = extract_congruence_digit(g, l)
        assert Matrix.identity(ring, 2) + z.scale(3 ** l) == g


def test_charpoly_against_permutation_expansion():
    ring = make_witt_ring(2, 2, 3)
    rng = random.Random(5)

    def polymul(a, b):
        out = [ring.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    def oracle(M):
        r = M.rows
        poly = [ring.zero()] * (r + 1)
        for perm in itertools.permutations(range(r)):
            sign = 1
            seen = [False] * r
            for i in range(r):
                if seen[i]:
                    continue
                j, ln = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
            term = [ring.one()]
            for i in range(r):
                if perm[i] == i:
                    term = polymul(term, [-M[i, i], ring.one()])
                else:
                    term = polymul(term, [-M[i, perm[i]]])
            for k, c in enumerate(term):
                poly[k] = poly[k] + (c if sign > 0 else -c)
        return poly

    for r in (1, 2, 3, 4):
        for _ in range(6):
            M = _random_matrix(ring, r, rng)
            assert M.charpoly() == oracle(M)


def test_int_solver_matches_module():
    rng = random.Random(6)
    for _ in range(15):
        rows = [[rng.randrange(27) for _ in range(3)] for _ in range(3)]
        solver = IntSolver(*pack_rows(rows, 3, 3))
        b = [rng.randrange(27) for _ in range(3)]
        x = solver.solve(b)
        if x is None:
            continue
        for i in range(3):
            assert sum(rows[i][j] * x[j] for j in range(3)) % 27 == b[i] % 27
        for g in map(solver.packing.unpack, solver.kernel_generators()):
            for i in range(3):
                assert sum(rows[i][j] * g[j] for j in range(3)) % 27 == 0


def test_snf_transforms_are_units():
    from fcrystals.plinalg import det_valuation
    ring = make_witt_ring(2, 2, 3)
    rng = random.Random(9)
    for _ in range(10):
        A = _random_matrix(ring, 3, rng)
        s = smith_normal_form(A)
        assert det_valuation(s.left) == 0
        assert det_valuation(s.right) == 0
