import itertools
import math
import random
from fractions import Fraction

import pytest

from fcrystals import plinalg
from fcrystals.crystal import builtin_crystal
from fcrystals.errors import (
    BadShape,
    OutsideExpDomain,
    RingMismatch,
    SingularAtPrecision,
)
from fcrystals.plinalg import (
    IntSolver,
    Matrix,
    _intertwiner_system,
    exp_series,
    exp_trunc,
    howell_coefficients,
    howell_contains,
    howell_form,
    inverse_with_shift,
    pack_rows,
    smith_normal_form,
    solve_linear_module,
)
from fcrystals.witt import WittRing, field_walk, make_witt_ring


def _random_matrix(ring, r, rng):
    return Matrix(ring, [[ring.random_element(rng) for _ in range(r)]
                         for _ in range(r)])


def _all_elements(sol):
    """Every solution of a `SolutionModule` (exponential; small cases)."""
    if not sol.has_solution:
        return
    pn = sol.p ** sol.n
    for coeffs in howell_coefficients(sol.basis, sol.p, sol.n):
        acc = list(sol.particular)
        for c, row in zip(coeffs, sol.basis):
            if c:
                acc = [(a + c * x) % pn for a, x in zip(acc, row)]
        yield acc


def test_snf_hand_cases():
    W = make_witt_ring(2, 1, 3)
    assert smith_normal_form(Matrix.identity(W, 3)) == [0, 0, 0]
    assert smith_normal_form(Matrix.from_ints(W, [[1, 0], [0, 4]])) == [0, 2]
    s = smith_normal_form(Matrix.from_ints(W, [[2, 1], [0, 2]]))
    assert s == [0, 2]


def test_snf_transform_identity_random():
    ring = make_witt_ring(3, 2, 3)
    rng = random.Random(0)
    for _ in range(30):
        A = _random_matrix(ring, 3, rng)
        s = smith_normal_form(A)
        assert sorted(s) == s


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
        # C is a left inverse too where it is unique, mod p^(n - e)
        low = ring.reduce_to(ring.n - e)
        assert (C @ A).reduce_to(low) == Matrix.scalar(low, 2, ring.p ** e)


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
        got = sorted(tuple(v) for v in _all_elements(sol))
        assert got == sorted(brute)


def test_howell_canonical():
    # span of (2,1) inside (Z/4)^2: howell adds the closure row (0,2)
    basis = howell_form(*pack_rows([[2, 1]], 2, 2))
    assert howell_contains(basis, [[2, 1], [0, 2]], 2, 2)
    assert not howell_contains(basis, [[1, 0]], 2, 2)
    assert not howell_contains(basis, [[2, 1], [1, 0]], 2, 2)
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
    with pytest.raises(BadShape):   # not the 2 x 2 identity
        exp_trunc(Matrix.zero(W, 2, 3))
    # square-zero p=2 case: exp = 1 + X
    N = Matrix.from_ints(W2, [[0, 2], [0, 0]])
    assert exp_trunc(N) == Matrix.identity(W2, 2) + N
    # and on a cell: valuation 1 at n = 2 squares to zero
    ring = make_witt_ring(2, 3, 2)
    c = ring._smul(2, ring.gen().coeffs)
    assert exp_series(ring, c, WittRing._mul) == c


@pytest.mark.parametrize("p, q, n", [
    (2, 1, 4), (2, 3, 5), (2, 12, 5), (3, 2, 4), (3, 6, 4), (5, 1, 3),
    (7, 1, 5)])
def test_cell_series_is_the_one_by_one_exp_trunc(p, q, n):
    # the cells of matrix-unit data: exp(c) - 1 on coordinates, at every
    # valuation of the domain, units times p^v and sums of them
    ring = make_witt_ring(p, q, n)
    rng = random.Random(100 * p + 10 * q + n)
    lowest = 1 if p >= 3 else 2
    for _ in range(60):
        v = rng.randint(lowest, n - 1)
        c = ring._smul(p ** v, (ring.random_unit(rng) if rng.random() < 0.5
                                else ring.random_element(rng)).coeffs)
        if not any(c):
            continue
        want = ring._sub(exp_trunc(Matrix._make(ring, 1, 1, c)).flat,
                         ring._one)
        got = exp_series(ring, c, WittRing._mul)
        assert got == want, (c, v)
        # exp(c) exp(-c) = 1, and at q = 1 the rational series itself
        inv = ring._add(exp_series(ring, ring._neg(c), WittRing._mul),
                        ring._one)
        assert ring._mul(ring._add(got, ring._one), inv) == ring._one
        if q == 1:
            s = sum(Fraction(c[0] ** i, math.factorial(i))
                    for i in range(1, 4 * n + 4))
            assert got == (s.numerator * pow(s.denominator, -1, ring.pn)
                           % ring.pn,)
    # outside the domain: a unit, and at p = 2 a valuation-1 cell whose
    # square is not zero
    outside = [ring._one] + ([ring._smul(2, ring._one)] if p == 2 else [])
    for c in outside:
        with pytest.raises(OutsideExpDomain):
            exp_series(ring, c, WittRing._mul)
        with pytest.raises(OutsideExpDomain):
            exp_trunc(Matrix._make(ring, 1, 1, c))


def test_chained_embeds_along_the_field_walk_are_the_direct_embed():
    # F_(p^q) -> F_(p^(q D1)) -> F_(p^(q D1 D2)), as the stairs engine's
    # base changes take it, against one embedding into the last field
    rng = random.Random(21)
    for p, q, n, D1, D2 in ((2, 1, 3, 2, 3), (2, 2, 2, 3, 2),
                            (3, 1, 2, 2, 2), (3, 2, 3, 3, 2),
                            (5, 1, 2, 2, 2), (7, 1, 2, 3, 2)):
        ring = make_witt_ring(p, q, n)
        mid = next(R for D, R in field_walk(p, q, n) if D == D1)
        top = next(R for D, R in field_walk(p, q * D1, n) if D == D2)
        for _ in range(5):
            A = Matrix(ring, [[ring.random_element(rng) for _ in range(3)]
                              for _ in range(3)])
            assert A.embed(mid).embed(top) == A.embed(top), (p, q, D1, D2)


def test_products_and_sums_check_rings_and_shapes():
    # a product packed at one ring's q would misread the other's
    # coordinates: A @ (t I) over W_3(F_3) and W_3(F_9) was the zero matrix
    R, S = make_witt_ring(3, 1, 3), make_witt_ring(3, 2, 3)
    A = Matrix.from_ints(R, [[1, 2], [3, 4]])
    tI = Matrix.scalar(S, 2, S.gen())
    for call in (lambda: A @ tI, lambda: tI @ A, lambda: A + tI,
                 lambda: tI - A):
        with pytest.raises(RingMismatch):
            call()
    B = Matrix.from_ints(R, [[1, 2, 3]])
    for call in (lambda: A @ B, lambda: A + B, lambda: A - B):
        with pytest.raises(BadShape):
            call()
    # an equal ring that is not the cached object is the same ring
    twin = WittRing(3, 1, 3)
    assert A @ Matrix.identity(twin, 2) == A == A + Matrix.zero(twin, 2)
    assert B @ Matrix.identity(R, 3) == B


def test_malformed_matrices_are_shape_errors():
    """Library input errors are `CrystalError`s (`BadShape`), which the
    CLI maps to exit 2, not `ValueError`s."""
    R = make_witt_ring(3, 2, 2)
    a = R.one()
    for call in (lambda: Matrix(R, [[a, a], [a]]),
                 lambda: Matrix.from_ints(R, [[1], [2, 3]]),
                 lambda: Matrix.from_flat_ints(R, 1, 2, [1, 2, 3]),
                 lambda: Matrix.from_ints(R, [[1, 2]]).charpoly(),
                 lambda: smith_normal_form(Matrix.from_ints(R, [[1, 2]]))):
        with pytest.raises(BadShape):
            call()
    M = Matrix.from_flat_ints(R, 1, 2, [1, 2, 3, 4])
    assert M.rows == 1 and M.cols == 2 and M.flat == (1, 2, 3, 4)


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


def test_int_solver_builds_r_on_first_read():
    # exps and the kernel type come with the elimination; R waits for the
    # first solve or kernel generators, and is the same either way
    rng = random.Random(23)
    rows = [[rng.randrange(27) for _ in range(4)] for _ in range(4)]
    first, second = (IntSolver(*pack_rows(rows, 3, 3)) for _ in range(2))
    first.kernel_type()
    assert "_rt" not in vars(first) and "_rt" not in vars(second)
    b = [rng.randrange(27) for _ in range(4)]
    x = first.solve(b)
    gens = second.kernel_generators()
    assert "_rt" in vars(first) and "_rt" in vars(second)
    assert first._rt == second._rt and not hasattr(first, "_cops")
    assert (x, gens) == (second.solve(b), first.kernel_generators())


def test_int_solver_reads_a_row_valuation_only_when_it_could_win(
        monkeypatch):
    """An update never lowers a row's valuation, so the pivot search keeps
    the old one as a lower bound and re-reads a changed row only when that
    bound is below the best found so far.  On the 216 x 216 Hom system of
    the rank-6 thirds family over W_4(F_64) this takes 351 reads; reading
    every changed row takes 839."""
    ring = make_witt_ring(2, 6, 4)
    C1 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.one())
    C2 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.gen())
    P, rows = _intertwiner_system(C1.B, C2.B, ring)
    reads = []
    monkeypatch.setattr(P, "valuation",
                        lambda x, read=P.valuation: reads.append(x) or read(x))
    S = IntSolver(P, rows)
    assert len(reads) <= 400
    assert len(S.exps) == 216 and any(0 < e < 4 for e in S.exps)


def test_int_solver_unpacks_a_row_only_to_build_r(monkeypatch):
    """The elimination tests and reads the pivot slot of each row through
    its mask and keeps the negated pivot rows packed, so on the 216 x 216
    Hom system of the rank-6 thirds family over W_4(F_64) a reader of the
    exponents alone unpacks no row; building R unpacks each pivot row
    once."""
    ring = make_witt_ring(2, 6, 4)
    C1 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.one())
    C2 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.gen())
    P, rows = _intertwiner_system(C1.B, C2.B, ring)
    unpacked = []
    monkeypatch.setattr(P, "unpack",
                        lambda x, read=P.unpack: unpacked.append(x) or read(x))
    S = IntSolver(P, rows)
    S.kernel_type()
    assert unpacked == [] and len(S.exps) == 216
    S.kernel_generators()
    assert len(unpacked) == sum(e < 4 for e in S.exps) > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_smith_rows_are_the_rows_of_x_to_a_x(p, monkeypatch):
    """`_smith_solver` eliminates the q r x q r rows over Z/p^n of
    x -> A x, row (i, t) and column (j, s) holding coordinate t of
    A[i][j] tau^s: the rows `_intertwiner_system` gives for the row
    vectors g with g A^T = 0, packed the same way."""
    seen = []
    real = plinalg.IntSolver
    monkeypatch.setattr(plinalg, "IntSolver", lambda P, rows: (
        seen.append((P, rows)) or real(P, rows)))
    rng = random.Random(p)
    for q in (1, 2, 3, 6, 8):
        for case in range(7):
            ring = make_witt_ring(p, q, rng.randint(1, 4))
            r = rng.randint(1, 4)
            # sparse: about half the entries zero
            A = Matrix(ring, [[ring.random_element(rng)
                               if rng.random() < 0.5 else ring.zero()
                               for _ in range(r)] for _ in range(r)])
            seen.clear()
            plinalg._smith_solver(A)
            P, rows = seen[0]
            want_P, want = _intertwiner_system(A.transpose(),
                                               Matrix.zero(ring, 1), ring)
            ctx = (p, q, case, A)
            assert (P.p, P.n, P.cols, P.w) == (
                want_P.p, want_P.n, want_P.cols, want_P.w), ctx
            assert list(rows) == want, ctx


def _state(P):
    """P's attributes, and the constants its reducers hold: a `SwarMod`
    reducer's closure cells, or the mask an AND is bound to."""
    out = dict(vars(P))
    for f in [P.reduce, *P._rems]:
        out[id(f)] = [c.cell_contents for c in f.__closure__] if hasattr(
            f, "__closure__") else f.__self__
    return out


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (7, 1)])
def test_a_packing_is_shared_and_holds_only_constants(p, n):
    """`packing` builds one `_PackedRows` per (p, n, cols) and every
    caller shares it, so nothing that runs on it may change it."""
    P = plinalg.packing(p, n, 5)
    assert P is plinalg.packing(p, n, 5) and P is pack_rows([[0] * 5], p, n)[0]
    before = _state(P)
    rng = random.Random(p)
    rows = [[rng.randrange(p ** n) for _ in range(5)] for _ in range(6)]
    solver = IntSolver(*pack_rows(rows, p, n))
    solver.solve([rng.randrange(p ** n) for _ in range(6)])
    howell_form(P, solver.kernel_generators())
    howell_form(*pack_rows(rows, p, n))
    assert _state(P) == before
