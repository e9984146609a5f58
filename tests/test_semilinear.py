import json
import random

import pytest

from fcrystals import semilinear
from fcrystals.cli import main
from fcrystals.crystal import builtin_crystal, new_crystal
from fcrystals.errors import (
    BadShape,
    ExtensionCapExceeded,
    RingMismatch,
    ShiftUnsupported,
)
from fcrystals.files import write_crystal
from fcrystals.plinalg import Matrix, smith_normal_form, unit_inverse_matrix
from fcrystals.semilinear import (
    RANDOMIZED_TRIALS,
    CircularSystem,
    IsomResult,
    cokernel_length,
    end_type,
    fixed_lattice,
    hom_image,
    hom_module,
    hom_stabilization_check,
    isom_search,
    sigma_conjugacy_trivialize,
    solve_circular,
    unit_search,
)
from fcrystals.witt import make_witt_ring


def test_hom_module_scalars():
    W = make_witt_ring(3, 1, 4)
    E1 = new_crystal(W, Matrix.identity(W, 1))
    H = hom_module(E1, E1, 3)
    assert len(H.basis) == 1 and H.profile == [0]
    assert H.basis[0][0, 0] == H.ring.one()


def test_hom_module_twist_is_trivial():
    W = make_witt_ring(3, 1, 4)
    E1 = new_crystal(W, Matrix.identity(W, 1))
    Tw = new_crystal(W, Matrix.scalar(W, 1, 3))
    assert hom_module(E1, Tw, 2).basis == []


def test_hom_module_rejects_shift():
    W = make_witt_ring(3, 1, 6)
    C = builtin_crystal(W, "example_2_3_2", r=3)
    with pytest.raises(ShiftUnsupported):
        hom_module(C, C)


def test_hom_elements_intertwine():
    rng = random.Random(0)
    W = make_witt_ring(2, 2, 3)
    C1 = builtin_crystal(W, "supersingular", d=1)
    C2 = builtin_crystal(W, "ordinary", r=2, d=1)
    for A, B in ((C1, C1), (C1, C2), (C2, C1)):
        H = hom_module(A, B)
        for b in H.basis:
            assert (b @ A.B) == (B.B @ b.sigma())


def test_fixed_lattice_exponents():
    W = make_witt_ring(2, 2, 4)
    E2 = new_crystal(W, Matrix.identity(W, 2))
    _, expo = fixed_lattice(E2)
    assert expo == 0
    for p in (2, 3):
        ring = make_witt_ring(p, 2, 4)
        SS = builtin_crystal(ring, "supersingular", d=1)
        _, expo = fixed_lattice(SS)
        assert expo == 1
        ring3 = make_witt_ring(p, 3, 4)
        I3 = builtin_crystal(ring3, "isoclinic_3_3_6", r=3, c=2)
        _, expo = fixed_lattice(I3)
        assert expo == 1


def test_isom_search_self_and_inner():
    W = make_witt_ring(3, 1, 4)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    res = isom_search(C, C)
    assert res.witness is not None and res.regime == "exhaustive"
    rng = random.Random(11)
    while True:
        u = Matrix.identity(W, 2) + Matrix(
            W, [[W.random_element(rng) * 3 for _ in range(2)]
                for _ in range(2)])
        if not any(smith_normal_form(u)):
            break
    C2 = new_crystal(W, u @ C.B @ unit_inverse_matrix(u.sigma()), 0)
    res2 = isom_search(C, C2)
    assert res2.witness is not None
    w = res2.witness
    assert (w @ C.B) == (C2.B @ w.sigma())
    assert not any(smith_normal_form(w))


def test_unit_search_randomized_regime():
    # End of a rank-5 unit crystal: p^25 residues, beyond EXHAUSTIVE_CAP
    wants = {
        2: (2, [[0, 1, 1, 1, 0], [0, 0, 1, 0, 1], [1, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 1, 1, 0, 1]]),
        3: (4, [[2, 1, 2, 0, 2], [1, 2, 0, 2, 2], [2, 1, 1, 0, 2],
                [1, 1, 2, 0, 1], [0, 0, 0, 0, 2]]),
    }
    for p, (trials, witness) in wants.items():
        W = make_witt_ring(p, 1, 2)
        E5 = new_crystal(W, Matrix.identity(W, 5))
        res = unit_search(hom_module(E5, E5), seed=0)
        assert (res.regime, res.trials) == ("randomized", trials)
        assert res.witness == Matrix.from_ints(W, witness)


def _unit_and_twisted_rank6():
    W = make_witt_ring(2, 1, 2)
    return (new_crystal(W, Matrix.identity(W, 6)),
            new_crystal(W, Matrix.from_ints(W, [
                [2 if i == j == 5 else int(i == j) for j in range(6)]
                for i in range(6)])))


def _isom_cli(tmp_path, capsys, C1, C2):
    """(exit code, stdout JSON) of `fcrystals isom` on the two crystals."""
    paths = []
    for name, C in (("c1", C1), ("c2", C2)):
        paths.append(str(tmp_path / f"{name}.json"))
        write_crystal(paths[-1], C)
    with pytest.raises(SystemExit) as exc:
        main(["isom", *paths])
    return exc.value.code, json.loads(capsys.readouterr().out)


def test_randomized_regime_exhausts_its_trials():
    # the bare unit search, with no group-type test: 2^30 residues
    E6, D6 = _unit_and_twisted_rank6()
    res = unit_search(hom_module(E6, D6))
    assert (res.witness, res.regime, res.trials) == (
        None, "randomized", RANDOMIZED_TRIALS)
    assert RANDOMIZED_TRIALS == 20000


def test_group_type_settles_a_pair_above_the_cap(tmp_path, capsys):
    # End(E6) has type 4^36 and Hom(E6, D6) 4^30, so no unit exists
    E6, D6 = _unit_and_twisted_rank6()
    H = hom_module(E6, D6)
    assert H.group_type == (2,) * 30
    assert end_type(E6, H.ring) == (2,) * 36
    assert isom_search(E6, D6) == IsomResult(None, "exhaustive", 0)
    assert _isom_cli(tmp_path, capsys, E6, D6) == (
        1, {"found": False, "regime": "exhaustive"})


def test_equal_group_types_above_the_cap_stay_inconclusive(tmp_path,
                                                           capsys):
    # diag(1^3, 2^3) against diag(1^2, 2^4) over W_2(F_3): Hom has 3 * 2
    # + 3 * 4 = 18 free entries, as End has 3^2 + 3^2, so both types are
    # 9^18 (a pair a^2 + b^2 = a a' + b b' with a + b = a' + b' needs
    # a = a' or a = b); no unit exists, as the eigenvalue 1 has
    # multiplicities 3 and 2, but the type test cannot tell
    W = make_witt_ring(3, 1, 2)
    A, B = (new_crystal(W, Matrix.from_ints(W, [
        [(1 if i < ones else 2) * (i == j) for j in range(6)]
        for i in range(6)])) for ones in (3, 2))
    H = hom_module(A, B)
    assert H.group_type == end_type(A, H.ring) == (2,) * 18
    assert isom_search(A, B) == IsomResult(None, "randomized",
                                           RANDOMIZED_TRIALS)
    assert _isom_cli(tmp_path, capsys, A, B) == (
        4, {"found": False, "regime": "randomized"})


def _thirds_pair():
    """Check 06's pair: the thirds family over W_4(F_64), alpha 1 and t."""
    W = make_witt_ring(2, 6, 4)
    return (builtin_crystal(W, "phi_alpha_4_5", alpha=W.one()),
            builtin_crystal(W, "phi_alpha_4_5", alpha=W.gen()))


def test_end_type_memo_hit_equals_a_fresh_crystal(monkeypatch):
    C1, C2 = _thirds_pair()
    assert C1.end_types == {}
    assert isom_search(C1, C2) == IsomResult(None, "exhaustive", 0)
    t = C1.end_types[4]
    assert list(C1.end_types) == [4] and C2.end_types == {}
    fresh = new_crystal(C1.ring, C1.B, C1.shift)
    assert fresh.end_types == {}
    assert end_type(fresh, C1.ring) == t == hom_module(C1, C1).group_type

    def no_solver(*args):
        raise AssertionError("a memo hit eliminated again")

    monkeypatch.setattr(semilinear, "IntSolver", no_solver)
    assert end_type(C1, C1.ring) is t


def test_new_crystals_start_with_an_empty_memo():
    W = make_witt_ring(3, 2, 4)
    C = builtin_crystal(W, "ordinary", r=3, d=1)
    end_type(C, W)
    assert list(C.end_types) == [4]
    for D in (C.twist(Matrix.identity(W, 3)),
              C.reduce_to(make_witt_ring(3, 2, 3)),
              C.base_change(make_witt_ring(3, 4, 4))):
        assert D.end_types == {}


def test_a_lower_precision_gets_its_own_entry():
    C1, C2 = _thirds_pair()
    assert isom_search(C1, C2, precision=2).witness is None
    assert list(C1.end_types) == [2]
    assert isom_search(C1, C2).witness is None
    assert sorted(C1.end_types) == [2, 4]
    assert C1.end_types[2] == hom_module(C1, C1, 2).group_type
    assert C1.end_types[2] != C1.end_types[4]


def test_the_type_test_runs_before_the_scan(monkeypatch):
    # End's first unit lies in the first lane block of its scan, yet a
    # fresh C1 pays End's type before the scan starts
    C1, _ = _thirds_pair()
    scan, seen = semilinear._scan_range, []

    def scan_after_the_type_test(*args, **kwargs):
        seen.append(sorted(C1.end_types))
        return scan(*args, **kwargs)

    monkeypatch.setattr(semilinear, "_scan_range", scan_after_the_type_test)
    assert C1.end_types == {}
    assert isom_search(C1, C1).witness is not None
    assert seen == [[4]]


def test_isom_search_distinguishes_newton():
    W = make_witt_ring(2, 1, 4)
    O = builtin_crystal(W, "ordinary", r=2, d=1)
    S = builtin_crystal(W, "supersingular", d=1)
    res = isom_search(O, S)
    assert res.witness is None and res.regime == "exhaustive"


def test_cokernel_length():
    W = make_witt_ring(3, 1, 4)
    C = builtin_crystal(W, "ordinary", r=2, d=1)
    assert cokernel_length(Matrix.identity(W, 2), C, C) == 0
    assert cokernel_length(Matrix.scalar(W, 2, 3), C, C) == 2
    with pytest.raises(BadShape):
        bad = Matrix.from_ints(W, [[1, 1], [0, 1]])
        cokernel_length(bad, C, C)


def test_solve_circular_minus():
    F = make_witt_ring(2, 2, 1)
    sysm = CircularSystem(
        F, 3,
        [F.zero(), F.one(), F.one()],
        [F.one(), F.gen(), F.zero()],
        [F.one()] * 3,
    )
    sol = solve_circular(sysm, -1)
    assert sol.extension == 1
    zsol = solve_circular(CircularSystem(
        F, 2, [F.zero(), F.one()], [F.zero()] * 2, [F.one()] * 2), -1)
    assert all(x.is_zero() for x in zsol.values)


def test_solve_circular_plus():
    F = make_witt_ring(2, 1, 1)
    # x = 1 + x^2 has its roots in F_4
    sol = solve_circular(CircularSystem(
        F, 1, [F.one()], [F.one()], [F.one()]), +1)
    assert sol.extension == 2
    x = sol.values[0]
    assert x == F.one().embed(sol.ring) + x * x
    # d = 0 short-circuits to x = -c/b
    sol2 = solve_circular(CircularSystem(
        F, 1, [F.one()], [F.one()], [F.zero()]), +1)
    assert sol2.extension == 1 and sol2.values[0] == F.one()


def test_solve_circular_extension_cap():
    F = make_witt_ring(2, 12, 1)
    # pick u with absolute trace 1: x + u = x^2 then has no root in
    # F_{2^12} and the needed quadratic extension is beyond the table
    u = None
    x = F.gen()
    for k in range(1, 30):
        tr = x
        y = x
        for _ in range(11):
            y = y.frobenius()
            tr = tr + y
        if tr == F.one():
            u = x
            break
        x = x * F.gen()
    assert u is not None
    with pytest.raises(ExtensionCapExceeded):
        solve_circular(CircularSystem(
            F, 1, [F.one()], [u], [F.one()]), +1)


def test_solve_circular_rejects_coefficients_from_another_ring():
    F, G = make_witt_ring(3, 1, 1), make_witt_ring(3, 2, 1)
    for case, b in ((1, [F.one()]), (-1, [F.zero()])):
        with pytest.raises(RingMismatch):
            solve_circular(CircularSystem(F, 1, b, [G.one()], [F.one()]),
                           case)


def test_solve_circular_checks_rings_on_a_kept_key():
    # the key (case, b, d) is kept after the first solve; c from another
    # ring, even one with as many coordinates, and a ring that is not a
    # field are still refused
    F, G, W = (make_witt_ring(3, 1, 1), make_witt_ring(3, 2, 1),
               make_witt_ring(3, 1, 2))
    for case, b in ((1, [F.one()]), (-1, [F.zero()])):
        solve_circular(CircularSystem(F, 1, b, [F.one()], [F.one()]), case)
        assert (case, (b[0].coeffs,), (F._one,)) in F._circular_cache
        for c in (G.one(), W.one()):
            with pytest.raises(RingMismatch):
                solve_circular(CircularSystem(F, 1, b, [c], [F.one()]),
                               case)
        with pytest.raises(BadShape):
            solve_circular(CircularSystem(
                W, 1, [W.from_int(case == 1)], [W.one()], [W.one()]), case)


def test_solve_circular_checks_the_length():
    F = make_witt_ring(3, 1, 1)
    one = F.one()
    for case, b in ((1, one), (-1, F.zero())):
        assert solve_circular(CircularSystem(
            F, 2, [b, one], [one, one], [one, one]), case).extension >= 1
        for length, bs, cs, ds in (
                (2, [b, one], [one], [one, one]),       # c one short
                (2, [b, one], [one] * 3, [one, one]),   # c one long
                (2, [b, one], [one, one], [one]),       # d one short
                (3, [b, one], [one, one], [one, one]),  # length one long
                (5, [b], [one], [one])):                # once a 1-cycle
            with pytest.raises(BadShape):
                solve_circular(CircularSystem(F, length, bs, cs, ds), case)


def test_solve_circular_checks_every_new_key_after_the_cache_fills():
    # valid systems fill F's cache for these b and d; the same b and d in
    # a case they do not fit, and an unknown case, still raise BadShape
    F = make_witt_ring(5, 1, 1)
    one, zero = F.one(), F.zero()
    for case, b, d in ((1, [one, one], [one, one]),
                       (1, [one, one], [zero, one]),
                       (-1, [zero, one], [one, one])):
        solve_circular(CircularSystem(F, 2, b, [one, one], d), case)
    assert len(F._circular_cache) >= 3
    for case, b, d in ((-1, [one, one], [one, one]),    # no b_j = 0
                       (-1, [one, one], [zero, one]),   # and a d_j = 0
                       (1, [zero, one], [one, one]),    # b_0 not a unit
                       (0, [one, one], [one, one])):    # no case 0
        with pytest.raises(BadShape):
            solve_circular(CircularSystem(F, 2, b, [one, one], d), case)
        assert (case, tuple([e.coeffs for e in b]),
                tuple([e.coeffs for e in d])) not in F._circular_cache


def test_sigma_conjugacy():
    F4 = make_witt_ring(2, 2, 1)
    rng = random.Random(9)
    gs = []
    for _ in range(3):
        while True:
            g = Matrix(F4, [[F4.random_element(rng) for _ in range(2)]
                            for _ in range(2)])
            if not any(smith_normal_form(g)):
                break
        gs.append(g)
    # the identity is trivialized with D = 1, also where the solution
    # space (p^9 elements for M_3 over F_5) is too large to scan whole
    ones = [Matrix.identity(F4, 2),
            Matrix.identity(make_witt_ring(5, 1, 1), 3)]
    for g in ones + gs:
        x, big, D = sigma_conjugacy_trivialize(g)
        assert D == 1 or g not in ones
        assert x @ g.embed(big) @ unit_inverse_matrix(x.sigma()) \
            == Matrix.identity(big, g.rows)


def test_restriction_functoriality():
    W = make_witt_ring(2, 2, 5)
    C = builtin_crystal(W, "supersingular", d=1)
    H3 = hom_module(C, C, 3)
    H2 = hom_module(C, C, 2)
    low = H2.ring
    for b in H3.basis:
        assert H2.contains(b.reduce_to(low))


def test_hom_stabilization_small():
    ring = make_witt_ring(3, 2, 8)
    C = builtin_crystal(ring, "supersingular", d=1)
    ok, levels = hom_stabilization_check(C, C, 1, 1, 0)
    assert ok, levels
    img = hom_image(C, C, 5, 2)
    assert img  # nonzero module


def test_hom_stabilization_compares_spans():
    # a conjugate whose images reach howell_form with their generators
    # in different orders: the bases are canonical, so they compare equal
    W = make_witt_ring(2, 1, 6)
    C = builtin_crystal(W, "ordinary", r=3, d=1)
    u = Matrix.from_ints(W, [[29, 1, 25], [29, 51, 44], [45, 58, 34]])
    Cu = new_crystal(W, u @ C.B @ unit_inverse_matrix(u.sigma()))
    assert hom_image(Cu, Cu, 2, 2) == hom_image(Cu, Cu, 3, 2)
    assert hom_stabilization_check(Cu, Cu, 0, 0, 0) == (True, (2, 6))
    assert hom_stabilization_check(C, C, 0, 0, 0) == (True, (2, 6))
