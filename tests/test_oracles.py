"""Enumerative oracles on tiny rings, cross-checking the linear-algebra
routes against raw brute force."""

import itertools
import random

from fcrystals.crystal import new_crystal
from fcrystals.plinalg import Matrix, det_valuation
from fcrystals.semilinear import (
    CircularSystem,
    hom_module,
    isom_search,
    solve_circular,
)
from fcrystals.witt import make_witt_ring


def _all_matrices(ring, r):
    cells = r * r
    for combo in itertools.product(range(ring.pn), repeat=cells):
        yield Matrix.from_ints(
            ring, [list(combo[i * r:(i + 1) * r]) for i in range(r)])


def test_hom_module_matches_brute_force():
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(0)
    tried = 0
    while tried < 4:
        B1 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        B2 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        try:
            C1 = new_crystal(ring, B1)
            C2 = new_crystal(ring, B2)
        except Exception:
            continue
        tried += 1
        H = hom_module(C1, C2)
        brute = {
            tuple(g.flatten_ints())
            for g in _all_matrices(ring, 2)
            if (g @ C1.B) == (C2.B @ g.sigma())
        }
        module = {tuple(g.flatten_ints())
                  for g in _all_matrices(ring, 2) if H.contains(g)}
        assert brute == module
        # Howell size matches the count
        assert len(brute) == 2 ** H.size_log()


def test_isom_search_matches_brute_force():
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(1)
    tried = 0
    while tried < 6:
        B1 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        B2 = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)])
        try:
            C1 = new_crystal(ring, B1)
            C2 = new_crystal(ring, B2)
        except Exception:
            continue
        tried += 1
        res = isom_search(C1, C2)
        brute_found = False
        for g in _all_matrices(ring, 2):
            if (g @ C1.B) != (C2.B @ g.sigma()):
                continue
            try:
                if det_valuation(g) == 0:
                    brute_found = True
                    break
            except Exception:
                continue
        assert (res.witness is not None) == brute_found
        if res.witness is not None:
            w = res.witness
            assert (w @ C1.B) == (C2.B @ w.sigma())
            assert det_valuation(w) == 0


def test_solve_circular_matches_enumeration():
    fld = make_witt_ring(2, 2, 1)
    elems = [fld.element((a, b)) for a in range(2) for b in range(2)]
    rng = random.Random(2)
    for _ in range(10):
        L = rng.randrange(1, 4)
        c = [elems[rng.randrange(4)] for _ in range(L)]
        d = [fld.one() if rng.randrange(2) else fld.zero() for _ in range(L)]
        sol = solve_circular(
            CircularSystem(fld, L, [fld.one()] * L, c, d), +1)
        big = sol.ring
        # every reported value solves; enumeration over the solution field
        # finds at least one solution too
        bigel = [big.element(co) for co in
                 itertools.product(range(2), repeat=big.q)]
        found = False
        for xs in itertools.product(bigel, repeat=L):
            ok = True
            for j in range(L):
                lhs = xs[j] + c[j].embed(big) \
                    - d[j].embed(big) * xs[(j - 1) % L].frobenius()
                if not lhs.is_zero():
                    ok = False
                    break
            if ok:
                found = True
                break
        assert found
        # and the minimal extension claim: if solvable over the base, the
        # solver must have reported extension 1
        if sol.extension > 1:
            for xs in itertools.product(
                    [fld.element(co) for co in
                     itertools.product(range(2), repeat=2)], repeat=L):
                for j in range(L):
                    lhs = xs[j] + c[j] - d[j] * xs[(j - 1) % L].frobenius()
                    if not lhs.is_zero():
                        break
                else:
                    raise AssertionError("missed a base-field solution")


def test_fixed_lattice_matches_enumeration():
    from fcrystals.semilinear import fixed_lattice
    ring = make_witt_ring(2, 1, 2)
    rng = random.Random(3)
    tried = 0
    while tried < 4:
        B = Matrix.from_ints(ring, [[rng.randrange(4) for _ in range(2)]
                                    for _ in range(2)])
        try:
            C = new_crystal(ring, B)
        except Exception:
            continue
        tried += 1
        H, expo = fixed_lattice(C)
        brute = {tuple(g.flatten_ints()) for g in _all_matrices(ring, 2)
                 if (g @ C.B) == (C.B @ g.sigma())}
        module = {tuple(g.flatten_ints()) for g in _all_matrices(ring, 2)
                  if H.contains(g)}
        assert brute == module
