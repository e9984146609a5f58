"""The built-in verification suite: every acceptance check, reusable from
tests and from the command line.

Each check returns {"name", "ok", "detail", "seconds"}; arithmetic is
exact, so there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from .bounds import d_plus_bound0, epsilon_p, truncation_level_bound
from .crystal import (
    builtin_crystal,
    cyclic_from_exponents,
    direct_sum_crystal,
    hodge_data,
    new_crystal,
    newton_polygon,
    random_twist,
)
from .deviation import deviations, df_reduce
from .errors import CheckFailed, CrystalError, ExtensionCapExceeded
from .plinalg import (
    Matrix,
    exp_trunc,
    smith_normal_form,
    unit_inverse_matrix,
)
from .semilinear import (
    descends_to_subfield,
    fixed_lattice,
    hom_module,
    hom_stabilization_check,
    isom_search,
    cokernel_length,
)
from .stairs import (
    _matrix_unit_arrows,
    _monomial_shape,
    build_stairs_datum,
    fixed_datum,
    lang_run,
    stairs_algebra_run,
    stairs_run,
    thirds_family_certificate,
)
from .truncation import i_number_probe, polarized_isom_search, verschiebung
from .witt import make_witt_ring


def _require(ok, detail=""):
    """A check that `python -O` keeps: raise CheckFailed(detail) unless ok."""
    if not ok:
        raise CheckFailed(detail)


def _check(name, fn):
    t0 = time.time()
    try:
        detail = fn()
        ok = True
    except CheckFailed as exc:
        detail = f"FAILED: {exc}"
        ok = False
    except Exception as exc:  # noqa: BLE001 - suite must report, not die
        detail = f"ERROR: {type(exc).__name__}: {exc}"
        ok = False
    return {
        "name": name,
        "ok": ok,
        "detail": detail,
        "seconds": round(time.time() - t0, 2),
    }


# -- 1: deviation samples ------------------------------------------------------


def check_deviation_samples():
    _require(deviations([-1, 1, -1, -1, 1, 1, 0, -1]) == (2, 3))
    _require(deviations([1, 1, -2, 1, 3]) == (2, 2))
    _require(deviations([-1, 1, -1]) == (1, 1))
    return "three sample tuples match"


# -- 2: random tuple property suite --------------------------------------------


def _oracle_sign_deviation(tau):
    l = len(tau)
    total = sum(tau)

    def one_sided(side):
        best = 0
        for t in range(l):
            for length in range(1, l + 1):
                idxs = [(t + k) % l for k in range(length)]
                ok = True
                for v in range(length):
                    s = sum(tau[i] for i in idxs[v:])
                    if (side > 0 and s > 0) or (side < 0 and s < 0):
                        ok = False
                        break
                if ok:
                    s = sum(tau[i] for i in idxs)
                    best = max(best, -s if side > 0 else s)
        return best

    if total > 0:
        return one_sided(+1)
    if total < 0:
        return one_sided(-1)
    return min(one_sided(+1), one_sided(-1))


def check_tuple_properties(seed=0):
    rng = random.Random(seed)
    for _ in range(1000):
        l = rng.randrange(1, 9)
        tau = [rng.randrange(-3, 4) for _ in range(l)]
        s, w = deviations(tau)
        _require(s == _oracle_sign_deviation(tau), tau)
        _require(s <= w <= sum(abs(x) for x in tau), tau)
        red = df_reduce(tau)
        _require(max(red.rescale) <= s and min(red.rescale) >= 0, tau)
        if red.sign > 0:
            _require(all(x >= 0 for x in red.new_exponents), tau)
        else:
            _require(all(x <= 0 for x in red.new_exponents), tau)
        for i in range(l):
            _require(red.new_exponents[i]
                     == tau[i] + red.rescale[i] - red.rescale[(i + 1) % l])
    return "1000 random tuples: oracle match, bounds, uniform signs"


# -- 3: the cyclic example family ---------------------------------------------


def check_example_family():
    for r in (3, 4, 5):
        tau = [1] * (r - 1) + [-1]
        red = df_reduce(tau)
        for p in (2, 3):
            ring = make_witt_ring(p, 1, 2 * r + 3)
            C = builtin_crystal(ring, "example_2_3_2", r=r)
            np_ = newton_polygon(C)
            _require(np_.points == ((Fraction(r - 2, r), r),), (r, p, np_))
            resc = cyclic_from_exponents(ring, red.new_exponents)
            pol, s, _ = hodge_data(resc)
            _require(s == 0 and pol.slopes() == [0, 0] + [1] * (r - 2), (r, p))
            # the inclusion of the rescaled lattice has cokernel length 1
            f = Matrix.from_ints(ring, [
                [p ** red.rescale[i] if i == j else 0 for j in range(r)]
                for i in range(r)])
            scaled_resc = new_crystal(ring, resc.B.scale(p), 0)
            scaled_orig = new_crystal(ring, C.B, 0)
            _require(cokernel_length(f, scaled_resc, scaled_orig) == 1)
    return "r in {3,4,5}, p in {2,3}: hodge, newton, cokernel all match"


# -- 4: isoclinic fixed lattices ------------------------------------------------


def check_isoclinic_lattices():
    out = []
    for (r, c) in ((3, 2), (5, 3), (5, 2)):
        for p in (2, 3):
            ring = make_witt_ring(p, r, 4)
            C = builtin_crystal(ring, "isoclinic_3_3_6", r=r, c=c)
            _, expo = fixed_lattice(C)
            _require(expo == 1, (r, c, p, expo))
            # per-cycle sign deviations of the conjugation tuples
            _, tuples = _matrix_unit_arrows(
                ring, r, _monomial_shape(C.B, ring),
                [(i, j) for i in range(r) for j in range(r)])
            s_values = [deviations(t)[0] for t in tuples]
            _require(max(s_values) == 1, (r, c, p, s_values))
            _require(all(s <= 1 for s in s_values))
            out.append(f"({r},{c},p={p}): exponent 1, S-values ok")
    return "; ".join(out[:2]) + f"; {len(out)} cases total"


# -- 5: the rank-6 thirds family -------------------------------------------------


def check_thirds_family():
    ring = make_witt_ring(3, 3, 19)
    for alpha in (ring.from_int(0), ring.from_int(1), ring.gen()):
        C = builtin_crystal(ring, "phi_alpha_4_5", alpha=alpha)
        np_ = newton_polygon(C)
        _require(np_.points == ((Fraction(1, 3), 3), (Fraction(2, 3), 3)), np_)
    small = make_witt_ring(3, 3, 4)
    cert = thirds_family_certificate(small, alpha=1)
    _require(cert["components"]["upper_block"]["s_values"] == [0, 0, 1])
    C4 = builtin_crystal(small, "phi_alpha_4_5", alpha=1)
    T = verschiebung(C4)
    T.check_invariants()
    P = builtin_crystal(small, "polarized_4_5_4", alpha=1)
    _require(P.c == 1)
    return "newton {1/3 x3, 2/3 x3}; S-values [0,0,1]; V and Gram checks pass"


# -- 6: non-isomorphic pair at level 4 ------------------------------------------


def check_nonisomorphic_pair():
    ring = make_witt_ring(2, 6, 4)
    C1 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.from_int(1))
    C2 = builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.gen())
    res = isom_search(C1, C2)
    _require(res.witness is None and res.regime == "exhaustive")
    # control: equal parameters are isomorphic via the identity
    ctrl = isom_search(C1, C1)
    _require(ctrl.witness is not None)
    # the polarized variant inherits the definitive negative
    P1 = builtin_crystal(ring, "polarized_4_5_4", alpha=ring.from_int(1))
    P2 = builtin_crystal(ring, "polarized_4_5_4", alpha=ring.gen())
    pres = polarized_isom_search(P1, P2, precision=4)
    _require(pres.witness is None and pres.regime == "exhaustive")
    return ("definitive None over the mod-p Hom span (dim 18), control "
            "found, polarized variant also None")


# -- 7: stairs soundness ---------------------------------------------------------


def check_stairs_soundness(seed=0, fast=False):
    total = 60 if fast else 200
    rng = random.Random(seed)
    # (family, its parameters, p, q, ring precision, twist kind); twists
    # sit at the threshold level 2m + eps_p; lattice-supported twists are
    # used where the p-extension tower would exceed the built-in field table
    plans = (
        ("ordinary", {"r": 2, "d": 1}, 2, 1, 4, "general"),
        ("ordinary", {"r": 2, "d": 1}, 3, 1, 2, "general"),
        ("supersingular", {"d": 1}, 2, 2, 5, "general"),
        ("supersingular", {"d": 1}, 3, 2, 4, "lattice"),
        ("isoclinic_3_3_6", {"r": 3, "c": 2}, 2, 3, 5, "general"),
        ("isoclinic_3_3_6", {"r": 3, "c": 2}, 3, 3, 4, "lattice"),
    )
    per = max(1, total // len(plans))
    done = 0
    crosses = 0
    for family, kw, p, q, n, kind in plans:
        ring = make_witt_ring(p, q, n)
        C = builtin_crystal(ring, family, **kw)
        datum = build_stairs_datum(C)
        n0 = 2 * datum.torsion + epsilon_p(p)
        _require(n > n0 or kind == "lattice", (family, p))
        for k in range(per):
            if kind == "general":
                g = random_twist(ring, C.rank, n0, rng)
            else:
                g = datum.random_twist(n0, rng)
            cert = stairs_run(C, g, datum)
            _require(cert.reverify(), (family, p, k))
            _require(cert.level > n0 or cert.level >= ring.n,
                     (family, p, cert.level))
            done += 1
            if k % 10 == 0:
                # cross-check against the unit search over the same field
                res = isom_search(cert.crystal,
                                  cert.crystal.twist(cert.twist))
                _require(res.witness is not None, (family, p, k))
                crosses += 1
    # lang runs on the slope-zero-End families
    for p in (2, 3):
        ring = make_witt_ring(p, 2, 2)
        C = builtin_crystal(ring, "supersingular", d=1)
        okc = 0
        for _ in range(3):
            g = random_twist(ring, 2, 1, rng)
            try:
                cert = lang_run(C, g)
            except ExtensionCapExceeded:
                continue
            _require(cert.reverify(), ("lang", p))
            okc += 1
            done += 1
        _require(okc >= 1, f"no lang witness at p={p}")
    return f"{done} witnesses re-verified, {crosses} isom cross-checks agree"


# -- 8: i-number upper witnesses -------------------------------------------------


def check_i_number_uppers(seed=0):
    ring = make_witt_ring(3, 1, 6)
    for C, upper in (
            (builtin_crystal(ring, "ordinary", r=2, d=0), (0, "h0")),
            (builtin_crystal(ring, "ordinary", r=2, d=1), (1, "stairs")),
            (builtin_crystal(make_witt_ring(3, 2, 4), "supersingular", d=1),
             (1, "lang"))):
        et = i_number_probe(C, seed=seed)
        _require((et["upper"], et["upper_source"]) == upper, et)
    # sampled certificates behind the numbers
    W2 = make_witt_ring(2, 2, 2)
    cert = lang_run(builtin_crystal(W2, "supersingular", d=1),
                    random_twist(W2, 2, 1, random.Random(seed)))
    _require(cert.reverify() and cert.level == 2)
    W3 = make_witt_ring(3, 1, 3)
    CO = builtin_crystal(W3, "ordinary", r=2, d=1)
    cert2 = stairs_algebra_run(
        CO, random_twist(W3, 2, 1, random.Random(seed)))
    _require(cert2.reverify() and cert2.level == 3)
    th = thirds_family_certificate(make_witt_ring(2, 3, 4), alpha=1,
                                   seed=seed)
    _require(th["upper"] == 3)
    _require(all(v >= 1 for v in th["evidence"].values()), th["evidence"])
    return ("etale 0 (h0), ordinary 1 (stairs, witnessed), supersingular 1 "
            "(lang, witnessed), thirds family 3 (component certificate)")


# -- 9: Hom stabilization --------------------------------------------------------


def check_hom_stabilization():
    ss = builtin_crystal(make_witt_ring(3, 2, 8), "supersingular", d=1)
    iso = builtin_crystal(make_witt_ring(2, 3, 8), "isoclinic_3_3_6", r=3,
                          c=2)
    # supersingular with an inner twist of itself, p = 2, by a unit
    # u = 1 mod 2
    ring = make_witt_ring(2, 2, 8)
    C = builtin_crystal(ring, "supersingular", d=1)
    rng = random.Random(5)
    u = Matrix.identity(ring, 2) + Matrix(
        ring, [[ring.random_element(rng) * 2 for _ in range(2)]
               for _ in range(2)])
    Ct = new_crystal(ring, u @ C.B @ unit_inverse_matrix(u.sigma()), 0)
    results = []
    for k, (label, C1, C2) in enumerate((("ss/ss p=3", ss, ss),
                                         ("iso/iso p=2", iso, iso),
                                         ("ss/twist p=2", C, Ct)), 1):
        m12 = _pair_torsion(C1, C2)
        for t in (0, 1):
            ok, levels = hom_stabilization_check(C1, C2, m12, 1, t)
            _require(ok, (k, t, levels))
        results.append(f"{label} m12={m12}")
    return "; ".join(results)


def _pair_torsion(C1, C2):
    """Lattice torsion of End(C1 + C2), the stabilization constant."""
    CS = direct_sum_crystal(C1, C2)
    datum = fixed_datum(CS)
    _require(datum is not None, "sum has no full fixed lattice")
    return datum.torsion


# -- 10: descent to small fields --------------------------------------------------


def check_descent():
    out = []
    for p in (2, 3):
        ring2, ring4 = make_witt_ring(p, 2, 4), make_witt_ring(p, 4, 4)
        # (name, crystal, d): End at the ring's precision descends to the
        # degree-d subfield.  Rank 2: r! = 2 divides Q = 2; rank 3: r! = 6
        # divides Q = 6; rank 4 as a sum of rank-2 pieces: the summand
        # bound lcm(2, 2) = 2 divides Q = 4
        cases = (
            ("supersingular", builtin_crystal(ring2, "supersingular", d=1), 2),
            ("ordinary", builtin_crystal(ring2, "ordinary", r=2, d=1), 2),
            ("isoclinic", builtin_crystal(make_witt_ring(p, 6, 5),
                                          "isoclinic_3_3_6", r=3, c=2), 6),
            ("rank-4 sum", direct_sum_crystal(
                builtin_crystal(ring4, "supersingular", d=1),
                builtin_crystal(ring4, "ordinary", r=2, d=1)), 2),
        )
        for name, C, d in cases:
            red = make_witt_ring(p, C.ring.q, 2)
            reduced = [b.reduce_to(red) for b in hom_module(C, C).basis]
            _require(descends_to_subfield(reduced, d), (p, name))
            out.append(f"{name} p={p}")
    return "; ".join(out)


# -- 11: bound recursion -----------------------------------------------------------


def check_bounds():
    for c in range(6):
        _require(d_plus_bound0(1, c) == 0)
    for a in range(1, 7):
        _require(d_plus_bound0(a, 0) == 0)
    _require(d_plus_bound0(2, 1) == 2)
    prev = {}
    for a in range(1, 7):
        for c in range(0, 5):
            val = d_plus_bound0(a, c)
            if (a - 1, c) in prev:
                _require(val >= prev[(a - 1, c)])
            if (a, c - 1) in prev:
                _require(val >= prev[(a, c - 1)])
            prev[(a, c)] = val
    for p in (2, 3):
        _require(truncation_level_bound("pdiv", 3, p, d=0) == 0)
        _require(truncation_level_bound("pdiv", 3, p, d=3) == 0)
        # pdiv(r=2): rank 4, s-number 1, h-number 2
        _require(truncation_level_bound("pdiv", 2, p)
                 == 2 * (1 * 3 + d_plus_bound0(4, 2)) + epsilon_p(p))
        _require(truncation_level_bound("polarized", 1, p)
                 == 2 * (1 * 2 + d_plus_bound0(3, 2)) + epsilon_p(p))
    return "hand values, monotone grid, degenerate levels"


# -- 12: infrastructure properties --------------------------------------------------


def check_infrastructure(seed=0, fast=False):
    samples = 120 if fast else 500
    rng = random.Random(seed)
    rings = [make_witt_ring(2, 3, 4), make_witt_ring(3, 2, 3),
             make_witt_ring(5, 1, 3), make_witt_ring(7, 2, 2)]
    for i in range(samples):
        ring = rings[i % len(rings)]
        a, b, c = (ring.random_element(rng) for _ in range(3))
        _require((a + b) * c == a * c + b * c)
        _require(a * b == b * a and (a * b) * c == a * (b * c))
        _require((a + b).frobenius() == a.frobenius() + b.frobenius())
        _require((a * b).frobenius() == a.frobenius() * b.frobenius())
        x = a
        for _ in range(ring.q):
            x = x.frobenius()
        _require(x == a)
        ta = ring.teichmuller(a.residue())
        tb = ring.teichmuller(b.residue())
        _require(ta * tb == ring.teichmuller((ta * tb).residue()))
        # precision compatibility
        m = 1 + (i % ring.n)
        low = ring.reduce_to(m)
        _require((a * b).reduce_to(low) == a.reduce_to(low) * b.reduce_to(low))
        if a.valuation() + b.valuation() < ring.n:
            _require((a * b).valuation() == a.valuation() + b.valuation())
    # SNF invariance under unit transforms
    ring = make_witt_ring(2, 2, 4)
    for i in range(samples):
        M = Matrix(ring, [[ring.random_element(rng) for _ in range(3)]
                          for _ in range(3)])
        exps = smith_normal_form(M)
        U = _random_unit_matrix(ring, 3, rng)
        V = _random_unit_matrix(ring, 3, rng)
        _require(smith_normal_form(U @ M @ V) == exps)
    # exp congruences
    for i in range(samples):
        p, q, n = [(3, 1, 5), (2, 1, 6), (5, 1, 4)][i % 3]
        ring = make_witt_ring(p, q, n)
        lv = 1 if p >= 3 else 2
        X = Matrix(ring, [[ring.random_element(rng) * p ** lv
                           for _ in range(2)] for _ in range(2)])
        E = exp_trunc(X)
        _require(E @ exp_trunc(-X) == Matrix.identity(ring, 2))
        if not X.is_zero():
            l = int(X.min_valuation())
            target = 2 * l if p >= 3 else 2 * l - 1
            D = E - (Matrix.identity(ring, 2) + X)
            _require(D.is_zero() or D.min_valuation() >= min(target, n))
    # polygon base-change invariance
    small = make_witt_ring(2, 1, 10)
    big = make_witt_ring(2, 2, 10)
    done = 0
    while done < samples:
        B = Matrix(small, [[small.random_element(rng) for _ in range(2)]
                           for _ in range(2)])
        try:
            C = new_crystal(small, B, 0)
            _, _, h = hodge_data(C)
            if 1 * 2 * h + 1 > 10 or 2 * 2 * h + 1 > 10:
                continue
            np1 = newton_polygon(C)
        except CrystalError:
            continue
        np2 = newton_polygon(C.base_change(big))
        _require(np1.points == np2.points)
        done += 1
    return f"{samples} samples per property family, all exact"


def _random_unit_matrix(ring, r, rng):
    z, o = ring.zero(), ring.one()
    lo = [[o if i == j else (ring.random_element(rng) if i > j else z)
           for j in range(r)] for i in range(r)]
    hi = [[o if i == j else (ring.random_element(rng) if i < j else z)
           for j in range(r)] for i in range(r)]
    per = list(range(r))
    rng.shuffle(per)
    pm = [[o if per[i] == j else z for j in range(r)] for i in range(r)]
    return Matrix(ring, lo) @ Matrix(ring, pm) @ Matrix(ring, hi)


# -- suite driver -------------------------------------------------------------------


def run_paper_suite(seed=0, emit=None, fast=False):
    checks = [
        ("01 deviation samples", check_deviation_samples),
        ("02 tuple property suite",
         lambda: check_tuple_properties(seed=seed)),
        ("03 cyclic example family", check_example_family),
        ("04 isoclinic fixed lattices", check_isoclinic_lattices),
        ("05 rank-6 thirds family", check_thirds_family),
        ("06 non-isomorphic pair", check_nonisomorphic_pair),
        ("07 stairs soundness",
         lambda: check_stairs_soundness(seed=seed, fast=fast)),
        ("08 i-number uppers", lambda: check_i_number_uppers(seed=seed)),
        ("09 hom stabilization", check_hom_stabilization),
        ("10 descent to small fields", check_descent),
        ("11 bound recursion", check_bounds),
        ("12 infrastructure properties",
         lambda: check_infrastructure(seed=seed, fast=fast)),
    ]
    results = []
    for name, fn in checks:
        res = _check(name, fn)
        results.append(res)
        if emit is not None:
            emit(res)
    return results
