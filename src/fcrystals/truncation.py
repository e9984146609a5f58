"""D-truncations, truncation-level isomorphism tests, and i-number probes.

A Dieudonne module (shift 0, h-number <= 1) carries a Verschiebung with
F sigma(V) = V sigma^{-1}(F) = p; its D-truncation at a level is the
pair (F, V) mod p^level.  Isomorphism of D-truncations is plain linear
algebra plus a unit search, and a truncation isomorphism upgrades to a
congruence of the semilinear maps themselves when a splitting of the
Hodge filtration is available.
"""

from dataclasses import dataclass

from .bounds import epsilon_p
from .crystal import hodge_data
from .errors import (
    BadShape,
    CrystalError,
    InternalError,
    LiftFailed,
    NoSplitForm,
    NotDieudonne,
    SearchSpaceTooLarge,
)
from .plinalg import (
    Matrix,
    howell_coefficients,
    inverse_with_shift,
    reduce_against_howell,
    smith_normal_form,
    unit_inverse_matrix,
)
from .semilinear import (
    EXHAUSTIVE_CAP,
    HomModule,
    IsomResult,
    _intertwiner_system,
    _row_combination,
    _scan_range,
    hom_image,
    hom_module,
    isom_search,
    unit_search,
)
from .witt import INFINITY, make_witt_ring


@dataclass
class DTruncation:
    ring: object     # precision = truncation level
    rank: int
    F: Matrix        # phi mod p^level (sigma-semilinear)
    V: Matrix        # verschiebung mod p^level (sigma^{-1}-semilinear)

    def check_invariants(self):
        r = self.rank
        pid = Matrix.scalar(self.ring, r, self.ring.p)
        if self.F @ self.V.sigma() != pid:
            raise InternalError("F sigma(V) != p")
        if self.V @ self.F.sigma(self.ring.q - 1) != pid:
            raise InternalError("V sigma^-1(F) != p")
        return True


def verschiebung(C, level=None) -> DTruncation:
    """The pair (phi, p * phi^{-1}) mod p^level for a Dieudonne module.

    V is sigma^{-1}(p^(1-e) Cm) with B Cm = p^e (inverse_with_shift).
    B mod p^n fixes Cm only mod p^(n-e), so only levels up to n - e are
    determined by C.  The default level n takes V of the zero lift of B:
    when e = 1, other lifts B + p^n X can change V mod p^n, and other V's
    pass the same invariants at level n.
    """
    if C.shift != 0:
        raise NotDieudonne("need shift 0")
    _, s, h = hodge_data(C)
    if s != 0 or h > 1:
        raise NotDieudonne(f"need s = 0 and h <= 1, have ({s}, {h})")
    ring = C.ring
    level = ring.n if level is None else level
    Cm, e = inverse_with_shift(C.B)
    # V = sigma^{-1}(p B^{-1}) = sigma^{-1}(p^(1-e) Cm), integral since e <= 1
    V = Cm.scale(ring.p ** (1 - e)).sigma(ring.q - 1)
    rm = make_witt_ring(ring.p, ring.q, level)
    T = DTruncation(rm, C.rank, C.B.reduce_to(rm), V.reduce_to(rm))
    T.check_invariants()
    return T


def d_trunc_hom_module(T1: DTruncation, T2: DTruncation) -> HomModule:
    """{f : f F1 = F2 sigma(f) and f V1 = V2 sigma^{-1}(f)}, a Howell basis."""
    if T1.ring != T2.ring:
        raise BadShape("truncations must share a ring")
    ring = T1.ring
    P, rows = _intertwiner_system(T1.F, T2.F, ring)
    _, more = _intertwiner_system(T1.V, T2.V, ring, sigma_power=ring.q - 1)
    return HomModule.from_system(ring, (T2.rank, T1.rank), P, rows + more)


def d_trunc_isom_search(T1: DTruncation, T2: DTruncation) -> IsomResult:
    if (T1.rank, T1.ring) != (T2.rank, T2.ring):
        raise BadShape("mismatched truncations")
    H = d_trunc_hom_module(T1, T2)
    return unit_search(H)


# -- split form and the congruence upgrade -----------------------------------


@dataclass
class SplitForm:
    """Grading basis positions with B = B0 * diag(p on the degree-1 part)."""

    grading: list    # 0 or 1 per basis position
    B0: Matrix       # unit matrix witness

    @property
    def dim(self):
        return sum(self.grading)


def detect_split_form(C) -> SplitForm:
    """Split form off the matrix when each column is 0- or 1-divisible.

    Works for monomial and block-structured B; raises NoSplitForm if a
    column mixes valuations.
    """
    ring = C.ring
    r = C.rank
    grading = []
    for j in range(r):
        col = [C.B[i, j] for i in range(r)]
        vals = [e.valuation() for e in col if not e.is_zero()]
        v = min(vals)
        if v not in (0, 1):
            raise NoSplitForm(f"column {j} has valuation {v}")
        grading.append(int(v))
    ents = [[C.B[i, j].divide_exact(grading[j]) for j in range(r)]
            for i in range(r)]
    B0 = Matrix(ring, ents)
    exps = smith_normal_form(B0).exponents
    if not exps or max(exps) != 0:
        raise NoSplitForm("unit part of the factorization is singular")
    return SplitForm(grading, B0)


def congruence_upgrade(C, g, f_trunc: Matrix, level: int,
                       split: SplitForm = None):
    """Turn a D-truncation isomorphism into a congruence of twists.

    Given f mod p^level with f F = (gF) sigma(f) and the matching
    Verschiebung identity, produce g' in GL(W) with
    g' (g phi) g'^{-1} = g_q phi and g_q = 1 mod p^level.
    Returns (g', g_q).
    """
    ring = C.ring
    r = C.rank
    if split is None:
        split = detect_split_form(C)
    # lift f to a unit at working precision
    f_lift = Matrix.from_flat_ints(
        ring, r, r, [c % ring.pn for c in f_trunc.flatten_ints()])
    exps = smith_normal_form(f_lift).exponents
    if not exps or max(exps) != 0:
        raise LiftFailed("truncation isomorphism does not lift to a unit")
    # after conjugating by the lift, the twist is congruent to 1 mod p^(level-?)
    g1 = f_lift @ g @ C.B @ unit_inverse_matrix(f_lift.sigma()) \
        @ _clear_inverse(C.B, ring)
    # sigma_0 = B0 as a sigma-linear map; g_0 = sigma_0^{-1} g1 sigma_0
    B0_inv = unit_inverse_matrix(split.B0)
    g0 = (B0_inv @ g1 @ split.B0).sigma(ring.q - 1)
    # extract the Hom(F1, F0) block of (g0 - 1) / p^(level-1)
    diff = g0 - Matrix.identity(ring, r)
    if not diff.is_zero() and diff.min_valuation() < level - 1:
        raise LiftFailed(
            "conjugated twist is not congruent to 1 mod p^(level-1)"
        )
    u = diff.divide_exact(level - 1) if not diff.is_zero() else diff
    z = ring.zero()
    u_block = [[u[i, j] if split.grading[i] == 0 and split.grading[j] == 1
                else z for j in range(r)] for i in range(r)]
    gtilde = Matrix.identity(ring, r) + \
        Matrix(ring, u_block).scale(ring.p ** level)
    g_prime = gtilde @ f_lift
    # g_q phi = g' (g phi) g'^{-1}
    num = g_prime @ g @ C.B @ unit_inverse_matrix(g_prime.sigma())
    g_q = num @ _clear_inverse(C.B, ring)
    lvl = g_q.congruence_level()
    if lvl != INFINITY and lvl < level:
        raise LiftFailed(f"upgrade reached level {lvl} < {level}")
    return g_prime, g_q


def _clear_inverse(B, ring):
    Cm, e = inverse_with_shift(B)
    if e == 0:
        return Cm
    # B^{-1} with denominator: fold into the caller's product exactly
    return _DenominatorInverse(Cm, e)


class _DenominatorInverse:
    """Right-multiplication by p^(-e) Cm, with exact divisibility checks."""

    def __init__(self, Cm, e):
        self.Cm = Cm
        self.e = e

    def __rmatmul__(self, other):
        prod = other @ self.Cm
        return prod.divide_exact(self.e)


# -- i-number probes ----------------------------------------------------------


def i_number_probe(C, trials=6, seed=0) -> dict:
    """Certified upper witness for the i-number plus sampling evidence.

    Never claims exactness: the upper bound comes from a machine-verified
    lattice datum feeding the matching conjugation construction; the floor is
    the largest congruence level at which some sampled twist was shown
    non-isomorphic (Newton separation or exhaustive search).
    """
    from .stairs import build_stairs_datum, _fixed_datum
    ring = C.ring
    _, s, h = hodge_data(C)
    report = {
        "upper": None,
        "upper_source": None,
        "floor_evidence": -1,
        "regime": "exhaustive",
        "evidence": {},
    }
    if h == 0:
        report["upper"] = 0
        report["upper_source"] = "h0"
        report["evidence"]["reason"] = "unit matrix of phi"
        dat = _fixed_datum(C)
        if dat is not None and dat.torsion == 0:
            report["evidence"]["fixed_lattice_exponent"] = 0
    else:
        dat = None
        try:
            dat = _fixed_datum(C)
        except CrystalError:
            dat = None
        if dat is not None and dat.unital and dat.multiplicative:
            report["upper"] = dat.torsion
            report["upper_source"] = "lang"
            report["evidence"]["fixed_lattice_exponent"] = dat.torsion
        else:
            try:
                datum = build_stairs_datum(C)
            except CrystalError:
                datum = None
            if datum is None:
                report["upper_source"] = "none"
                report["evidence"]["reason"] = "no lattice datum available"
            elif datum.multiplicative and datum.unital and datum.torsion == 0:
                # the span is all of End: units form the full group
                report["upper"] = 1
                report["upper_source"] = "stairs"
                report["evidence"]["lattice"] = "End itself, torsion 0"
            else:
                report["upper"] = 2 * datum.torsion + epsilon_p(ring.p)
                report["upper_source"] = "stairs"
                report["evidence"]["lattice_torsion"] = datum.torsion
    report["floor_evidence"] = _floor_evidence(C, report["upper"],
                                               trials, seed)
    return report


def _floor_evidence(C, upper, trials, seed):
    """Largest j < upper with a sampled non-isomorphic twist at level j."""
    import random
    from .crystal import newton_polygon
    rng = random.Random(seed)
    ring = C.ring
    floor = -1
    try:
        base_np = newton_polygon(C)
    except CrystalError:
        base_np = None
    top = 3 if upper is None else min(upper, 3)
    for j in range(top - 1, -1, -1):
        found = False
        for _ in range(trials):
            delta = Matrix(ring, [
                [ring.random_element(rng) * ring.p ** j
                 for _ in range(C.rank)] for _ in range(C.rank)])
            g = Matrix.identity(ring, C.rank) + delta
            try:
                Ct = C.twist(g)
            except CrystalError:
                continue
            if base_np is not None:
                try:
                    if newton_polygon(Ct).points != base_np.points:
                        found = True
                        break
                except CrystalError:
                    pass
            if not found:
                try:
                    res = isom_search(C, Ct)
                    if res.witness is None and res.definitive:
                        found = True
                        break
                except CrystalError:
                    pass
        if found:
            floor = j
            break
    return floor


# -- Aut-image stabilization ---------------------------------------------------


def _span_has_unit_outside(C, big_basis, small_basis, to_level):
    """Any unit in span(big) outside span(small), at the residue level?"""
    ring = C.ring
    p = ring.p
    r = C.rank
    # cosets of small inside big: reduce big's rows against small
    reps = []
    for row in big_basis:
        red = reduce_against_howell(row, small_basis, p, to_level)
        if any(red):
            reps.append(row)
    if not reps:
        return False
    if p ** len(reps) > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge("too many cosets to scan")
    if p ** len(small_basis) > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge("mod-p span too large to scan")
    # scan (coset rep combo) x (mod-p span of small) for units not in small
    from itertools import product
    for combo in product(range(p), repeat=len(reps)):
        if not any(combo):
            continue
        base = _row_combination(combo, reps, r * r * ring.q)
        if not any(reduce_against_howell(base, small_basis, p, to_level)):
            continue  # fell into the small span after all
        if _scan_range(ring, small_basis, r, base) is not None:
            return True
    return False


def aut_image_stabilization_check(C, t) -> bool:
    """Aut images at level n - m + t agree from level n + h + t up to full.

    n = 2m + eps_p with m the lattice torsion of the datum; images are
    compared as unit sets: the module chain is decreasing, so equality
    fails only when a deeper coset still contains a unit.
    """
    from .stairs import build_stairs_datum
    ring = C.ring
    _, s, h = hodge_data(C)
    m = build_stairs_datum(C).torsion
    n = 2 * m + epsilon_p(ring.p)
    to_level = n - m + t
    hi = n + h + t
    if hi > ring.n or to_level < 1:
        raise BadShape("ring precision too small for the stabilization check")
    # Aut images as Howell bases of End images: units mod p lift to units
    ref = hom_image(C, C, hi, to_level)
    for N in range(hi + 1, ring.n + 1):
        img = hom_image(C, C, N, to_level)
        if img == ref:
            continue
        # modules differ: compare unit sets (img is contained in ref)
        if _span_has_unit_outside(C, ref, img, to_level):
            return False
    return True


# -- polarized isomorphism -----------------------------------------------------


def polarized_isom_search(P1, P2, precision=None):
    """Unit intertwiner preserving the forms: f^T J2 f = J1, exactly.

    A definitive negative for the underlying crystals settles the
    polarized question without scanning the (much larger) module.
    """
    C1, C2 = P1.base, P2.base
    if C1.ring != C2.ring:
        raise BadShape("polarized crystals must share a ring")
    if C1.rank != C2.rank:
        return IsomResult(None, "exhaustive", 0)
    H = hom_module(C1, C2, precision)
    plain = unit_search(H)
    if plain.witness is None and plain.definitive:
        return IsomResult(None, "exhaustive", 0)
    ring = H.ring
    r = C1.rank
    J1 = P1.J.reduce_to(ring)
    J2 = P2.J.reduce_to(ring)
    ident = Matrix.identity(ring, r)
    # quick exit: identity candidate
    f = ident
    if H.contains(f) and (f @ C1.B.reduce_to(ring)) == \
            (C2.B.reduce_to(ring) @ f.sigma()):
        if f.transpose() @ J2 @ f == J1:
            return IsomResult(f, "exhaustive", 0)
    if H.size_log() > 0 and ring.p ** H.size_log() > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(
            f"module has p^{H.size_log()} elements")
    for coeffs in howell_coefficients(H._howell, ring.p, H.precision):
        f = H.element(coeffs)
        exps = smith_normal_form(f).exponents
        if exps and max(exps) == 0 and f.transpose() @ J2 @ f == J1:
            return IsomResult(f, "exhaustive", 0)
    return IsomResult(None, "exhaustive", 0)
