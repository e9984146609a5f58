"""Tests of the benchmark's own output checks: each one must reject a
corrupted output, not only accept a correct one.

    python3 -m pytest perfbench/selftest.py -q     (from the repository root)

The file is not named test_*.py, so the repository's own test run does
not collect it.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import fcrystals as fc  # noqa: E402
from arith import CheckFailed, Ring, mat_of  # noqa: E402
from checks import (  # noqa: E402
    check_conjugation,
    check_deviation,
    check_intertwiner,
    check_negative,
    check_newton_above_hodge,
    one_json_document,
)
from workloads import conjugate, random_unit, twist  # noqa: E402


def corrupt(mat, i=0, j=0, by=1, pn=None):
    out = [list(row) for row in mat]
    e = list(out[i][j])
    e[0] = (e[0] + by) % pn
    out[i][j] = tuple(e)
    return out


@pytest.fixture(scope="module")
def isomorphic_pair():
    ring = fc.make_witt_ring(3, 2, 3)
    C1 = fc.builtin_crystal(ring, "supersingular", d=1)
    C2 = conjugate(C1, random_unit(ring, 2, random.Random(7)))
    res = fc.isom_search(C1, C2)
    return Ring.of(ring), mat_of(C1.B), mat_of(C2.B), mat_of(res.witness)


def test_witness_accepted(isomorphic_pair):
    R, B1, B2, w = isomorphic_pair
    check_intertwiner(R, B1, B2, w, R.n, unit=True)


def test_corrupted_witness_rejected(isomorphic_pair):
    R, B1, B2, w = isomorphic_pair
    with pytest.raises(CheckFailed):
        check_intertwiner(R, B1, B2, corrupt(w, pn=R.pn), R.n, unit=True)


def test_singular_intertwiner_rejected(isomorphic_pair):
    R, B1, B2, w = isomorphic_pair
    zero = [[R.zero for _ in row] for row in w]
    with pytest.raises(CheckFailed):
        check_intertwiner(R, B1, B2, zero, R.n, unit=True)


def _orders(C1, C2):
    return (fc.hom_module(C1, C2).size_log(),
            (fc.hom_module(C1, C1).size_log(),
             fc.hom_module(C2, C2).size_log()))


def test_flipped_decision_rejected():
    ring = fc.make_witt_ring(2, 3, 4)
    C1 = fc.builtin_crystal(ring, "phi_alpha_4_5", alpha=0)
    C2 = fc.builtin_crystal(ring, "phi_alpha_4_5", alpha=1)
    hom, ends = _orders(C1, C2)
    check_negative(False, "exhaustive", hom, ends)
    with pytest.raises(CheckFailed):
        check_negative(True, "exhaustive", hom, ends)
    with pytest.raises(CheckFailed):
        check_negative(False, "randomized", hom, ends)


def test_negative_on_isomorphic_pair_rejected():
    ring = fc.make_witt_ring(2, 3, 4)
    C1 = fc.builtin_crystal(ring, "phi_alpha_4_5", alpha=1)
    C2 = fc.builtin_crystal(ring, "phi_alpha_4_5", alpha=ring.gen())
    hom, ends = _orders(C1, C2)
    with pytest.raises(CheckFailed):
        check_negative(False, "exhaustive", hom, ends)


@pytest.fixture(scope="module")
def stairs_cert():
    ring = fc.make_witt_ring(2, 1, 4)
    C = fc.builtin_crystal(ring, "ordinary", r=2, d=1)
    datum = fc.build_stairs_datum(C)
    g = twist(ring, 2, 2, random.Random(3))
    cert = fc.stairs_run(C, g, datum)
    return (Ring.of(ring), Ring.of(cert.ring), mat_of(C.B), mat_of(g),
            mat_of(cert.witness), cert.level, datum.torsion)


def test_stairs_witness_accepted(stairs_cert):
    check_conjugation(*stairs_cert)


def test_corrupted_stairs_witness_rejected(stairs_cert):
    base, big, B, g, w, level, m = stairs_cert
    with pytest.raises(CheckFailed):
        check_conjugation(base, big, B, g, corrupt(w, 1, 0, by=1, pn=big.pn),
                          level, m)


def test_stairs_without_progress_rejected(stairs_cert):
    base, big, B, g, w, level, m = stairs_cert
    one = [[big.one if i == j else big.zero for j in range(2)]
           for i in range(2)]
    # the identity conjugates g only up to g's own level
    with pytest.raises(CheckFailed):
        check_conjugation(base, big, B, g, one, 2, m)


def test_deviation_oracle():
    tau = [-1, 1, -1, -1, 1, 1, 0, -1]
    code, out = _cli(["deviation", ",".join(map(str, tau))])
    assert code == 0
    check_deviation(tau, out)
    with pytest.raises(CheckFailed):
        check_deviation(tau, dict(out, S=out["S"] + 1))


def test_newton_below_hodge_rejected():
    from fractions import Fraction as F
    check_newton_above_hodge([F(1, 2)] * 2, [F(0), F(1)])
    with pytest.raises(CheckFailed):
        check_newton_above_hodge([F(0), F(1)], [F(1, 2)] * 2)
    with pytest.raises(CheckFailed):
        check_newton_above_hodge([F(1, 2)] * 2, [F(0), F(0)])


def test_two_documents_rejected():
    assert one_json_document('{"a": 1}\n') == {"a": 1}
    with pytest.raises(CheckFailed):
        one_json_document('{"a": 1}\n{"b": 2}\n')


def _cli(argv):
    from workloads import run_cli
    code, stdout = run_cli(argv)
    return code, one_json_document(stdout)
