"""Acceptance suite: one test per criterion, printing a pass line each.

The same checks back the `fcrystals verify --suite paper` command; all
arithmetic is exact, so every assertion is equality (no tolerances).
"""

from fcrystals import verify as V

FAST = False  # full sample counts


def _report(name, fn):
    res = V._check(name, fn)
    status = "PASS" if res["ok"] else "FAIL"
    print(f"{status} {name}: {res['detail']} ({res['seconds']}s)")
    assert res["ok"], res["detail"]


def test_criterion_01_deviation_samples():
    _report("01 deviation samples", V.check_deviation_samples)


def test_criterion_02_tuple_properties():
    _report("02 tuple property suite",
            lambda: V.check_tuple_properties(seed=0))


def test_criterion_03_example_family():
    _report("03 cyclic example family", V.check_example_family)


def test_criterion_04_isoclinic_lattices():
    _report("04 isoclinic fixed lattices", V.check_isoclinic_lattices)


def test_criterion_05_thirds_family():
    _report("05 rank-6 thirds family", V.check_thirds_family)


def test_criterion_06_nonisomorphic_pair():
    _report("06 non-isomorphic pair", V.check_nonisomorphic_pair)


def test_criterion_07_stairs_soundness():
    _report("07 stairs soundness",
            lambda: V.check_stairs_soundness(seed=0, fast=FAST))


def test_criterion_08_i_number_uppers():
    _report("08 i-number uppers", lambda: V.check_i_number_uppers(seed=0))


def test_criterion_09_hom_stabilization():
    _report("09 hom stabilization", V.check_hom_stabilization)


def test_criterion_10_descent():
    _report("10 descent to small fields", V.check_descent)


def test_criterion_11_bounds():
    _report("11 bound recursion", V.check_bounds)


def test_criterion_12_infrastructure():
    _report("12 infrastructure properties",
            lambda: V.check_infrastructure(seed=0, fast=FAST))
