import math
import time

import pytest

from thompsonlab import counting as cnt
from thompsonlab.dyadic import Dyadic, Tuple_


def test_base_cases():
    a = cnt.a_table(8, 5)
    assert a[0][5] == 1
    assert a[7][1] == 1
    assert a[3][2] == 4 and a[4][2] == 8


def test_column_two_is_powers_of_two():
    a = cnt.a_table(20, 2)
    for n in range(1, 21):
        assert a[n][2] == 2 ** (n - 1)


def test_p_poly():
    assert cnt.p_poly(0) == [1]
    assert cnt.p_poly(1) == [1, -1]
    assert cnt.p_poly(2) == [1, -2]
    assert cnt.p_poly(3) == [1, -3, 1]


def test_p_poly_degree_and_constant():
    for k in range(21):
        p = cnt.p_poly(k)
        assert p[0] == 1
        assert len(p) - 1 == (k + 1) // 2


def test_series_examples():
    assert cnt.series_from_gf(1, 4) == [1, 1, 1, 1, 1]
    assert cnt.series_from_gf(2, 4) == [1, 1, 2, 4, 8]
    assert cnt.series_from_gf(3, 2) == [1, 1, 2]


def test_series_matches_recurrence_exactly():
    start = time.perf_counter()
    table = cnt.a_table(40, 8)
    for k in range(1, 9):
        series = cnt.series_from_gf(k, 40)
        assert series == [table[n][k] for n in range(41)]
    assert time.perf_counter() - start < 1.0


def test_table_column_monotone_in_k():
    table = cnt.a_table(30, 6)
    for n in range(31):
        for k in range(1, 6):
            assert 0 < table[n][k] <= table[n][k + 1]


def test_roots_check():
    for k in range(1, 13):
        assert cnt.roots_check(k) < 1e-9


def test_growth_rate():
    emp, pred = cnt.growth_rate(2, 40)
    assert emp == pytest.approx(2.0) and pred == pytest.approx(2.0)
    emp, pred = cnt.growth_rate(1, 40)
    assert emp == 1.0 and pred == pytest.approx(1.0)
    table = cnt.a_table(61, 6)
    for k in range(1, 7):
        emp, pred = cnt.growth_rate(k, 60, table)
        assert abs(emp - pred) < 1e-3


def test_limit_constant_audit():
    emp, claimed, ratio = cnt.limit_constant_audit(1, 40)
    assert emp == pytest.approx(0.25, abs=1e-9)
    assert claimed == pytest.approx(2.25)
    assert ratio == pytest.approx(9.0, abs=1e-6)
    emp, claimed, _ = cnt.limit_constant_audit(2, 40)
    assert emp == pytest.approx(0.125, abs=1e-9)
    assert claimed == pytest.approx(2.0)


def test_residue_oracle_matches_empirical():
    table = cnt.a_table(41, 6)
    for k in range(1, 7):
        emp, _, _ = cnt.limit_constant_audit(k, 40, table)
        assert abs(emp - cnt.residue_limit(k)) < 1e-6


def test_orbit_base_level():
    s = cnt.enumerate_orbit(0, 3)
    assert s == frozenset({Tuple_([Dyadic(1, 1), Dyadic(3, 2)])})


def test_orbit_level_one_is_singleton():
    for k in range(1, 4):
        assert len(cnt.enumerate_orbit(1, k)) == 1


def test_orbit_discrepancy_at_2_1():
    s = cnt.enumerate_orbit(2, 1)
    expected = {
        Tuple_([Dyadic(1, 1), Dyadic(9, 4), Dyadic(5, 3), Dyadic(3, 2)]),
        Tuple_([Dyadic(1, 1), Dyadic(5, 3), Dyadic(11, 4), Dyadic(3, 2)]),
    }
    assert s == frozenset(expected)
    # the recurrence gives 1 here; the mismatch is reported, not resolved
    assert cnt.a_table(2, 1)[2][1] == 1 and len(s) == 2


def test_orbit_budget():
    with pytest.raises(cnt.BudgetExceeded):
        cnt.enumerate_orbit(11, 1)


def test_orbit_memo_keeps_budget_check():
    full = cnt.enumerate_orbit(3, 2, n_budget=3, k_budget=2)
    assert cnt.enumerate_orbit(3, 2) is full
    with pytest.raises(cnt.BudgetExceeded):
        cnt.enumerate_orbit(3, 2, n_budget=2)
    with pytest.raises(cnt.BudgetExceeded):
        cnt.enumerate_orbit(3, 2, k_budget=1)


def test_audit_rows_shape():
    rows = cnt.counting_audit_rows(5, 3, orbit_n_max=4, orbit_k_max=2)
    assert len(rows) == 18
    assert {"n", "k", "a_recurrence", "a_series", "orbit_size",
            "empirical_limit", "claimed_constant", "ratio"} <= rows[0].keys()
    for r in rows:
        assert r["a_recurrence"] == r["a_series"]
