import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thompsonlab.dyadic import (
    F1, F2, IDENTITY, Dyadic, PLMap, Tuple_, Word, midpoint, standard_point,
)


def d(num, exp=0):
    return Dyadic(num, exp)


class TestDyadic:
    def test_canonical_form(self):
        x = Dyadic(4, 3)
        assert (x.num, x.exp) == (1, 1)
        assert (Dyadic(0, 5).num, Dyadic(0, 5).exp) == (0, 0)
        assert Dyadic(3, -2) == Dyadic(12)

    def test_order_matches_value(self):
        assert d(1, 1) < d(3, 2) < d(1) and d(-1, 2) < d(0)

    def test_arithmetic(self):
        assert d(1, 1) + d(1, 2) == d(3, 2)
        assert d(3, 2) - d(1, 1) == d(1, 2)
        assert d(3, 2) * d(1, 1) == d(3, 3)
        assert midpoint(d(1, 2), d(1, 1)) == d(3, 3)

    def test_render(self):
        assert str(d(11, 4)) == "11/2^4"

    def test_hash_agrees_with_int_equality(self):
        for n in (-3, 0, 1, 2, 10 ** 30):
            assert Dyadic(n) == n and hash(Dyadic(n)) == hash(n)
            assert hash(Dyadic(n << 4, 4)) == hash(n)
        assert 1 in {Dyadic(1)} and Dyadic(0) in {0}
        assert {Dyadic(1), 1} == {1}

    @given(st.integers(-999, 999), st.integers(0, 40),
           st.integers(-999, 999), st.integers(0, 40))
    def test_sum_agrees_with_fractions(self, a, ea, b, eb):
        x, y = Dyadic(a, ea), Dyadic(b, eb)
        assert (x + y).as_fraction() == x.as_fraction() + y.as_fraction()
        assert (x * y).as_fraction() == x.as_fraction() * y.as_fraction()

    @given(st.integers(-999, 999), st.integers(-5, 40),
           st.integers(-999, 999), st.integers(-5, 40))
    def test_order_and_difference_agree_with_fractions(self, a, ea, b, eb):
        x, y = Dyadic(a, ea), Dyadic(b, eb)
        fx, fy = x.as_fraction(), y.as_fraction()
        assert (x < y, x <= y, x > y, x >= y, x == y) == \
            (fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy)
        assert (x - y).as_fraction() == fx - fy
        assert (-x).as_fraction() == -fx
        assert midpoint(x, y).as_fraction() == (fx + fy) / 2
        for z in (x, y, x - y, midpoint(x, y)):
            assert z == Dyadic.from_fraction(z.as_fraction())
            assert z.exp == 0 or z.num % 2 == 1


class TestPLMap:
    def test_paper_evaluations(self):
        assert F1(d(7, 3)) == d(3, 2)          # f1(r_2) = r_1
        assert F2(d(1, 2)) == d(1, 2)          # identity below 1/2
        assert F2(d(13, 4)) == d(11, 4)

    def test_compose_and_inverse(self):
        assert F1 * F1.inverse() == IDENTITY
        assert (F2 * F1)(d(15, 4)) == d(3, 2)
        assert IDENTITY * F2 == F2
        assert F1.inverse() * F1 == IDENTITY
        assert PLMap(F2.breakpoints).inverse().inverse() == F2

    def test_inverse_evaluations(self):
        assert F1.inverse()(d(1, 2)) == d(1, 1)
        assert F1.inverse()(d(5, 3)) == d(13, 4)

    def test_monotone(self):
        pts = [d(i, 6) for i in range(65)]
        for m in (F1, F2, F1.inverse(), (F2 * F1.inverse())):
            img = [m(p) for p in pts]
            assert all(a < b for a, b in zip(img, img[1:]))

    def test_standard_points(self):
        assert standard_point(0) == d(1, 1)
        assert standard_point(2) == d(7, 3)
        assert standard_point(-2) == d(1, 2)

    def test_f1_shifts_standard_points(self):
        # the printed negative indexing duplicates 1/2 (r_0 == r_{-1}), so
        # the shift identity skips one index exactly at n = 0
        for n in range(-10, 11):
            if n == 0:
                assert F1(standard_point(0)) == standard_point(-2)
            else:
                assert F1(standard_point(n)) == standard_point(n - 1)


words = st.lists(
    st.tuples(st.sampled_from(["f1", "f2"]), st.integers(-2, 2)),
    max_size=6,
).map(Word)


def fraction_eval(m, x):
    """Locate x among m's breakpoints and interpolate, all in Fractions."""
    xf = x.as_fraction()
    pts = [(a.as_fraction(), b.as_fraction()) for a, b in m.breakpoints]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= xf <= x1:
            return y0 + (y1 - y0) / (x1 - x0) * (xf - x0)
    raise AssertionError("point outside [0,1]")


unit_points = st.integers(0, 40).flatmap(
    lambda e: st.integers(0, 1 << e).map(lambda n: Dyadic(n, e)))


class TestEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(words, st.lists(unit_points, min_size=1, max_size=8))
    def test_integer_route_matches_fractions(self, w, xs):
        m = w.to_map()
        for x in xs:
            y = m(x)
            assert y.as_fraction() == fraction_eval(m, x)
            assert y == Dyadic.from_fraction(y.as_fraction())
        assert m.images(xs) == [m(x) for x in xs]

    def test_non_power_of_two_slopes(self):
        m = PLMap([(d(0), d(0)), (d(1, 1), d(3, 3)), (d(1), d(1))])
        assert m.slopes() == [Fraction(3, 4), Fraction(5, 4)]
        for x in (d(0), d(1, 2), d(1, 1), d(5, 3), d(3, 2), d(13, 5), d(1)):
            assert m(x).as_fraction() == fraction_eval(m, x)
        assert m(d(1, 2)) == d(3, 4) and m(d(3, 2)) == d(11, 4)
        assert m.inverse()(m(d(7, 4))) == d(7, 4)
        thirds = PLMap([(d(0), d(0)), (d(3, 2), d(1, 1)), (d(1), d(1))])
        with pytest.raises(ValueError):
            thirds(d(1, 2))                  # image 1/3 is not dyadic

    def test_argument_outside_unit_interval(self):
        odd = PLMap([(d(0), d(0)), (d(1, 1), d(3, 3)), (d(1), d(1))])
        for m in (F1, F2, IDENTITY, odd):
            for x in (d(-1, 3), d(9, 3), d(2), d(-1)):
                with pytest.raises(ValueError):
                    m(x)
                with pytest.raises(ValueError):
                    m.images([d(1, 1), x])
        assert F1(1) == d(1)


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(words, words, words)
    def test_associativity(self, w1, w2, w3):
        a, b, c = w1.to_map(), w2.to_map(), w3.to_map()
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_two_sided_inverse(self, w):
        m = w.to_map()
        assert m * m.inverse() == IDENTITY
        assert m.inverse() * m == IDENTITY

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_slopes_are_powers_of_two(self, w):
        for s in w.to_map().slopes():
            assert s > 0
            n, dn = s.numerator, s.denominator
            assert (n & (n - 1)) == 0 and (dn & (dn - 1)) == 0

    @settings(max_examples=40, deadline=None)
    @given(words, words)
    def test_action_homomorphism(self, w1, w2):
        xs = Tuple_([d(1, 2), d(1, 1), d(3, 2)])
        assert (w1 * w2).apply(xs) == w1.apply(w2.apply(xs))


class TestTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tuple_([d(3, 2), d(1, 1)])
        with pytest.raises(ValueError):
            Tuple_([d(0)])

    def test_mesh(self):
        assert Tuple_([d(1, 2), d(1, 1), d(3, 2)]).mesh() == d(1, 2)
        assert Tuple_([d(1, 1)]).mesh() == d(1, 1)
        assert Tuple_([d(1, 3), d(1, 1)]).mesh() == d(1, 1)

    def test_word_apply_examples(self):
        xs = Tuple_([d(1, 1), d(3, 2), d(7, 3), d(15, 4)])
        assert Word([]).apply(Tuple_([d(1, 1)])) == Tuple_([d(1, 1)])
        assert Word([("f2", 1)]).apply(xs) == \
            Tuple_([d(1, 1), d(5, 3), d(3, 2), d(7, 3)])
        w = Word([("f2", 1), ("f1", -1), ("f2", 1), ("f1", 1)])
        assert w.apply(xs) == Tuple_([d(1, 1), d(5, 3), d(11, 4), d(3, 2)])
