from fractions import Fraction

import pytest

from thompsonlab.counting import BudgetExceeded
from thompsonlab.dyadic import F1, F2, IDENTITY, Dyadic, Tuple_
from thompsonlab import folner as fl


def d(n, e=0):
    return Dyadic(n, e)


class TestY:
    def test_single_block(self):
        y = fl.build_Y(1, [0])
        assert y.tuples == {Tuple_([d(1, 1), d(3, 2)])}

    def test_two_zero_blocks(self):
        y = fl.build_Y(2, [0, 0])
        assert y.tuples == {Tuple_([d(1, 1), d(3, 2), d(7, 3)])}

    def test_union_sizes(self):
        assert len(fl.build_Yln(2, 1)) == 2
        assert len(fl.build_Yln0(2, 1)) == 1
        assert fl.build_Yln0(2, 1).tuples <= fl.build_Yln(2, 1).tuples

    def test_zero_weight_union_is_single_composition(self):
        for l in (1, 2, 3):
            assert fl.build_Yln(l, 0).tuples == fl.build_Y(l, [0] * l).tuples

    def test_degenerate_first_block(self):
        assert fl.build_Yln0(1, 0).tuples == fl.build_Yln(1, 0).tuples

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            fl.build_Yln(4, 3, budget=2)


class TestShiftIdentity:
    @pytest.mark.parametrize("l,n", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_identity_holds_on_small_instances(self, l, n):
        rep = fl.shift_identity_audit(l, n)
        assert rep["symmetric_difference"] >= 0
        assert rep["equal"] == (rep["symmetric_difference"] == 0)
        # observed to hold exactly on every in-budget instance
        assert rep["equal"]

    def test_empty_word_sanity(self):
        y = fl.build_Yln(2, 0)
        assert y.apply(IDENTITY).tuples == y.tuples


class TestKappa:
    def test_examples(self):
        assert fl.kappa(Tuple_([d(1, 1)])) == Tuple_([d(1, 2), d(1, 1), d(3, 2)])
        assert fl.kappa(Tuple_([d(1, 2), d(1, 1)])) == \
            Tuple_([d(1, 3), d(1, 2), d(3, 3), d(1, 1), d(3, 2)])

    def test_mesh_halves_and_length_doubles(self):
        for t in fl.build_X(0, 2, 1):
            k = fl.kappa(t)
            assert k.mesh() == t.mesh().half()
            assert len(k) == 2 * len(t) + 1

    def test_injective(self):
        s = fl.build_X(0, 2, 1)
        assert len({fl.kappa(t) for t in s}) == len(s)


class TestX:
    def test_small_instance(self):
        x = fl.build_X(0, 1, 0)
        assert len(x) <= 2
        assert x.tuples == fl.build_Yln(2, 0).tuples | fl.build_Yln(1, 1).tuples

    def test_kappa_stepping(self):
        x0 = fl.build_X(0, 2, 0)
        x2 = fl.build_X(2, 2, 0)
        assert fl.kappa_set(fl.kappa_set(x0)).tuples == x2.tuples

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_containment(self, m):
        assert fl.grid_containment_holds(fl.build_X(m, 2, 0), m)
        assert fl.grid_containment_holds(fl.build_X(m, 3, 1), m)


class TestRatios:
    def test_identity_ratio_one(self):
        x = fl.build_X(0, 2, 0)
        rep = fl.folner_ratio(x, IDENTITY, "id")
        assert rep.ratio == 1

    @pytest.mark.parametrize("l,n", [(2, 0), (3, 1)])
    def test_f1_ratio_matches_prediction(self, l, n):
        x = fl.build_X(0, l, n)
        rep = fl.folner_ratio(x, F1, "f1", Fraction(l - 1, l))
        # recorded against the predicted 1 - 1/l; equality observed exactly
        assert rep.ratio == rep.paper_prediction

    def test_ratio_stable_under_refinement(self):
        r0 = fl.folner_ratio(fl.build_X(0, 2, 0), F1).ratio
        r2 = fl.folner_ratio(fl.build_X(2, 2, 0), F1).ratio
        assert r0 == r2

    def test_determinism(self):
        x1 = fl.build_X(1, 2, 1)
        x2 = fl.build_X(1, 2, 1)
        assert x1.tuples == x2.tuples
        assert fl.folner_ratio(x1, F2).ratio == fl.folner_ratio(x2, F2).ratio


class TestRatioCounts:
    # the standard pair as printed: the breakpoints (x, y) of f1 and f2
    POINTS = {
        "f1": [(0, 0), (Fraction(1, 2), Fraction(1, 4)),
               (Fraction(3, 4), Fraction(1, 2)), (1, 1)],
        "f2": [(0, 0), (Fraction(1, 2), Fraction(1, 2)),
               (Fraction(3, 4), Fraction(5, 8)),
               (Fraction(7, 8), Fraction(3, 4)), (1, 1)],
    }

    @staticmethod
    def interpolate(points, x):
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise ValueError(f"{x} outside [0, 1]")

    @pytest.mark.parametrize("l,n,f1,f2", [
        (2, 0, Fraction(1, 2), Fraction(7, 16)),
        (2, 1, Fraction(1, 2), Fraction(19, 40)),
        (3, 0, Fraction(2, 3), Fraction(17, 40)),
    ])
    def test_counts_agree_with_fraction_interpolation(self, l, n, f1, f2):
        s = fl.build_X(0, l, n)
        # the set as Fraction tuples, mapped without PLMap, Tuple_ or Word
        fs = {tuple(Fraction(c.num, 2 ** c.exp) for c in t.coords) for t in s}
        for name, g, ratio in (("f1", F1, f1), ("f2", F2, f2)):
            pts = self.POINTS[name]
            count = sum(1 for t in fs
                        if tuple(self.interpolate(pts, x) for x in t) in fs)
            rep = fl.folner_ratio(s, g, name)
            assert rep.intersection_size == count
            assert rep.ratio == ratio

    def test_each_tuple_mapped_once(self, monkeypatch):
        s = fl.build_X(0, 2, 1)
        calls = []
        apply = Tuple_.apply

        def counted(self, g):
            calls.append(g)
            return apply(self, g)

        monkeypatch.setattr(Tuple_, "apply", counted)
        fl.folner_ratio(s, F2)
        assert len(calls) == len(s)

    def test_non_injective_image_raises(self):
        s = fl.build_X(0, 2, 0)
        target = next(iter(s))

        class Collapse:
            """Sends every tuple to one member of the set."""

            def images(self, points):
                return list(target.coords)

        with pytest.raises(AssertionError):
            fl.folner_ratio(s, Collapse())


class TestEquivariance:
    def test_identity(self):
        s = fl.build_X(0, 2, 0)
        assert fl.kappa_equivariance_check(s, IDENTITY)["holds"]

    @pytest.mark.parametrize("m", [2, 3])
    def test_f1(self, m):
        assert fl.kappa_equivariance_check(fl.build_X(m, 2, 0), F1)["holds"]

    def test_f2_at_m3(self):
        assert fl.kappa_equivariance_check(fl.build_X(3, 2, 0), F2)["holds"]

    def test_precondition_violation(self):
        s = fl.TupleSet(frozenset({Tuple_([d(1, 3), d(3, 3)])}))
        with pytest.raises(fl.PreconditionViolation):
            fl.kappa_equivariance_check(s, F1)


class TestConditionA:
    def test_identity_zero(self):
        s = fl.build_X(0, 2, 0)
        eps = s.mesh_max().as_fraction() + 1
        assert fl.condition_a_audit(s, IDENTITY, eps) == 0

    def test_singleton_not_fixed(self):
        s = fl.TupleSet(frozenset({Tuple_([d(1, 1)])}))
        assert fl.condition_a_audit(s, F1, Fraction(2)) == 1

    def test_f1_matches_ratio_with_loose_mesh(self):
        s = fl.build_X(0, 3, 1)
        eps = s.mesh_max().as_fraction() + 1
        got = fl.condition_a_audit(s, F1, eps)
        assert got == 1 - fl.folner_ratio(s, F1).ratio


def test_audit_rows():
    rows = fl.folner_audit_rows([(2, 0), (2, 1)], m=1)
    assert len(rows) == 4
    for r in rows:
        assert r["ratio_den"] >= r["ratio_num"] >= 0
        assert set(r) >= {"m", "l", "n", "set_size", "generator",
                          "intersection_size", "ratio_num", "ratio_den",
                          "paper_prediction", "mesh_max"}
