import os
import subprocess
import sys

import numpy as np
import pytest

from thompsonlab.dyadic import Dyadic
from thompsonlab import smoothing as sm


@pytest.fixture(scope="module")
def model():
    return sm.PsiModel(resolution=2 ** 12)


@pytest.fixture(scope="module")
def g1(model):
    return sm.build_g1(model)


@pytest.fixture(scope="module")
def g2(model):
    return sm.build_g2(model)


class TestPsiModel:
    def test_anchor_values(self, model):
        assert model.value(0.0) == 0.0
        assert abs(model.value(1.0) - 2.0) < 1e-12
        assert abs(model.value(0.25) - 0.25) < 1e-9
        assert abs(model.value(0.75) - 1.75) < 1e-9

    def test_periodicity(self, model):
        t = np.linspace(-2.0, 3.0, 1001)
        assert np.max(np.abs(model.value(t + 1.0) - model.value(t) - 2.0)) \
            < 1e-9

    def test_derivative_bounds(self, model):
        d = model.deriv(np.linspace(0.0, 1.0, 20001))
        assert np.all(d > 0.0)
        assert np.all(d <= 3.0)

    def test_plateau(self, model):
        t = np.linspace(0.25, 0.75, 501)
        assert np.all(model.deriv(t) == 3.0)

    def test_flatness_at_zero(self, model):
        assert model.deriv(0.0) == 1.0
        t = np.linspace(1e-4, 1e-2, 200)
        assert np.all(np.abs(model.deriv(t) - 1.0) <= 100.0 * t ** 5)

    def test_odd_symmetry(self, model):
        t = np.linspace(0.0, 0.25, 101)
        assert np.max(np.abs(model.value(-t) + model.value(t))) < 1e-12

    def test_strictly_increasing(self, model):
        v = model.value(np.linspace(-1.0, 2.0, 10001))
        assert np.all(np.diff(v) > 0)

    def test_iterate_roundtrip(self, model):
        t = np.linspace(0.0, 4.0, 201)
        for j in range(9):
            err = np.max(np.abs(model.iterate(-j, model.iterate(j, t)) - t))
            assert err < 1e-9

    def test_iterate_examples(self, model):
        assert model.iterate(0, 0.37) == 0.37
        assert abs(model.iterate(-1, 1.0) - 0.5) < 1e-12
        assert abs(model.iterate(-1, 0.75) - 5.0 / 12.0) < 1e-12

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            sm.PsiModel(resolution=2 ** 9)

    def test_iterate_depth_limit(self, model):
        with pytest.raises(ValueError):
            model.iterate(65, 0.1)


class TestBumpConstant:
    def test_constant_is_the_root(self):
        # psi(1/4) = (1/4) * integral over [0, 1] of exp(ln3 S(w) - c B(w)),
        # by composite Simpson on 2^16 panels; c by bisection on the defect
        n = 2 ** 16
        w = np.arange(n + 1) / n
        weights = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)
        weights[[0, -1]] = 1.0
        s, b = sm.LN3 * sm._smoothstep(w), sm._bump(w)

        def defect(c):
            return np.sum(weights * np.exp(s - c * b)) / (12 * n) - 0.25

        lo, hi = 0.0, 1e3
        assert defect(lo) > 0 > defect(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if defect(mid) > 0 else (lo, mid)
        assert abs(mid - sm.BUMP_C) <= 1e-12 * sm.BUMP_C

    @pytest.mark.parametrize("exp", range(10, 15))
    def test_constraint_met_at_every_resolution(self, exp):
        m = sm.PsiModel(resolution=2 ** exp)
        assert m.c == sm.BUMP_C
        assert abs(m.value(0.25) - 0.25) <= 5e-16

    def test_wrong_constant_refused(self, monkeypatch):
        monkeypatch.setattr(sm, "BUMP_C", sm.BUMP_C * (1 + 1e-12))
        with pytest.raises(sm.CalibrationFailure):
            sm.PsiModel()

    def test_runs_without_scipy(self):
        code = (
            "import importlib, pkgutil, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "import thompsonlab\n"
            "for info in pkgutil.iter_modules(thompsonlab.__path__):\n"
            "    importlib.import_module('thompsonlab.' + info.name)\n"
            "from thompsonlab.smoothing import PsiModel\n"
            "PsiModel()\n")
        src = os.path.dirname(os.path.dirname(sm.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestChartPoints:
    def test_half(self, model):
        x, lo, hi = sm.chart_points(model, Dyadic(1, 1))
        assert abs(x - 0.5) < 1e-12
        assert abs(lo - 5.0 / 12.0) < 1e-12

    def test_linear_region_closed_forms(self, model):
        x34, _, _ = sm.chart_points(model, Dyadic(3, 2))
        x78, _, _ = sm.chart_points(model, Dyadic(7, 3))
        assert abs(x34 - 2.0 / 3.0) < 1e-12
        assert abs(x78 - 13.0 / 18.0) < 1e-12

    def test_ordering_all_small_denominators(self, model):
        for p in range(1, 7):
            for k in range(1, 2 ** p, 2):
                x, lo, hi = sm.chart_points(model, Dyadic(k, p))
                assert lo < x < hi

    def test_domain_validation(self, model):
        with pytest.raises(ValueError):
            sm.chart_points(model, Dyadic(1))


class TestGenerators:
    def test_point_values(self, model, g1, g2):
        assert abs(g2(0.25) - 0.25) < 1e-12
        assert abs(g1(0.5) - 1.0 / 3.0) < 1e-12
        assert abs(g1(1.0) - 1.0) < 1e-12
        assert g1(0.0) == 0.0 and g2(0.0) == 0.0

    def test_strictly_increasing(self, g1, g2):
        t = np.linspace(0.0, 1.0, 2 ** 12 + 1)
        assert np.all(np.diff(g1(t)) > 0)
        assert np.all(np.diff(g2(t)) > 0)

    def test_endpoint_derivatives(self, g1, g2):
        for gen in (g1, g2):
            assert abs(sm.g_derivative(gen, 0.0) - 1.0) < 1e-6
            assert abs(sm.g_derivative(gen, 1.0) - 1.0) < 1e-6

    def test_inverse_roundtrip(self, g1, g2):
        t = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(g1.inverse()(g1(t)) - t)) < 1e-12
        assert np.max(np.abs(g2.inverse()(g2(t)) - t)) < 1e-12

    def test_c3_breakpoints(self, g1, g2):
        for gen in (g1, g2):
            for row in sm.c3_breakpoint_check(gen):
                assert row["passed"], row

    def test_c3_identity_sanity(self, model):
        # psi then its inverse, split in two pieces: no jumps at all
        trivial = sm.SmoothGenerator("id-split", model, [
            (0.0, 0.5, [("psi",), ("ipsi",)]),
            (0.5, 1.0, []),
        ])
        for row in sm.c3_breakpoint_check(trivial, tol=1e-9, tol3=1e-6):
            assert row["passed"], row

    def test_derivative_order_validation(self, g1):
        with pytest.raises(ValueError):
            sm.g_derivative(g1, 0.5, order=4)


class TestConjugationExponents:
    def test_printed_cases(self):
        assert sm.lemma6_exponents(Dyadic(1, 1), "g1", "+") == 1
        assert sm.lemma6_exponents(Dyadic(1, 1), "g1", "-") == 0
        assert sm.lemma6_exponents(Dyadic(1, 1), "g2", "+") == -1
        assert sm.lemma6_exponents(Dyadic(1, 1), "g2", "-") == 0
        assert sm.lemma6_exponents(Dyadic(3, 2), "g1", "+") == 0
        assert sm.lemma6_exponents(Dyadic(3, 2), "g1", "-") == -1
        assert sm.lemma6_exponents(Dyadic(3, 2), "g2", "+") == 1
        assert sm.lemma6_exponents(Dyadic(3, 2), "g2", "-") == 0
        assert sm.lemma6_exponents(Dyadic(7, 3), "g2", "+") == 0
        assert sm.lemma6_exponents(Dyadic(7, 3), "g2", "-") == -1

    def test_generic_cases_vanish(self):
        for r in (Dyadic(3, 3), Dyadic(5, 3), Dyadic(7, 3), Dyadic(13, 4)):
            for side in ("+", "-"):
                assert sm.lemma6_exponents(r, "g1", side) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sm.lemma6_exponents(Dyadic(3, 1), "g1", "+")
        with pytest.raises(ValueError):
            sm.lemma6_exponents(Dyadic(1, 1), "g1", "up")

    def test_identity_small_denominators(self, model, g1, g2):
        rows = sm.lemma6_audit_rows(model, g1, g2, denom_exp_max=4)
        assert len(rows) == 15 * 4
        assert max(r["sup_error"] for r in rows) < 1e-7

    def test_generic_example(self, model, g1):
        err = sm.lemma6_verify(model, Dyadic(3, 3), g1, "+")
        assert err < 1e-7


@pytest.fixture(scope="module")
def z(model):
    return sm.build_Z(model, 0, 2, 0, J=3, p=2)


class TestSymbolicZ:
    def test_parameter_validation(self, model):
        with pytest.raises(ValueError):
            sm.build_Z(model, 0, 2, 0, J=1, p=2)
        with pytest.raises(ValueError):
            sm.build_Z(model, 0, 2, 0, J=3, p=0)

    def test_width_validation(self, model, z):
        with pytest.raises(ValueError):
            sm.SymbolicZ(model, 1, 2, 0, 3, 2, z.X)  # wrong k for this X

    def test_cardinalities(self, z):
        assert z.coord_count() == 6 * 5 - 1
        assert z.cardinality() == 4 ** 12 * 16
        assert z.cardinality_zi(1, "displayed") == 2 ** 11 * 4 * 8
        assert z.cardinality_zi(1, "restricted") == 2 ** 12 * 8

    def test_realization_shape_and_order(self, z):
        rng = np.random.default_rng(7)
        for _ in range(25):
            xs = z.realize(z.sample(rng))
            assert len(xs) == z.coord_count()
            assert np.all(np.diff(xs) > 0)
            assert 0.0 < xs[0] and xs[-1] < 1.0

    def test_inclusion_audit(self, z):
        for i in (1, 2):
            rep = sm.z_inclusion_audit(z, i, samples=8, seed=i)
            assert rep["support_size"] > 0
            assert rep["restricted_reading_ok"]
            assert not rep["displayed_reading_ok"]
            assert rep["displayed_violations"] == ["tail"]
            assert rep["numeric_ok"], rep["numeric_sup_error"]

    def test_structure_audit(self, z):
        rep = sm.z_structure_audit(z, samples=100, seed=3)
        assert rep["coord_count_ok"] and rep["monotone_ok"]
        assert rep["mesh_ok"] and rep["distinct_ok"]


class TestConditionB:
    def test_equal_words(self, g1, g2):
        assert sm.condition_b_distance(g1, g2, ("g1", "g2"), ("g1", "g2")) \
            == 0.0

    def test_generator_vs_identity(self, g1, g2):
        d = sm.condition_b_distance(g1, g2, ("g1",), ())
        assert d > 1.0

    def test_scan(self, g1, g2):
        scan = sm.condition_b_scan(g1, g2, max_len=1)
        assert scan["pairs"] == 10
        assert scan["min_distance"] > 0.5

    def test_length_cap(self, g1, g2):
        with pytest.raises(ValueError):
            sm.condition_b_distance(g1, g2, ("g1",) * 7, ())
