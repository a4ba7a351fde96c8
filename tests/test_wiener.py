"""Tests for the path-measure Monte Carlo engine."""

import math

import numpy as np
import pytest

from thompsonlab.wiener import (
    GridDiffeo, sample_brownian, a_map, a_inv, endpoint_derivatives,
    reverse_path, moment_test, identity_map, exponential_family,
    polynomial_family, mobius_map, schwarzian, map_constant, constants,
    density, apply_functional, quasi_invariance_test, lemma2_sums,
    concentration_test, telescoping_product, telescoping_study,
)


class TestPaths:
    def test_shape_and_start(self):
        xi = sample_brownian(256, 1)
        assert xi.shape == (257,) and xi[0] == 0.0
        batch = sample_brownian(256, 1, samples=10)
        assert batch.shape == (10, 257)
        assert np.array_equal(batch[0], xi)

    def test_determinism(self):
        assert np.array_equal(sample_brownian(128, 9, samples=5),
                              sample_brownian(128, 9, samples=5))

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            sample_brownian(100, 0)

    def test_variance_scale(self):
        xi = sample_brownian(1024, 4, samples=4000)
        assert abs(np.var(xi[:, -1]) - 1.0) < 0.1

    def test_chunking_invisible(self):
        # samples spanning several substreams still deterministic
        a = sample_brownian(64, 2, samples=9000)
        assert np.array_equal(a[:100], sample_brownian(64, 2, samples=100))


class TestDiffeoCorrespondence:
    def test_roundtrip(self):
        xi = sample_brownian(512, 3, samples=20)
        back = a_map(a_inv(xi))
        assert np.max(np.abs(back - xi)) < 1e-12

    def test_diffeo_validation(self):
        with pytest.raises(ValueError):
            GridDiffeo(np.linspace(0, 0.9, 11), np.ones(11))

    def test_endpoint_derivatives_match(self):
        xi = sample_brownian(512, 5, samples=8)
        q = a_inv(xi)
        d0, d1 = endpoint_derivatives(xi)
        assert np.allclose(d0, q.deriv[:, 0])
        assert np.allclose(d1, q.deriv[:, -1])

    def test_reversal_swaps_endpoints(self):
        xi = sample_brownian(256, 6, samples=50)
        d0, d1 = endpoint_derivatives(xi)
        r0, r1 = endpoint_derivatives(reverse_path(xi))
        assert np.allclose(r0, d1, rtol=1e-12)
        assert np.allclose(r1, d0, rtol=1e-12)


class TestMoments:
    @pytest.mark.parametrize("l", [1, 2])
    def test_endpoint_moments_agree(self, l):
        r = moment_test(l, 30000, 512, 17)
        assert r["pairing_exact"] and r["passed"]

    def test_order_capped(self):
        with pytest.raises(ValueError):
            moment_test(5, 10, 64, 0)

    def test_estimators_share_the_path_stream(self):
        # 4,500 paths span two RNG chunks; moment_test and constants must
        # see exactly the paths of sample_brownian for the same seed
        M, seed, samples = 64, 23, 4500
        d0, d1 = endpoint_derivatives(sample_brownian(M, seed, samples))
        r = moment_test(1, samples, M, seed)
        c = constants(samples, M, seed)
        for got, want in ((r["m0"], d0.mean()), (r["m1"], d1.mean()),
                          (c["M1"], d1.mean()), (c["M2"], (d1 ** 2).mean())):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestTestMaps:
    def test_identity(self):
        g = identity_map()
        t = np.linspace(0, 1, 11)
        assert np.array_equal(g.g(t), t)
        assert np.all(schwarzian(g, t) == 0.0)
        assert map_constant(g) == 1.0

    def test_exponential_closed_forms(self):
        g = exponential_family(0.8)
        t = np.linspace(0, 1, 101)
        h = 1e-5
        fd = (g.g(t[1:-1] + h) - g.g(t[1:-1] - h)) / (2 * h)
        assert np.max(np.abs(fd - g.d1(t[1:-1]))) < 1e-8
        assert np.max(np.abs(g.inv(g.g(t)) - t)) < 1e-12
        assert np.allclose(schwarzian(g, t), -0.8 ** 2 / 2)
        assert abs(map_constant(g) - (1 + 0.8 + 2 * 0.8 ** 2)) < 1e-12

    def test_exponential_zero_is_identity(self):
        assert exponential_family(0).name == "id"

    def test_polynomial_family(self):
        g = polynomial_family(0.4)
        t = np.linspace(0, 1, 101)
        assert g.g(0.0) == 0.0 and g.g(1.0) == 1.0
        assert g.d1(0.0) == 1.0 and g.d1(1.0) == 1.0
        assert np.all(g.d1(t) > 0)
        assert np.max(np.abs(g.inv(g.g(t)) - t)) < 1e-12
        h = 1e-4
        fd2 = (g.g(t[1:-1] + h) - 2 * g.g(t[1:-1]) + g.g(t[1:-1] - h)) / h ** 2
        assert np.max(np.abs(fd2 - g.d2(t[1:-1]))) < 1e-5

    def test_polynomial_coefficient_capped(self):
        with pytest.raises(ValueError):
            polynomial_family(0.6)

    def test_mobius_schwarzian_vanishes(self):
        g = mobius_map(2.5)
        t = np.linspace(0, 1, 101)
        assert np.max(np.abs(schwarzian(g, t))) < 1e-12
        assert np.max(np.abs(g.inv(g.g(t)) - t)) < 1e-14


class TestDensity:
    def grid_identity(self, M=512):
        return GridDiffeo(np.linspace(0, 1, M + 1), np.ones(M + 1))

    def test_identity_map_density_one(self):
        xi = sample_brownian(256, 8, samples=10)
        assert np.allclose(density(identity_map(), a_inv(xi)), 1.0)

    def test_exponential_closed_form_at_identity(self):
        a = 0.7
        want = (math.expm1(a) / (a * math.exp(a / 2))) * math.exp(-a * a / 2)
        got = density(exponential_family(a), self.grid_identity())
        assert abs(float(got) - want) < 1e-12

    def test_constants_report(self):
        r = constants(5000, 256, 21, g=exponential_family(0.5))
        assert r["c1"] >= 3.0
        assert r["C_g"] == pytest.approx(1 + 0.5 + 2 * 0.25)


class TestQuasiInvariance:
    @pytest.mark.parametrize("g", [exponential_family(0.7),
                                   polynomial_family(0.4)])
    @pytest.mark.parametrize("tag", ["midpoint", "exp_l2", "deriv0"])
    def test_both_sides_agree(self, g, tag):
        r = quasi_invariance_test(g, tag, 20000, 256, 13)
        assert r["passed"], r

    def test_deterministic(self):
        g = exponential_family(0.5)
        a = quasi_invariance_test(g, "midpoint", 2000, 128, 4)
        b = quasi_invariance_test(g, "midpoint", 2000, 128, 4)
        assert a == b

    def test_unknown_functional(self):
        with pytest.raises(ValueError):
            apply_functional("median", a_inv(sample_brownian(64, 0)))


class TestConcentration:
    def test_identity_sums_vanish(self):
        qs = [a_inv(sample_brownian(64, i)) for i in range(4)]
        f1, f2 = lemma2_sums(identity_map(), [0.25, 0.5, 0.75], qs)
        assert f1 == 0.0 and f2 == 0.0

    def test_block_count_checked(self):
        qs = [a_inv(sample_brownian(64, 0))]
        with pytest.raises(ValueError):
            lemma2_sums(identity_map(), [0.5], qs)

    def test_exceedance_within_bound(self):
        xbar = np.arange(1, 64) / 64
        r = concentration_test(exponential_family(0.5), xbar, 1 / 32,
                               500, 128, 19)
        assert r["passed"]
        assert r["threshold"] > 0 and r["bound"] == 2 * (1 / 32) ** (1 / 3)

    def test_mesh_violation_signalled(self):
        with pytest.raises(ValueError):
            concentration_test(identity_map(), [0.5], 1 / 32, 10, 64, 0)


class TestTelescoping:
    def test_identity_exact(self):
        xbar = np.arange(1, 16) / 16
        assert telescoping_product(identity_map(), xbar) == 1.0

    def test_polynomial_slope(self):
        r = telescoping_study(polynomial_family(0.4), range(3, 13))
        assert -1.3 <= r["slope"] <= -0.8
        gaps = [row["abs_gap"] for row in r["rows"]]
        assert gaps[-1] < gaps[0]

    def test_exponential_converges(self):
        r = telescoping_study(exponential_family(1.0), range(3, 11))
        assert r["rows"][-1]["abs_gap"] < 1e-4
