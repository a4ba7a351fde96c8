"""The three benchmark workloads.

Each is a closed batch of audits: the next operation starts when the
previous one ends. A workload is set up once from its seed (sub-seeds are
derived from it by name), then `stages()` gives the operations of one
round, grouped by stage; an operation is one X set with its checks, one
audit row or one sample batch. Every round of a run repeats the same
operations on the same inputs.

- folner: the exact layers only (dyadic, counting, folner), no numpy.
  The deep part has few tuples of up to 87 coordinates (m up to 3); the
  wide part has many short tuples (l = 5), so an engine that suits one
  shape and not the other shows as a gain on one stage and a loss on the
  other. The exact layer has no random input, so this workload does not
  use the seed: every run builds the same sets in criterion 05's order.
- charts: the psi layer (smoothing) in scalar and tiny-array calls (the
  lemma-6 and Z audits), and in 257-point arrays through g^-1 in the glue
  trend, which also runs glue and wiener in many small batches.
- paths: wiener only, in large path batches: moments, quasi-invariance
  rows and the lemma-2 concentration test.
"""

import hashlib
from fractions import Fraction
from functools import partial

import checks


def subseed(seed, label):
    """A 31-bit seed derived from the workload seed and a purpose label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Folner:
    layers = ("dyadic", "folner")
    # criterion 05's (l, n) pairs with |X^(0,l,n)| < 1000, m = 0..3: up to
    # 884 tuples of up to 79 coordinates; then X^(0,5,n), past criterion
    # 05's l: up to 22,435 tuples of 12 coordinates
    DEEP = [(m, l, n) for l, n in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0))
            for m in range(4)]
    WIDE = [(0, 5, 0), (0, 5, 1)]

    def __init__(self, seed):
        from thompsonlab import folner
        from thompsonlab.dyadic import F1, F2
        self.fol, self.F1, self.F2 = folner, F1, F2
        self.oracle = checks.FolnerOracle()

    def _x_set(self, m, l, n):
        fol = self.fol
        s = fol.build_X(m, l, n, fol.DEFAULT_BUDGET)
        out = {"size": len(s), "length": s.tuple_length(),
               "grid": fol.grid_containment_holds(s, m),
               "f1": fol.folner_ratio(s, self.F1, "f1", Fraction(l - 1, l))}
        if m >= 2:
            out["eq_f1"] = fol.kappa_equivariance_check(s, self.F1)["holds"]
        if m >= 3:
            out["eq_f2"] = fol.kappa_equivariance_check(s, self.F2)["holds"]
        if m == 0:
            out["f2"] = fol.folner_ratio(s, self.F2, "f2")
            out["X"] = s
        return out

    def stages(self):
        return [("folner_deep", [(k, partial(self._x_set, *k)) for k in self.DEEP]),
                ("folner_wide", [(k, partial(self._x_set, *k)) for k in self.WIDE])]

    def check(self, outputs):
        return checks.check_folner(outputs, self.oracle)


class Charts:
    layers = ("dyadic", "folner", "smoothing", "glue", "wiener")
    LEMMA6_DENOM_EXP = 6
    Z_PER_TUPLE = 4           # realizations per base tuple of X^(0,2,0)
    Z_INCLUSION_SAMPLES = 24
    Z_STRUCTURE_SAMPLES = 50
    TREND_INNER_SAMPLES = 10

    def __init__(self, seed):
        import numpy as np
        from thompsonlab import folner, glue, smoothing
        from thompsonlab.cli import _realized_stages
        self.np, self.sm, self.gl = np, smoothing, glue
        self.model = smoothing.PsiModel(resolution=2 ** 12)
        self.g1 = smoothing.build_g1(self.model)
        self.g2 = smoothing.build_g2(self.model)
        self.z = smoothing.build_Z(self.model, 0, 2, 0, J=3, p=2)
        self.z_base = sorted(self.z.X.tuples, key=lambda t: t.floats())
        self.trend_stages = _realized_stages(folner.DEFAULT_BUDGET)
        self.seed = seed
        rng = np.random.default_rng(subseed(seed, "points"))
        self.grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.25, 24)),
                                    [0.25]])
        self.t_roundtrip = np.sort(rng.uniform(0.0, 4.0, 201))
        self.t_period = np.sort(rng.uniform(-2.0, 3.0, 201))

    def _psi(self):
        m, t = self.model, self.t_roundtrip
        return {"t": t,
                "roundtrip": {j: m.iterate(-j, m.iterate(j, t))
                              for j in range(1, 9)},
                "at_t": m.value(self.t_period),
                "at_t1": m.value(self.t_period + 1.0)}

    def _z_realize(self):
        """Z elements as SymbolicZ.sample draws them, but with every base
        tuple taken equally often: the cost of a realization depends on
        its base tuple, and this keeps the round's cost from varying with
        the seed more than the index vectors make it."""
        rng = self.np.random.default_rng(subseed(self.seed, "z_realize"))
        z = self.z
        elements = [(t, tuple(int(j) for j in
                              rng.integers(0, z.J + 1, size=2 * z.k)))
                    for t in self.z_base for _ in range(self.Z_PER_TUPLE)]
        return {"coord_count": z.coord_count(),
                "points": [z.realize(e) for e in elements]}

    def _trend(self, name, gen):
        np = self.np

        def deriv_fn(t, h=1e-4):
            t = np.clip(t, 2 * h, 1.0 - 2 * h)
            return (gen(t - 2 * h) - 8 * gen(t - h) + 8 * gen(t + h)
                    - gen(t + 2 * h)) / (12 * h)

        cfg = self.gl.EstimatorConfig(0.25, self.trend_stages[0][1],
                                      self.TREND_INNER_SAMPLES, 256,
                                      subseed(self.seed, "trend"))
        return self.gl.theorem3_experiment("midpoint", name, gen, deriv_fn,
                                           self.trend_stages, cfg)

    def stages(self):
        sm, z = self.sm, self.z
        audits = [
            ("lemma6", lambda: sm.lemma6_audit_rows(
                self.model, self.g1, self.g2,
                denom_exp_max=self.LEMMA6_DENOM_EXP, grid=self.grid)),
            ("psi", self._psi),
            ("z_realize", self._z_realize),
        ]
        audits += [(f"z_inclusion_{i}", partial(
            sm.z_inclusion_audit, z, i, samples=self.Z_INCLUSION_SAMPLES,
            seed=subseed(self.seed, f"z_inclusion_{i}"))) for i in (1, 2)]
        audits.append(("z_structure", partial(
            sm.z_structure_audit, z, samples=self.Z_STRUCTURE_SAMPLES,
            seed=subseed(self.seed, "z_structure"))))
        trend = [(f"trend_{name}", partial(self._trend, name, gen))
                 for name, gen in (("g1", self.g1), ("g2", self.g2))]
        return [("chart_audits", audits), ("glue_trend", trend)]

    def check(self, outputs):
        return checks.check_charts(outputs)


class Paths:
    layers = ("wiener",)
    MOMENT_SAMPLES, MOMENT_GRID = 20_000, 1024
    QUASI_SAMPLES, QUASI_GRID = 4_000, 512
    CONSTANT_SAMPLES = 20_000
    LEMMA2_SAMPLES, LEMMA2_GRID, LEMMA2_GAPS = 500, 256, 64
    DENSITY_SAMPLES = 64_000      # paths per map for the density-mean check

    def __init__(self, seed):
        import numpy as np
        from thompsonlab import wiener
        self.np, self.w = np, wiener
        self.quasi_maps = (wiener.exponential_family(0.7),
                           wiener.polynomial_family(0.4))
        self.lemma2_map = wiener.exponential_family(0.5)
        self.test_maps = self.quasi_maps   # the maps whose inverse is used
        self.xbar = np.arange(1, self.LEMMA2_GAPS) / self.LEMMA2_GAPS
        self.seed = seed
        self._densities = None

    def _lemma2(self):
        """constants() for c1, then the concentration test with that c1:
        what concentration_test does itself when c1 is omitted, with
        constants' M1 and M2 kept for the checks."""
        w = self.w
        c = w.constants(self.CONSTANT_SAMPLES, self.LEMMA2_GRID,
                        subseed(self.seed, "constants"))
        r = w.concentration_test(
            self.lemma2_map, self.xbar, 1.0 / 32.0, self.LEMMA2_SAMPLES,
            self.LEMMA2_GRID, subseed(self.seed, "lemma2"), c1=c["c1"])
        return {"constants": c, "result": r}

    def stages(self):
        w, seed = self.w, self.seed
        moments = [(f"moments_l{l}", partial(
            w.moment_test, l, self.MOMENT_SAMPLES, self.MOMENT_GRID,
            subseed(seed, f"moments_l{l}"))) for l in (1, 2)]
        quasi = [(f"quasi_{g.name}_{tag}", partial(
            w.quasi_invariance_test, g, tag, self.QUASI_SAMPLES,
            self.QUASI_GRID, subseed(seed, "quasi")))
            for g in self.quasi_maps for tag in ("midpoint", "exp_l2", "deriv0")]
        lemma2 = [("lemma2", self._lemma2)]
        return [("moments", moments), ("quasi", quasi), ("lemma2", lemma2)]

    def densities(self):
        """density(g, q) over one path batch per quasi-invariance map,
        computed once per run (the inputs do not change between rounds)."""
        if self._densities is None:
            np, w = self.np, self.w
            self._densities = {}
            for g in self.quasi_maps:
                chunks = [w.density(g, w.a_inv(w.sample_brownian(
                    self.QUASI_GRID, [subseed(self.seed, "density"), i], 4000)))
                    for i in range(self.DENSITY_SAMPLES // 4000)]
                self._densities[g.name] = np.concatenate(chunks).tolist()
        return self._densities

    def check(self, outputs):
        return checks.check_paths(outputs, self.densities())


WORKLOADS = {"folner": Folner, "charts": Charts, "paths": Paths}
