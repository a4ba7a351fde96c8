"""Acceptance suite: one test (and one printed pass/fail line) per
criterion, each at its stated tolerance.  Audit-only quantities
(contested constants, trend reports) are recorded, not asserted beyond
their reporting obligations.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from thompsonlab import smoothing as sm
from thompsonlab import counting as cnt
from thompsonlab import folner as fol
from thompsonlab import wiener as w
from thompsonlab import glue as gl
from thompsonlab.dyadic import (F1, F2, IDENTITY, Dyadic, PLMap,
                                standard_point)
from thompsonlab.cli import main as cli_main


@pytest.fixture(scope="module")
def model():
    return sm.PsiModel(resolution=2 ** 12)


@pytest.fixture(scope="module")
def g1(model):
    return sm.build_g1(model)


@pytest.fixture(scope="module")
def g2(model):
    return sm.build_g2(model)


@pytest.fixture(scope="module")
def zset(model):
    return sm.build_Z(model, 0, 2, 0, J=3, p=2)


def _announce(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
              f"- {detail}")
    assert ok, detail


def test_criterion_01_counting_consistency(capfd):
    start = time.perf_counter()
    table = cnt.a_table(40, 8)
    exact = all(table[n][k] == cnt.series_from_gf(k, 40)[n]
                for k in range(1, 9) for n in range(41))
    elapsed = time.perf_counter() - start
    _announce(capfd, 1, exact and elapsed < 1.0,
              f"table vs series exact n<=40 k<=8, {elapsed:.2f}s")


def test_criterion_02_root_product_and_growth(capfd):
    root_err = max(cnt.roots_check(k) for k in range(1, 13))
    growth_err = 0.0
    table = cnt.a_table(61, 6)
    for k in range(1, 7):
        emp, pred = cnt.growth_rate(k, 60, table)
        growth_err = max(growth_err, abs(emp - pred))
    ok = root_err < 1e-9 and growth_err < 1e-3
    _announce(capfd, 2, ok, f"root error {root_err:.2e}, "
                            f"growth error {growth_err:.2e}")


def test_criterion_03_limit_constant_audit(capfd):
    worst = 0.0
    table = cnt.a_table(41, 6)
    for k in range(1, 7):
        emp, _, _ = cnt.limit_constant_audit(k, 40, table)
        worst = max(worst, abs(emp - cnt.residue_limit(k)))
    _, _, ratio1 = cnt.limit_constant_audit(1, 40, table)
    ok = worst < 1e-6 and abs(ratio1 - 9.0) < 1e-9
    _announce(capfd, 3, ok, f"residue-oracle error {worst:.2e}, "
                            f"claimed/empirical ratio at k=1 = {ratio1}")


def test_criterion_04_group_algebra(capfd):
    rng = np.random.default_rng(41)
    gens = [F1, F2, F1.inverse(), F2.inverse()]

    def random_map():
        word = rng.integers(0, 4, size=rng.integers(1, 5))
        out = IDENTITY
        for i in word:
            out = out * gens[i]
        return out

    checks = 0
    for _ in range(1200):
        a, b, c = random_map(), random_map(), random_map()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == IDENTITY
        x = Dyadic(int(rng.integers(0, 257)), 8)
        assert (a * b)(x) == a(b(x))
        for g in (a, b):
            y = Dyadic(int(rng.integers(0, 65)), 6)
            assert g.inverse()(g(y)) == y
        checks += 10
    shift_ok = all(F1(standard_point(n)) == standard_point(n - 1)
                   for n in range(-10, 11) if n != 0)
    shift_ok &= F1(standard_point(0)) == standard_point(-2)
    _announce(capfd, 4, checks >= 10 ** 4 and shift_ok,
              f"{checks} exact algebra checks; standard-point shift "
              f"holds (documented n=0 exception)")


def test_criterion_05_folner_construction(capfd):
    start = time.perf_counter()
    built = skipped = 0
    ratios = []
    for l in (2, 3, 4):
        for n in (0, 1, 2):
            for m in range(4):
                try:
                    s = fol.build_X(m, l, n, fol.DEFAULT_BUDGET)
                except cnt.BudgetExceeded:
                    skipped += 1
                    continue
                built += 1
                assert fol.grid_containment_holds(s, m)
                rep = fol.folner_ratio(s, F1, "f1", Fraction(l - 1, l))
                assert rep.ratio == Fraction(l - 1, l)
                if m >= 2:
                    assert fol.kappa_equivariance_check(s, F1)["holds"]
                if m >= 3:
                    assert fol.kappa_equivariance_check(s, F2)["holds"]
                if m == 0:
                    r2 = fol.folner_ratio(s, F2, "f2")
                    ratios.append((l, n, str(rep.ratio), str(r2.ratio)))
    elapsed = time.perf_counter() - start
    _announce(capfd, 5, built > 0 and elapsed < 300,
              f"{built} X sets checked ({skipped} over budget), "
              f"f2 ratios recorded for {len(ratios)} (l,n) pairs, "
              f"{elapsed:.0f}s")


def test_criterion_06_psi_invariants(capfd):
    m = sm.PsiModel(resolution=2 ** 12)
    t = np.linspace(-2.0, 3.0, 2001)
    period = float(np.max(np.abs(m.value(t + 1.0) - m.value(t) - 2.0)))
    d = m.deriv(np.linspace(0.0, 1.0, 20001))
    bounds_ok = bool(np.all(d > 0.0) and np.all(d <= 3.0))
    anchor = abs(m.value(0.25) - 0.25)
    ts = np.linspace(1e-4, 1e-2, 200)
    flat_ok = bool(np.all(np.abs(m.deriv(ts) - 1.0) <= 100.0 * ts ** 5))
    round_err = 0.0
    tt = np.linspace(0.0, 4.0, 201)
    for j in range(9):
        round_err = max(round_err, float(np.max(np.abs(
            m.iterate(-j, m.iterate(j, tt)) - tt))))
    ok = (period < 1e-9 and bounds_ok and anchor < 1e-9 and flat_ok
          and round_err < 1e-9)
    _announce(capfd, 6, ok, f"periodicity {period:.1e}, anchor "
                            f"{anchor:.1e}, roundtrip {round_err:.1e}")


def test_criterion_07_conjugation_exponents(capfd, model, g1, g2):
    printed = {(Dyadic(1, 1), "g1", "+"): 1, (Dyadic(3, 2), "g1", "-"): -1,
               (Dyadic(1, 1), "g2", "+"): -1, (Dyadic(3, 2), "g2", "+"): 1,
               (Dyadic(7, 3), "g2", "-"): -1}
    table_ok = all(sm.lemma6_exponents(r, gname, side) == val
                   for (r, gname, side), val in printed.items())
    rows = sm.lemma6_audit_rows(model, g1, g2, denom_exp_max=6)
    sup = max(row["sup_error"] for row in rows)
    ok = table_ok and sup < 1e-7
    _announce(capfd, 7, ok, f"printed cases exact, sup identity error "
                            f"{sup:.1e} over {len(rows)} rows")


def test_criterion_08_generator_regularity(capfd, g1, g2):
    end_err = max(abs(sm.g_derivative(g, t) - 1.0)
                  for g in (g1, g2) for t in (0.0, 1.0))
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    all_pass = True
    for g in (g1, g2):
        for row in sm.c3_breakpoint_check(g):
            if row["order"]:
                worst[row["order"]] = max(worst[row["order"]], row["jump"])
            all_pass &= row["passed"]
    ok = end_err < 1e-6 and all_pass
    _announce(capfd, 8, ok,
              f"endpoint derivative error {end_err:.1e}; jumps "
              f"C1 {worst[1]:.1e} C2 {worst[2]:.1e} C3 {worst[3]:.1e}")


def test_criterion_09_symbolic_inclusion(capfd, zset):
    rng = np.random.default_rng(9)
    count_ok = True
    expected = zset.coord_count()
    for _ in range(1000):
        el = zset.sample(rng)
        count_ok &= len(zset.realize(el)) == expected
    inc_ok = all(sm.z_inclusion_audit(zset, i, samples=24,
                                      seed=90 + i)["restricted_reading_ok"]
                 for i in (1, 2))
    struct = sm.z_structure_audit(zset, samples=200, seed=91)
    ok = count_ok and inc_ok and struct["mesh_ok"]
    _announce(capfd, 9, ok,
              f"coordinate count {expected} exact on 10^3 samples; "
              f"inclusion holds for both generators on X^(0,2,0); "
              f"mesh {struct['mesh_worst']:.3f} <= "
              f"{struct['mesh_bound']:.3f}")


def test_criterion_10_time_reversal_moments(capfd):
    start = time.perf_counter()
    results = [w.moment_test(l, 2 * 10 ** 5, 2 ** 10, 100 + l)
               for l in (1, 2)]
    elapsed = time.perf_counter() - start
    ok = all(r["pairing_exact"] and r["passed"] for r in results) \
        and elapsed < 60
    gaps = ", ".join(f"l={r['l']}: |gap|={abs(r['m0'] - r['m1']):.2e} "
                     f"(4SE={4 * math.hypot(r['se0'], r['se1']):.2e})"
                     for r in results)
    _announce(capfd, 10, ok, f"{gaps}; {elapsed:.0f}s")


def test_criterion_11_quasi_invariance(capfd):
    grid = np.linspace(0.0, 1.0, 513)
    ident = w.GridDiffeo(grid, np.ones(513))
    density_one = float(w.density(w.identity_map(), ident)) == 1.0
    ok = density_one
    details = []
    for g in (w.exponential_family(0.7), w.polynomial_family(0.4)):
        for tag in ("midpoint", "exp_l2", "deriv0"):
            r = w.quasi_invariance_test(g, tag, 2 * 10 ** 5, 512, 110)
            ok &= r["passed"]
            details.append(f"{g.name}/{tag}: |diff|={abs(r['diff_2M']):.1e}"
                           f" vs 4SE+allow="
                           f"{4 * r['se_2M'] + r['allowance']:.1e}")
    _announce(capfd, 11, ok,
              "density(identity)=1 exact; " + "; ".join(details))


def test_criterion_12_concentration(capfd):
    xbar = np.arange(1, 64) / 64
    r = w.concentration_test(w.exponential_family(0.5), xbar, 1.0 / 32.0,
                             2000, 256, 120)
    _announce(capfd, 12, r["passed"],
              f"exceedance {r['exceedance']:.4f} <= bound "
              f"{r['bound']:.4f} + 4SE {4 * r['se']:.4f}")


def test_criterion_13_telescoping(capfd):
    xbar = np.arange(1, 32) / 32
    exact = w.telescoping_product(w.identity_map(), xbar) == 1.0
    study = w.telescoping_study(w.polynomial_family(0.4), range(3, 13))
    slope_ok = -1.3 <= study["slope"] <= -0.8
    _announce(capfd, 13, exact and slope_ok,
              f"identity product exact; log-log slope "
              f"{study['slope']:.3f} in [-1.3, -0.8]")


def test_criterion_14_glue(capfd):
    M = 2 ** 12
    grid = np.arange(M + 1) / M

    def ident():
        return w.GridDiffeo(grid.copy(), np.ones(M + 1))

    def rand_input(seed, n, m=M):
        r = np.random.default_rng(seed)
        xbar = np.sort(r.uniform(0.05, 0.95, n - 1))
        pieces = []
        for j in range(n):
            q = w.a_inv(w.sample_brownian(m, 10 * seed + j))
            pieces.append(w.GridDiffeo(q.values, q.deriv))
        return gl.GlueInput(xbar, pieces)

    q_id = gl.q_glue(gl.GlueInput([0.25, 0.5], [ident()] * 3), M)
    id_err = float(np.max(np.abs(q_id.values - grid)))
    knot = max(gl.knot_mismatch(rand_input(1000 + s, 2 + s % 5))
               for s in range(100))
    conj = 0.0
    for g in (w.exponential_family(0.8), w.polynomial_family(0.4)):
        for n in (2, 5, 8):
            inp = rand_input(2000 + n, n)
            lhs = gl.q_glue(gl.conjugation_pieces(g, inp), M).values
            rhs = g.g(gl.q_glue(inp, M).values)
            conj = max(conj, float(np.max(np.abs(lhs - rhs))))
    cfg = gl.EstimatorConfig(0.25, [(0.5,), (0.25, 0.5, 0.75)], 30, 256, 14)
    est, se = gl.L_estimator("one", cfg)
    ok = (id_err < 1e-12 and knot < 1e-8 and conj < 1e-6
          and est == 1.0 and se == 0.0)
    _announce(capfd, 14, ok,
              f"identity glue {id_err:.1e}; knot mismatch {knot:.1e} over "
              f"100 inputs; conjugation {conj:.1e} (n<=8); L(1)=1 exact")


def test_criterion_15_trend_report(capfd, g1, g2):
    from thompsonlab.cli import _realized_stages
    stages = _realized_stages(fol.DEFAULT_BUDGET)
    cfg = gl.EstimatorConfig(0.25, stages[0][1], 30, 256, 15)

    rows = []
    for name, gen in (("g1", g1), ("g2", g2)):
        def deriv_fn(t, gen=gen, h=1e-4):
            t = np.clip(t, 2 * h, 1.0 - 2 * h)
            return (gen(t - 2 * h) - 8 * gen(t - h) + 8 * gen(t + h)
                    - gen(t + 2 * h)) / (12 * h)
        rows += gl.theorem3_experiment("midpoint", name, gen, deriv_fn,
                                       stages, cfg)
    schema = {"stage", "n", "support_size", "F", "g", "L_F", "L_Fg",
              "diff", "SE", "seed"}
    ok = (len(rows) == 6 and all(schema <= set(r) for r in rows)
          and all(r["SE"] > 0 for r in rows)
          and {r["g"] for r in rows} == {"g1", "g2"})
    diffs = ", ".join(f"{r['g']}/{r['stage']}: {r['diff']:+.3f}"
                      f"(SE {r['SE']:.3f})" for r in rows)
    _announce(capfd, 15, ok, f"trend rows emitted, no convergence "
                             f"asserted: {diffs}")


def test_criterion_16_determinism(capfd, tmp_path):
    ok = True
    for argv_tail in (["wiener", "moments", "--l", "1", "--samples",
                       "3000", "--grid", "256", "--seed", "7"],
                      ["wiener", "quasi", "--samples", "1500", "--grid",
                       "128", "--seed", "7"],
                      ["wiener", "lemma2", "--samples", "200", "--grid",
                       "128", "--seed", "7"]):
        outs = []
        for run in (0, 1):
            d = tmp_path / f"{argv_tail[1]}{run}"
            d.mkdir()
            assert cli_main(argv_tail + ["--out", str(d)]) == 0
            outs.append(sorted(f.read_bytes() for f in d.iterdir()))
        ok &= outs[0] == outs[1]
    _announce(capfd, 16, ok,
              "byte-identical reports across repeated seeded runs")
