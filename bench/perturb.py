"""Show that every correctness check of the benchmark can fail.

    python3 bench/perturb.py [--seed N]

Runs one round of each workload, checks that its outputs pass, then feeds
each check a perturbed copy of the outputs (one tuple removed, a ratio off
by 1/|X|, a density scaled by 1.01, ...) and requires the check to report
a failure. Prints one line per perturbation; exits 1 if any perturbation
goes unnoticed or the unperturbed outputs fail.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from worker import run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def changed(outputs, key, **fields):
    """outputs with outputs[key] replaced by a copy with fields changed."""
    return {**outputs, key: {**outputs[key], **fields}}


def folner_cases(out):
    from thompsonlab.folner import RatioReport, TupleSet
    key = (0, 3, 1)
    x = out[key]
    drop = next(iter(x["X"].tuples))
    smaller = TupleSet(x["X"].tuples - {drop}, x["X"].params)
    f1, f2 = x["f1"], x["f2"]

    def off_by_one(rep):
        k = rep.intersection_size + 1
        return RatioReport(rep.generator, rep.set_size, k,
                           Fraction(k, rep.set_size))

    return {
        "one tuple removed from X^(0,3,1)":
            changed(out, key, X=smaller, size=len(smaller)),
        "f1 ratio of X^(0,3,1) off by 1/|X|": changed(out, key, f1=RatioReport(
            "f1", f1.set_size, f1.intersection_size,
            f1.ratio + Fraction(1, f1.set_size))),
        "|f2(X) ∩ X| of X^(0,5,1) off by one":
            changed(out, (0, 5, 1), f2=off_by_one(out[(0, 5, 1)]["f2"])),
        "|f1(X) ∩ X| and f1 ratio of X^(0,2,0) off by one":
            changed(out, (0, 2, 0), f1=off_by_one(out[(0, 2, 0)]["f1"])),
        "|X^(2,4,0)| one larger": changed(out, (2, 4, 0),
                                          size=out[(2, 4, 0)]["size"] + 1),
        "tuple length of X^(3,3,1) one shorter":
            changed(out, (3, 3, 1), length=out[(3, 3, 1)]["length"] - 1),
        "grid containment of X^(2,2,1) false":
            changed(out, (2, 2, 1), grid=False),
        "kappa-equivariance of X^(3,4,0) under f2 false":
            changed(out, (3, 4, 0), eq_f2=False),
        "|f2(X) ∩ X| of X^(0,3,1) and its ratio off by 1/|X|":
            changed(out, key, f2=off_by_one(f2)),
    }


def charts_cases(out):
    rows = [dict(r) for r in out["lemma6"]]
    rows[17]["sup_error"] = 1e-6
    psi = out["psi"]
    back = dict(psi["roundtrip"])
    back[5] = back[5].copy()
    back[5][100] += 1e-8
    at_t1 = psi["at_t1"].copy()
    at_t1[7] += 1e-8
    pts = out["z_realize"]["points"]
    fewer = [pts[0][:-1]] + pts[1:]
    swapped = [p.copy() for p in pts]
    swapped[3][[4, 5]] = swapped[3][[5, 4]]
    trend = [dict(r) for r in out["trend_g2"]]
    trend[1]["L_F"] += 1e-12
    return {
        "lemma-6 row with sup error 1e-6": {**out, "lemma6": rows},
        "psi round trip off by 1e-8 at one point":
            changed(out, "psi", roundtrip=back),
        "psi(t+1) - psi(t) off by 1e-8 at one point":
            changed(out, "psi", at_t1=at_t1),
        "Z realization with one coordinate removed":
            changed(out, "z_realize", points=fewer),
        "Z realization with two coordinates swapped":
            changed(out, "z_realize", points=swapped),
        "Z mesh bound half the largest realized gap": changed(
            out, "z_structure",
            mesh_bound=out["z_structure"]["mesh_worst"] / 2),
        "Z structure audit reporting non-monotone":
            changed(out, "z_structure", monotone_ok=False),
        "Z restricted inclusion under g2 false":
            changed(out, "z_inclusion_2", restricted_reading_ok=False),
        "trend L_F of g2 at stage2 off by 1e-12": {**out, "trend_g2": trend},
    }


def paths_cases(out, wl):
    import math
    m1 = out["moments_l1"]
    se = math.hypot(m1["se0"], m1["se1"])
    c = out["lemma2"]["constants"]
    m2 = out["moments_l2"]
    r = out["lemma2"]["result"]
    quasi = next(k for k in out if k.startswith("quasi_"))
    dens = wl.densities()
    cases = {
        "moment m0 at l=1 shifted by 5 SE":
            changed(out, "moments_l1", m0=m1["m1"] + 5 * se),
        "time reversal pairing not exact at l=2":
            changed(out, "moments_l2", pairing_exact=False),
        f"{quasi} not passed": changed(out, quasi, passed=False),
        "constants M2 shifted by 5 combined SE": changed(
            out, "lemma2", constants={**c, "M2": c["M2"] + 5 * m2["se1"]
                                      * math.sqrt(1 + m2["samples"]
                                                  / c["samples"])}),
        "lemma-2 exceedance above bound + 4 SE": changed(
            out, "lemma2", result={**r, "exceedance":
                                   r["bound"] + 5 * r["se"]}),
    }
    # density(g, q) has standard deviation 0.4 for the polynomial map and
    # 0.9 for the exponential one, so 4 SE at DENSITY_SAMPLES paths is
    # about 0.6% and 1.4% of the mean: scale each past its own 4 SE
    scaled = {}
    for g, factor in zip(wl.quasi_maps, (1.03, 1.01)):
        d = dict(dens)
        d[g.name] = [factor * v for v in dens[g.name]]
        scaled[f"density of {g.name} scaled by {factor}"] = d
    return cases, scaled


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    missed = 0

    def expect_fail(label, errors):
        nonlocal missed
        missed += not errors
        print(f"{'caught' if errors else 'MISSED'}: {label}"
              + (f" -> {errors[0]}" if errors else ""))

    for name, cls in WORKLOADS.items():
        wl = cls(args.seed)
        out = run_round(wl)["outputs"]
        base = wl.check(out)
        print(f"== {name}: unperturbed outputs "
              f"{'pass' if not base else 'FAIL: ' + base[0]}")
        missed += bool(base)
        if name == "folner":
            for label, o in folner_cases(out).items():
                expect_fail(label, wl.check(o))
        elif name == "charts":
            for label, o in charts_cases(out).items():
                expect_fail(label, wl.check(o))
        else:
            import checks
            cases, scaled = paths_cases(out, wl)
            for label, o in cases.items():
                expect_fail(label, wl.check(o))
            for label, d in scaled.items():
                expect_fail(label, checks.check_paths(out, d))
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
