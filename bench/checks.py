"""Correctness checks on the outputs of one benchmark round.

Each check takes the outputs a round produced and returns a list of
failure messages (empty when everything holds). Outputs of operations that
raised are absent and are not checked. The checks compare against a
computation made apart from the program (the Fraction route below, which
uses no code from `dyadic`) or against a property the method must have.
"""

import math
from bisect import bisect_right
from fractions import Fraction

# the standard generators, from their printed breakpoints
F1_POINTS = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 4)),
             (Fraction(3, 4), Fraction(1, 2)), (Fraction(1), Fraction(1)))
F2_POINTS = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(3, 4), Fraction(5, 8)), (Fraction(7, 8), Fraction(3, 4)),
             (Fraction(1), Fraction(1)))


class FractionMap:
    """Piecewise-linear interpolation of breakpoints, in Fractions."""

    def __init__(self, points):
        self.points = points
        self.xs = [x for x, _ in points]
        self._memo = {}

    def __call__(self, x):
        y = self._memo.get(x)
        if y is None:
            i = min(bisect_right(self.xs, x) - 1, len(self.xs) - 2)
            (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
            y = self._memo[x] = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return y


def as_fractions(tuples):
    """The tuples of a set as tuples of Fractions, read from num/2^exp."""
    memo = {}
    out = set()
    for t in tuples:
        row = []
        for c in t.coords:
            key = (c.num, c.exp)
            f = memo.get(key)
            if f is None:
                f = memo[key] = Fraction(c.num, 1 << c.exp)
            row.append(f)
        out.add(tuple(row))
    return out


def intersection_count(fraction_set, fmap):
    """|g(S) ∩ S| by Fraction interpolation."""
    return sum(1 for t in fraction_set
               if tuple(fmap(x) for x in t) in fraction_set)


class FolnerOracle:
    """Exact m=0 intersection counts, computed once per distinct set.

    A set is recognised by its size and hash, so that the oracle keeps no
    copy of it and adds nothing to the peak memory of later rounds."""

    def __init__(self):
        self.maps = {"f1": FractionMap(F1_POINTS), "f2": FractionMap(F2_POINTS)}
        self._done = {}     # (l, n) -> ((size, hash), {gen: count})

    def counts(self, key, tuples):
        fingerprint = (len(tuples), hash(tuples))
        seen = self._done.get(key)
        if seen is not None and seen[0] == fingerprint:
            return seen[1]
        fr = as_fractions(tuples)
        counts = {g: intersection_count(fr, fm) for g, fm in self.maps.items()}
        self._done[key] = (fingerprint, counts)
        return counts


def check_folner(outputs, oracle):
    errors = []
    sizes = {}
    for (m, l, n), out in sorted(outputs.items()):
        tag = f"X^({m},{l},{n})"
        want_len = 2 ** m * (n + 2 * l + 2) - 1
        if out["length"] != want_len:
            errors.append(f"{tag}: tuple length {out['length']} != {want_len}")
        if not out["grid"]:
            errors.append(f"{tag}: grid containment fails")
        f1 = out["f1"]
        if f1.ratio != Fraction(l - 1, l):
            errors.append(f"{tag}: f1 ratio {f1.ratio} != {l - 1}/{l}")
        for name in ("eq_f1", "eq_f2"):
            if name in out and not out[name]:
                errors.append(f"{tag}: kappa-equivariance under {name[3:]} fails")
        sizes.setdefault((l, n), {})[m] = out["size"]
        if m == 0:
            want = oracle.counts((l, n), out["X"].tuples)
            for g in ("f1", "f2"):
                rep = out[g]
                if (rep.intersection_size != want[g]
                        or rep.set_size != out["size"]
                        or rep.ratio != Fraction(rep.intersection_size,
                                                 rep.set_size)):
                    errors.append(f"{tag}: |{g}(X) ∩ X| = "
                                  f"{rep.intersection_size} of {rep.set_size},"
                                  f" Fraction route gives {want[g]} of "
                                  f"{out['size']}")
    for (l, n), by_m in sizes.items():
        if len(set(by_m.values())) > 1:
            errors.append(f"|X^(m,{l},{n})| differs across m: {by_m}")
    return errors


# -- charts ----------------------------------------------------------------

LEMMA6_TOL = 1e-7
PSI_TOL = 1e-9


def check_charts(outputs):
    errors = []
    rows = outputs.get("lemma6")
    if rows is not None:
        worst = max(r["sup_error"] for r in rows)
        if not worst < LEMMA6_TOL:
            errors.append(f"lemma 6: sup error {worst:.3e} >= {LEMMA6_TOL}")
    psi = outputs.get("psi")
    if psi is not None:
        t = psi["t"]
        for j, back in psi["roundtrip"].items():
            err = max(abs(a - b) for a, b in zip(back, t))
            if not err <= PSI_TOL:
                errors.append(f"psi: iterate(-{j}, iterate({j}, t)) off by "
                              f"{err:.3e}")
        err = max(abs(b - a - 2.0) for a, b in zip(psi["at_t"], psi["at_t1"]))
        if not err <= PSI_TOL:
            errors.append(f"psi: psi(t+1) - psi(t) - 2 reaches {err:.3e}")
    struct = outputs.get("z_structure")
    real = outputs.get("z_realize")
    if struct is not None:
        for flag in ("coord_count_ok", "monotone_ok", "mesh_ok", "distinct_ok"):
            if not struct[flag]:
                errors.append(f"Z structure audit: {flag} is false")
        if not struct["mesh_worst"] <= struct["mesh_bound"]:
            errors.append(f"Z structure audit: mesh {struct['mesh_worst']:.4f}"
                          f" above the bound {struct['mesh_bound']:.4f}")
    if real is not None:
        for xs in real["points"]:
            if len(xs) != real["coord_count"]:
                errors.append(f"Z: {len(xs)} coordinates, want "
                              f"{real['coord_count']}")
                break
            full = [0.0, *xs, 1.0]
            gaps = [b - a for a, b in zip(full, full[1:])]
            if min(gaps) <= 0.0:
                errors.append("Z: a realization is not strictly increasing "
                              "in (0,1)")
                break
            if struct is not None and max(gaps) > struct["mesh_bound"]:
                errors.append(f"Z: mesh {max(gaps):.4f} above the bound "
                              f"{struct['mesh_bound']:.4f}")
                break
    for i in (1, 2):
        inc = outputs.get(f"z_inclusion_{i}")
        if inc is not None and not (inc["restricted_reading_ok"]
                                    and inc.get("numeric_ok")):
            errors.append(f"Z: restricted inclusion under g{i} fails")
    trend = {}
    for g in ("g1", "g2"):
        for r in outputs.get(f"trend_{g}", []):
            trend.setdefault(r["stage"], {})[g] = r
            if not (r["SE"] > 0 and math.isfinite(r["L_Fg"])):
                errors.append(f"trend {g}/{r['stage']}: SE {r['SE']}, "
                              f"L_Fg {r['L_Fg']}")
    for stage, by_g in sorted(trend.items()):
        if len(by_g) == 2 and by_g["g1"]["L_F"] != by_g["g2"]["L_F"]:
            errors.append(f"trend {stage}: L_F differs between g1 "
                          f"({by_g['g1']['L_F']!r}) and g2 "
                          f"({by_g['g2']['L_F']!r})")
    return errors


# -- paths -----------------------------------------------------------------

def within(value, target, se, k=4.0):
    return abs(value - target) <= k * se


def check_paths(outputs, densities):
    """densities maps a test-map name to density(g, q) over a path batch."""
    errors = []
    moments = {}
    for l in (1, 2):
        r = outputs.get(f"moments_l{l}")
        if r is None:
            continue
        moments[l] = r
        if not r["pairing_exact"]:
            errors.append(f"moments l={l}: time reversal does not pair "
                          f"the endpoints")
        if not within(r["m0"], r["m1"], math.hypot(r["se0"], r["se1"])):
            errors.append(f"moments l={l}: |m0 - m1| = "
                          f"{abs(r['m0'] - r['m1']):.3e} above 4 SE")
    for key, r in sorted(outputs.items()):
        if key.startswith("quasi_") and not r["passed"]:
            errors.append(f"quasi-invariance {r['g']}/{r['functional']}: "
                          f"|diff| {abs(r['diff_2M']):.3e} above "
                          f"4 SE + allowance")
    for name, d in sorted(densities.items()):
        n = len(d)
        mean = math.fsum(d) / n
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in d) / (n - 1))
        if not within(mean, 1.0, sd / math.sqrt(n)):
            errors.append(f"density {name}: mean {mean:.4f} not 1 within "
                          f"4 SE ({4 * sd / math.sqrt(n):.4f})")
    lemma2 = outputs.get("lemma2")
    if lemma2 is not None:
        c = lemma2["constants"]
        for l, key in ((1, "M1"), (2, "M2")):
            r = moments.get(l)
            if r is None:
                continue
            # same law, so the SE of constants' mean scales from moment_test's
            se = r["se1"] * math.sqrt(1.0 + r["samples"] / c["samples"])
            if not within(c[key], r["m1"], se):
                errors.append(f"constants {key} = {c[key]:.4f} vs moment_test"
                              f" m1 = {r['m1']:.4f} at l={l}: above 4 SE")
    r = lemma2 and lemma2["result"]
    if r and not (r["passed"]
                              and r["exceedance"] <= r["bound"] + 4 * r["se"]):
        errors.append(f"lemma 2: exceedance {r['exceedance']:.4f} above "
                      f"bound {r['bound']:.4f} + 4 SE")
    return errors
