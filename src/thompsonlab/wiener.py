"""Monte Carlo engine for the Wiener measure on paths and its
pushforward onto increasing diffeomorphisms of [0,1].

A path xi maps to the diffeomorphism q with q(t) proportional to the
cumulative integral of e^xi; audits cover the endpoint-moment symmetry
(time reversal), the quasi-invariance density with Schwarzian term, the
concentration bound for the two gluing sums, and the telescoping
mean-value product.
"""

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 4000  # paths per RNG substream; fixed so results are reproducible


def _chunk_rngs(seed, samples):
    done = 0
    idx = 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        yield np.random.default_rng([seed, idx]), take
        done += take
        idx += 1


def _paths(rng, shape, M):
    """Brownian paths on a uniform grid of M+1 points, one per index of
    `shape`: N(0, 1/M) increments drawn from rng and summed from 0 into a
    (*shape, M+1) array."""
    out = np.empty((*shape, M + 1))
    out[..., 0] = 0.0
    np.cumsum(rng.normal(scale=math.sqrt(1.0 / M), size=(*shape, M)),
              axis=-1, out=out[..., 1:])
    return out


def sample_brownian(M, seed, samples=None):
    """Standard Brownian paths on a uniform grid of M+1 points: i.i.d.
    N(0, 1/M) increments summed from 0.  2-d (samples, M+1) when
    samples is given, else a single path."""
    if M & (M - 1):
        raise ValueError("M must be a power of 2")
    n = 1 if samples is None else samples
    out = np.concatenate([_paths(rng, (take,), M)
                          for rng, take in _chunk_rngs(seed, n)])
    return out[0] if samples is None else out


@dataclass
class GridDiffeo:
    """q and q' sampled on the uniform grid; q(0)=0, q(1)=1."""

    values: np.ndarray
    deriv: np.ndarray

    def __post_init__(self):
        if not (np.all(self.deriv > 0)
                and np.allclose(self.values[..., 0], 0.0)
                and np.allclose(self.values[..., -1], 1.0)):
            raise ValueError("not an increasing diffeomorphism fixing 0, 1")


def _trapz(y):
    """Trapezoid integral along the last axis of a unit-interval grid."""
    M = y.shape[-1] - 1
    return (y[..., 0] / 2 + y[..., 1:-1].sum(axis=-1) + y[..., -1] / 2) / M


def _cumtrapz(y):
    M = y.shape[-1] - 1
    avg = (y[..., 1:] + y[..., :-1]) / (2.0 * M)
    out = np.zeros(y.shape)
    np.cumsum(avg, axis=-1, out=out[..., 1:])
    return out


def a_inv(xi):
    """Path -> diffeomorphism: q = cumulative integral of e^xi,
    normalized; q' = e^xi / integral."""
    e = np.exp(xi)
    cum = _cumtrapz(e)
    total = cum[..., -1:]
    return GridDiffeo(cum / total, e / total)


def a_map(q):
    """Diffeomorphism -> path: ln q' - ln q'(0)."""
    return np.log(q.deriv) - np.log(q.deriv[..., :1])


def endpoint_derivatives(xi):
    """(q'(0), q'(1)) of the induced diffeomorphism, by quadrature."""
    total = _trapz(np.exp(xi))
    return 1.0 / total, np.exp(xi[..., -1]) / total


def reverse_path(xi):
    """Time reversal zeta(t) = xi(1-t) - xi(1); exchanges the endpoint
    derivatives exactly in grid arithmetic."""
    return xi[..., ::-1] - xi[..., -1:]


def moment_test(l, samples, M, seed):
    """Monte Carlo estimates of E[(q'(0))^l] and E[(q'(1))^l] with
    standard errors; the two agree in law by time reversal."""
    if l > 4:
        raise ValueError("moments above l = 4 are out of scope")
    s0 = s1 = ss0 = ss1 = 0.0
    pair_exact = True
    for rng, take in _chunk_rngs(seed, samples):
        xi = _paths(rng, (take,), M)
        d0, d1 = endpoint_derivatives(xi)
        r0, _ = endpoint_derivatives(reverse_path(xi))
        pair_exact &= bool(np.allclose(r0, d1, rtol=1e-12, atol=0.0))
        v0, v1 = d0 ** l, d1 ** l
        s0 += v0.sum(); ss0 += (v0 ** 2).sum()
        s1 += v1.sum(); ss1 += (v1 ** 2).sum()
    m0, m1 = s0 / samples, s1 / samples
    se0 = math.sqrt(max(ss0 / samples - m0 ** 2, 0.0) / samples)
    se1 = math.sqrt(max(ss1 / samples - m1 ** 2, 0.0) / samples)
    se = math.hypot(se0, se1)
    return {"l": l, "m0": m0, "m1": m1, "se0": se0, "se1": se1,
            "samples": samples, "M": M, "seed": seed,
            "pairing_exact": pair_exact,
            "passed": abs(m0 - m1) <= 4.0 * se if se > 0 else m0 == m1}


# -- closed-form test maps -------------------------------------------------

@dataclass
class SmoothTestMap:
    """A C^3 test diffeomorphism with closed-form derivatives and
    inverse."""

    name: str
    g: callable
    d1: callable
    d2: callable
    d3: callable
    inv: callable


def identity_map():
    one = np.ones_like
    zero = np.zeros_like
    return SmoothTestMap("id", lambda t: t,
                         lambda t: one(np.asarray(t, dtype=float)),
                         lambda t: zero(np.asarray(t, dtype=float)),
                         lambda t: zero(np.asarray(t, dtype=float)),
                         lambda y: y)


def exponential_family(a):
    """g_a(t) = (e^{at}-1)/(e^a-1); Schwarzian identically -a^2/2.
    Not derivative-1 at the endpoints, but valid for the
    quasi-invariance density."""
    if a == 0:
        return identity_map()
    den = math.expm1(a)
    return SmoothTestMap(
        f"exp[a={a}]",
        lambda t: np.expm1(a * np.asarray(t, dtype=float)) / den,
        lambda t: a * np.exp(a * np.asarray(t, dtype=float)) / den,
        lambda t: a ** 2 * np.exp(a * np.asarray(t, dtype=float)) / den,
        lambda t: a ** 3 * np.exp(a * np.asarray(t, dtype=float)) / den,
        lambda y: np.log1p(np.asarray(y, dtype=float) * den) / a,
    )


def polynomial_family(c):
    """g(t) = t + c t^2 (1-t)^2: fixes 0 and 1 with derivative 1 at
    both (the C^3-with-flat-endpoints family); |c| <= 1/2 keeps g' > 0.
    Inverse by vectorized Newton."""
    if abs(c) > 0.5:
        raise ValueError("|c| must be at most 1/2")

    def g(t):
        t = np.asarray(t, dtype=float)
        return t + c * t ** 2 * (1.0 - t) ** 2

    def d1(t):
        t = np.asarray(t, dtype=float)
        return 1.0 + 2.0 * c * t * (1.0 - t) * (1.0 - 2.0 * t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * c * (1.0 - 6.0 * t + 6.0 * t ** 2)

    def d3(t):
        t = np.asarray(t, dtype=float)
        return 12.0 * c * (2.0 * t - 1.0)

    def inv(y):
        y = np.asarray(y, dtype=float)
        t = y.copy()
        for _ in range(40):
            step = (g(t) - y) / d1(t)
            t = np.clip(t - step, 0.0, 1.0)
            if np.max(np.abs(step)) < 1e-15:
                break
        return t

    return SmoothTestMap(f"poly[c={c}]", g, d1, d2, d3, inv)


def mobius_map(c):
    """t -> c t / (1 + (c-1) t): a fractional-linear test map whose
    Schwarzian vanishes identically (oracle for the Schwarzian)."""
    if c <= 0:
        raise ValueError("need c > 0")
    b = c - 1.0

    def g(t):
        t = np.asarray(t, dtype=float)
        return c * t / (1.0 + b * t)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return c / (1.0 + b * t) ** 2

    def d2(t):
        t = np.asarray(t, dtype=float)
        return -2.0 * c * b / (1.0 + b * t) ** 3

    def d3(t):
        t = np.asarray(t, dtype=float)
        return 6.0 * c * b ** 2 / (1.0 + b * t) ** 4

    def inv(y):
        y = np.asarray(y, dtype=float)
        return y / (c - b * y)

    return SmoothTestMap(f"mobius[c={c}]", g, d1, d2, d3, inv)


def schwarzian(g, t):
    """S_g = g'''/g' - (3/2)(g''/g')^2 from the closed-form
    derivatives."""
    d1 = g.d1(t)
    if np.any(d1 == 0):
        raise ValueError("Schwarzian needs a nonvanishing derivative")
    return g.d3(t) / d1 - 1.5 * (g.d2(t) / d1) ** 2


def map_constant(g, grid_size=10001):
    """C_g = 1 + max over [0,1] of |g''/g'| + (g''/g')^2 + |g'''/g'|."""
    t = np.linspace(0.0, 1.0, grid_size)
    ratio = g.d2(t) / g.d1(t)
    return 1.0 + float(np.max(np.abs(ratio) + ratio ** 2
                              + np.abs(g.d3(t) / g.d1(t))))


def constants(samples, M, seed, g=None):
    """c1 = 1 + M_1 + M_2 + E[integral of (q')^2] by Monte Carlo, and
    C_g on a fine grid (identity map if g is omitted)."""
    s1 = s2 = sq = 0.0
    for rng, take in _chunk_rngs(seed, samples):
        xi = _paths(rng, (take,), M)
        d0, d1 = endpoint_derivatives(xi)
        s1 += d1.sum()
        s2 += (d1 ** 2).sum()
        sq += _trapz(a_inv(xi).deriv ** 2).sum()
    c1 = 1.0 + s1 / samples + s2 / samples + sq / samples
    return {"c1": c1, "M1": s1 / samples, "M2": s2 / samples,
            "E_int_qp2": sq / samples,
            "C_g": map_constant(g) if g is not None else 1.0,
            "samples": samples, "M": M, "seed": seed}


# -- quasi-invariance ------------------------------------------------------

def density(g, q):
    """Radon-Nikodym factor of the left action of g:
    1/sqrt(g'(0) g'(1)) * exp(g''(0)/g'(0) q'(0) - g''(1)/g'(1) q'(1)
    + integral of S_g(q) (q')^2)."""
    d0 = q.deriv[..., 0]
    d1 = q.deriv[..., -1]
    head = float(g.d2(0.0) / g.d1(0.0))
    tail = float(g.d2(1.0) / g.d1(1.0))
    integral = _trapz(schwarzian(g, q.values) * q.deriv ** 2)
    pref = 1.0 / math.sqrt(float(g.d1(0.0)) * float(g.d1(1.0)))
    return pref * np.exp(head * d0 - tail * d1 + integral)


def _compose_inverse(g, q):
    """The diffeomorphism g^{-1} o q on the grid."""
    vals = g.inv(q.values)
    return GridDiffeo(vals, q.deriv / g.d1(vals))


FUNCTIONAL_CAP = 5.0


def apply_functional(tag, q):
    """The three bounded-ish test functionals."""
    if tag == "midpoint":
        M = q.values.shape[-1] - 1
        return q.values[..., M // 2]
    if tag == "exp_l2":
        return np.exp(-_trapz(q.values ** 2))
    if tag == "deriv0":
        return np.minimum(q.deriv[..., 0], FUNCTIONAL_CAP)
    raise ValueError(f"unknown functional tag {tag!r}")


def _qi_sides(g, tag, samples, M, seed):
    sl = ssl = sr = ssr = 0.0
    for rng, take in _chunk_rngs(seed, samples):
        q = a_inv(_paths(rng, (take,), M))
        lhs = apply_functional(tag, _compose_inverse(g, q))
        rhs = apply_functional(tag, q) * density(g, q)
        sl += lhs.sum(); ssl += (lhs ** 2).sum()
        sr += rhs.sum(); ssr += (rhs ** 2).sum()
    ml, mr = sl / samples, sr / samples
    sel = math.sqrt(max(ssl / samples - ml ** 2, 0.0) / samples)
    ser = math.sqrt(max(ssr / samples - mr ** 2, 0.0) / samples)
    return ml, mr, math.hypot(sel, ser)


def quasi_invariance_test(g, tag, samples, M, seed):
    """Both sides of E[F(g^{-1} o q)] = E[F(q) density(g, q)] on common
    seeds, at grid sizes M and 2M; the grid-doubling shift of the
    difference is reported as a discretization allowance."""
    lhs, rhs, se = _qi_sides(g, tag, samples, M, seed)
    lhs2, rhs2, se2 = _qi_sides(g, tag, samples, 2 * M, seed)
    diff, diff2 = lhs - rhs, lhs2 - rhs2
    allowance = abs(diff - diff2)
    return {"g": g.name, "functional": tag, "samples": samples, "M": M,
            "seed": seed, "lhs": lhs, "rhs": rhs, "se": se,
            "lhs_2M": lhs2, "rhs_2M": rhs2, "se_2M": se2,
            "diff": diff, "diff_2M": diff2, "allowance": allowance,
            "passed": abs(diff2) <= 4.0 * se2 + allowance}


# -- concentration of the gluing sums --------------------------------------

def lemma2_sums(g, xbar, qs):
    """(f1, f2) for one block sample: qs is a list of n GridDiffeo, one
    per gap of the partition tuple xbar (with 0 and 1 appended)."""
    x = np.concatenate([[0.0], np.asarray(xbar, dtype=float), [1.0]])
    gaps = np.diff(x)
    if len(qs) != len(gaps):
        raise ValueError("need one diffeomorphism per gap")
    ratio = lambda t: float(g.d2(t) / g.d1(t))
    f1 = f2 = 0.0
    for k, q in enumerate(qs):
        dk = gaps[k]
        f1 += dk * (ratio(x[k]) * q.deriv[..., 0]
                    - ratio(x[k + 1]) * q.deriv[..., -1])
        f2 += dk ** 2 * _trapz(schwarzian(g, x[k] + dk * q.values)
                               * q.deriv ** 2)
    return f1, f2


def concentration_test(g, xbar, eps, samples, M, seed, c1=None):
    """Empirical probability that |f1 + f2| exceeds 4 c1 C_g eps^{1/3};
    the bound says it is at most 2 eps^{1/3}."""
    x = np.concatenate([[0.0], np.asarray(xbar, dtype=float), [1.0]])
    gaps = np.diff(x)
    if np.max(gaps) >= eps:
        raise ValueError("partition mesh must be below eps")
    n = len(gaps)
    if c1 is None:
        c1 = constants(20000, M, seed + 1)["c1"]
    Cg = map_constant(g)
    threshold = 4.0 * c1 * Cg * eps ** (1.0 / 3.0)
    ratios = np.array([float(g.d2(t) / g.d1(t)) for t in x])
    exceed = 0
    for rng, take in _chunk_rngs(seed, samples):
        q = a_inv(_paths(rng, (take, n), M))
        f1 = (gaps * (ratios[:-1] * q.deriv[..., 0]
                      - ratios[1:] * q.deriv[..., -1])).sum(axis=1)
        inner = x[:-1, None] + gaps[:, None] * q.values
        f2 = (gaps ** 2 * _trapz(schwarzian(g, inner)
                                 * q.deriv ** 2)).sum(axis=1)
        exceed += int(np.sum(np.abs(f1 + f2) >= threshold))
    p = exceed / samples
    se = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    bound = 2.0 * eps ** (1.0 / 3.0)
    return {"g": g.name, "n": n, "eps": eps, "samples": samples, "M": M,
            "seed": seed, "c1": c1, "C_g": Cg, "threshold": threshold,
            "exceedance": p, "se": se, "bound": bound,
            "passed": p <= bound + 4.0 * se}


# -- telescoping mean-value product ----------------------------------------

def telescoping_product(g, xbar):
    """Product over gaps of (g(x_k)-g(x_{k-1})) divided by
    (x_k-x_{k-1}) sqrt(g'(x_k) g'(x_{k-1}))."""
    x = np.concatenate([[0.0], np.asarray(xbar, dtype=float), [1.0]])
    vals = g.g(x)
    der = g.d1(x)
    factors = np.diff(vals) / (np.diff(x) * np.sqrt(der[1:] * der[:-1]))
    return float(np.prod(factors))


def telescoping_study(g, exponents=range(3, 13)):
    """|product - 1| on uniform partitions with 2^e gaps, plus the
    fitted log-log slope (the proof gives an O(mesh) rate)."""
    rows = []
    for e in exponents:
        n = 2 ** e
        xbar = np.arange(1, n) / n
        gap = abs(telescoping_product(g, xbar) - 1.0)
        rows.append({"g": g.name, "n": n, "abs_gap": gap})
    logs = [(math.log(r["n"]), math.log(r["abs_gap"]))
            for r in rows if r["abs_gap"] > 0]
    slope = float(np.polyfit([a for a, _ in logs],
                             [b for _, b in logs], 1)[0]) if len(logs) > 1 \
        else float("nan")
    return {"g": g.name, "rows": rows, "slope": slope}
