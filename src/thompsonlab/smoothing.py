"""Smooth model of the slope-doubling map psi, the C^3 generator pair
g1/g2 built from it, conjugation-exponent audits, and the symbolic
refined partition family Z.

The function psi satisfies psi(t+1) = psi(t) + 2, 0 < psi' <= 3,
psi' = 3 on [1/4, 3/4], psi(0) = 0, psi(1/4) = 1/4, psi'(0) = 1 with
all higher derivatives vanishing at 0.  It is under-determined by those
constraints; here psi' = exp(h) where h ramps from 0 to ln 3 through a
flat (infinitely tangent) smoothstep on [0, 1/4], minus a calibrated
flat bump that restores the integral constraint psi(1/4) = 1/4.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .dyadic import F1, F2, Dyadic
from .folner import DEFAULT_BUDGET, build_X

LN3 = math.log(3.0)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


class CalibrationFailure(Exception):
    """The bump coefficient cannot satisfy the integral constraint."""


def _sigma(u):
    """exp(-1/u) extended by 0 for u <= 0; flat to all orders at 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def _smoothstep(u):
    """Flat smoothstep: 0 for u <= 0, 1 for u >= 1, C-infinity."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    a = _sigma(u)
    b = _sigma(1.0 - u)
    return a / (a + b)


def _bump(u):
    """Flat bump supported on (0, 1): exp(-1/(u(1-u)))."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0) & (u < 1)
    w = u[inside] * (1.0 - u[inside])
    out[inside] = np.exp(-1.0 / w)
    return out


class PsiModel:
    """Calibrated numerical model of psi, its derivative, inverse and
    iterates.  Immutable after construction; all evaluators accept
    scalars or numpy arrays.
    """

    def __init__(self, resolution=2 ** 12):
        if resolution < 2 ** 10:
            raise ValueError("resolution must be at least 2^10")
        self.resolution = resolution
        self.c = self._calibrate()
        self._panel_h = 0.25 / resolution
        self._table = self._build_table(self.c)

    # -- derivative profile ------------------------------------------------

    def _profile_quarter(self, w, c):
        """psi' at t = w/4 for w in [0, 1] (the rising quarter); exactly
        3 from w = 1 on, so it extends to the plateau."""
        out = np.minimum(np.exp(LN3 * _smoothstep(w) - c * _bump(w)), 3.0)
        return np.where(np.asarray(w) >= 1.0, 3.0, out)

    def deriv(self, t):
        """psi'(t) for any real t (period-1 profile)."""
        t = np.asarray(t, dtype=float)
        u = t - np.floor(t)
        u = np.where(u > 0.5, 1.0 - u, u)  # mirror symmetry about 1/2
        # the quarter profile is identically 3 once its argument reaches 1,
        # so it covers the plateau for free
        out = self._profile_quarter(4.0 * np.ravel(u), self.c).reshape(u.shape)
        return out if out.shape else float(out)

    # -- quadrature --------------------------------------------------------

    def _panel_integrals(self, c):
        r = self.resolution
        h = 0.25 / r
        left = np.arange(r) * h
        nodes = left[:, None] + (h * 0.5) * (_GL_X + 1.0)[None, :]
        vals = self._profile_quarter(4.0 * nodes, c)
        return (h * 0.5) * vals @ _GL_W

    def _build_table(self, c):
        table = np.zeros(self.resolution + 1)
        np.cumsum(self._panel_integrals(c), out=table[1:])
        return table

    def _calibrate(self):
        def defect(c):
            return float(np.sum(self._panel_integrals(c))) - 0.25

        if defect(0.0) <= 0:
            raise CalibrationFailure("profile already integrates below 1/4")
        hi = 1.0
        while defect(hi) > 0:
            hi *= 2.0
            if hi > 1e6:
                raise CalibrationFailure("no bump coefficient balances the "
                                         "integral constraint")
        return brentq(defect, 0.0, hi, xtol=1e-15, rtol=8.9e-16)

    def _phi(self, u):
        """Antiderivative of psi' on [0, 1/4]: table panel + partial
        Gauss-Legendre tail, accurate to machine precision."""
        u = np.asarray(u, dtype=float)
        shape = u.shape
        u = np.clip(u.ravel(), 0.0, 0.25)
        idx = np.minimum((u / self._panel_h).astype(int), self.resolution - 1)
        left = idx * self._panel_h
        w = u - left
        nodes = left[:, None] + (w * 0.5)[:, None] * (_GL_X + 1.0)[None, :]
        vals = self._profile_quarter(4.0 * nodes, self.c)
        out = self._table[idx] + (w * 0.5) * (vals @ _GL_W)
        return out.reshape(shape)

    def _phi_inv(self, v):
        """Inverse of _phi on [0, 1/4] by table bracketing + Newton."""
        v = np.asarray(v, dtype=float)
        shape = v.shape
        v = np.clip(v.ravel(), 0.0, float(self._table[-1]))
        if v.size == 0:
            return v.reshape(shape)
        idx = np.clip(np.searchsorted(self._table, v) - 1,
                      0, self.resolution - 1)
        gap = self._table[idx + 1] - self._table[idx]
        u = (idx + (v - self._table[idx]) / gap) * self._panel_h
        for _ in range(40):
            step = (self._phi(u) - v) / self.deriv(u)
            u = np.clip(u - step, 0.0, 0.25)
            if np.max(np.abs(step)) < 1e-17:
                break
        return u.reshape(shape)

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        """psi(t) for any real t."""
        t = np.asarray(t, dtype=float)
        n = np.floor(t)
        u = t - n
        base = np.where(u < 0.75, 3.0 * u - 0.5, 2.0 - self._phi(1.0 - u))
        low = u <= 0.25
        base = np.where(low, self._phi(u), base)
        out = 2.0 * n + base
        return out if out.shape else float(out)

    def inverse(self, y):
        """psi^{-1}(y) for any real y, within ~1e-15."""
        y = np.asarray(y, dtype=float)
        n = np.floor(y / 2.0)
        v = y - 2.0 * n
        u = np.where(v > 1.75, 1.0 - self._phi_inv(2.0 - v),
                     (v + 0.5) / 3.0)
        u = np.where(v < 0.25, self._phi_inv(v), u)
        out = n + u
        return out if out.shape else float(out)

    def iterate(self, j, t):
        """j-fold composition psi^j (negative j inverts)."""
        if abs(j) > 64:
            raise ValueError("|j| must be at most 64")
        step = self.value if j >= 0 else self.inverse
        for _ in range(abs(j)):
            t = step(t)
        return t


# -- dyadic charts ---------------------------------------------------------

def _as_dyadic(r):
    if isinstance(r, Dyadic):
        return r
    return Dyadic.from_fraction(Fraction(r))


def chart_points(model, r):
    """(x_r, x'_r, x''_r) for a dyadic r = k/2^p in (0, 1): the images
    of k and k -+ 1/4 under psi^{-p}."""
    r = _as_dyadic(r)
    if not Dyadic(0) < r < Dyadic(1):
        raise ValueError("r must lie strictly inside (0, 1)")
    k, p = r.num, r.exp
    x = model.iterate(-p, float(k))
    lo = model.iterate(-p, k - 0.25)
    hi = model.iterate(-p, k + 0.25)
    return x, lo, hi


def phi_chart(model, r, t):
    """Chart map phi_r(t) = psi^{-p}(k + t) for t in [-1/4, 1/4]."""
    r = _as_dyadic(r)
    return model.iterate(-r.exp, r.num + np.asarray(t, dtype=float))


# -- generators ------------------------------------------------------------

def _psi_high_derivs(model, x, h=1e-4):
    """(psi''(x), psi'''(x)) by five-point central differences of the
    analytic derivative profile (exact, composition-free evaluations)."""
    vals = np.array([model.deriv(x + o * h) for o in (-2.0, -1.0, 0.0,
                                                      1.0, 2.0)])
    d2 = float(_D1 @ vals) / h
    d3 = float(_D2 @ vals) / h ** 2
    return d2, d3


def _stage_eval(model, stages, t):
    for op in stages:
        if op[0] == "shift":
            t = t + op[1]
        elif op[0] == "psi":
            t = model.value(t)
        else:
            t = model.inverse(t)
    return t


def _stage_derivs(model, stages, t):
    """(value, d1, d2, d3) of the stage composite at scalar t, by the
    order-3 chain rule; the only numerics are psi'' and psi''' from the
    analytic profile."""
    x, d1, d2, d3 = float(t), 1.0, 0.0, 0.0
    for op in stages:
        if op[0] == "shift":
            x += op[1]
            continue
        if op[0] == "psi":
            y = model.value(x)
            f1 = model.deriv(x)
            f2, f3 = _psi_high_derivs(model, x)
        else:
            y = model.inverse(x)
            p1 = model.deriv(y)
            p2, p3 = _psi_high_derivs(model, y)
            f1 = 1.0 / p1
            f2 = -p2 / p1 ** 3
            f3 = (3.0 * p2 ** 2 - p1 * p3) / p1 ** 5
        d3 = f3 * d1 ** 3 + 3.0 * f2 * d1 * d2 + f1 * d3
        d2 = f2 * d1 ** 2 + f1 * d2
        d1 = f1 * d1
        x = y
    return x, d1, d2, d3


def _invert_stages(stages):
    flip = {"psi": ("ipsi",), "ipsi": ("psi",)}
    out = []
    for op in reversed(stages):
        out.append(("shift", -op[1]) if op[0] == "shift" else flip[op[0]])
    return out


@dataclass
class SmoothGenerator:
    """Piecewise composite of psi-iterates and integer shifts on [0, 1];
    pieces are (lo, hi, stages) and every stage list is valid on a
    neighbourhood of its interval."""

    name: str
    model: PsiModel
    pieces: list

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty_like(flat)
        done = np.zeros(flat.shape, dtype=bool)
        for lo, hi, stages in self.pieces:
            mask = ~done & (flat <= hi)
            if mask.any():
                out[mask] = _stage_eval(self.model, stages, flat[mask])
                done |= mask
        if not done.all():  # guard for t slightly past 1
            out[~done] = _stage_eval(self.model, self.pieces[-1][2],
                                     flat[~done])
        out = out.reshape(t.shape)
        return out if out.shape else float(out)

    def boundaries(self):
        return [hi for lo, hi, stages in self.pieces[:-1]]

    def inverse(self):
        pieces = [(float(_stage_eval(self.model, st, np.float64(lo))),
                   float(_stage_eval(self.model, st, np.float64(hi))),
                   _invert_stages(st))
                  for lo, hi, st in self.pieces]
        return SmoothGenerator(self.name + "~", self.model, pieces)


def build_g1(model):
    x34 = model.iterate(-2, 3.0)
    return SmoothGenerator("g1", model, [
        (0.0, 0.5, [("ipsi",)]),
        (0.5, x34, [("psi",), ("psi",), ("shift", -1.0),
                    ("ipsi",), ("ipsi",)]),
        (x34, 1.0, [("psi",), ("shift", -1.0)]),
    ])


def build_g2(model):
    x34 = model.iterate(-2, 3.0)
    x78 = model.iterate(-3, 7.0)
    return SmoothGenerator("g2", model, [
        (0.0, 0.5, []),
        (0.5, x34, [("psi",), ("shift", 1.0), ("ipsi",), ("ipsi",)]),
        (x34, x78, [("psi",), ("psi",), ("psi",), ("shift", -1.0),
                    ("ipsi",), ("ipsi",), ("ipsi",)]),
        (x78, 1.0, [("psi",), ("shift", -1.0)]),
    ])


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D3 = np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0
_DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 2e-3}


def _stencil_derivative(fn, x, order, h):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    vals = np.array([float(fn(np.asarray(x + o))) for o in offsets])
    coef = {1: _D1, 2: _D2, 3: _D3}[order]
    return float(coef @ vals) / h ** order


def g_derivative(gen, t, order=1, h=None):
    """Derivative of order 1..3 by five-point central differences."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    h = h or _DEFAULT_STEPS[order]
    return _stencil_derivative(gen, t, order, h)


def c3_breakpoint_check(gen, tol=1e-5, tol3=1e-3):
    """Jump of value and one-sided derivatives up to order 3 at every
    internal piece boundary.

    Each piece's stage list extends smoothly past the boundary, so its
    one-sided derivatives are obtained by the exact order-3 chain rule
    through the stages.  (Plain finite differences of the assembled map
    cannot resolve order 3 here: the two pieces agree to infinite order
    at the boundary but their difference grows super-exponentially fast
    away from it, which leaves no usable step size against the ~1e-15
    evaluation noise.)
    """
    rows = []
    for i, x in enumerate(gen.boundaries()):
        left = _stage_derivs(gen.model, gen.pieces[i][2], x)
        right = _stage_derivs(gen.model, gen.pieces[i + 1][2], x)
        for order in range(4):
            jump = abs(left[order] - right[order])
            lim = tol3 if order == 3 else tol
            rows.append({"generator": gen.name, "boundary": x,
                         "order": order, "jump": jump, "tol": lim,
                         "passed": jump < lim})
    return rows


# -- conjugation exponents (generator action in dyadic charts) -------------

_HALF = Dyadic(1, 1)
_THREEQ = Dyadic(3, 2)
_SEVEN8 = Dyadic(7, 3)


def _classify(r, gen_name):
    if r == _HALF:
        return "r=1/2"
    if r == _THREEQ:
        return "r=3/4"
    if r < _HALF:
        return "r<1/2"
    if r < _THREEQ:
        return "1/2<r<3/4"
    if gen_name == "g1":
        return "3/4<r<1"
    if r == _SEVEN8:
        return "r=7/8"
    return "3/4<r<7/8" if r < _SEVEN8 else "7/8<r<1"


# (plus-side exponent, minus-side exponent) per position class
_EXPONENTS = {
    "g1": {"r=1/2": (1, 0), "r=3/4": (0, -1)},
    "g2": {"r=1/2": (-1, 0), "r=3/4": (1, 0), "r=7/8": (0, -1)},
}


def lemma6_exponents(r, gen_name, side="+"):
    """Conjugation exponent e with g(phi_r(+-t)) = phi_{f(r)}(psi^e(+-t))."""
    r = _as_dyadic(r)
    if not Dyadic(0) < r < Dyadic(1):
        raise ValueError("r must lie strictly inside (0, 1)")
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    cls = _classify(r, gen_name)
    plus, minus = _EXPONENTS[gen_name].get(cls, (0, 0))
    return plus if side == "+" else minus


def lemma6_verify(model, r, gen, side="+", grid=None):
    """Sup over a [0, 1/4] grid of the conjugation identity defect."""
    r = _as_dyadic(r)
    if grid is None:
        grid = np.linspace(0.0, 0.25, 26)
    grid = np.asarray(grid, dtype=float)
    sign = 1.0 if side == "+" else -1.0
    e = lemma6_exponents(r, gen.name, side)
    fmap = F1 if gen.name == "g1" else F2
    lhs = gen(phi_chart(model, r, sign * grid))
    rhs = phi_chart(model, fmap(r), model.iterate(e, sign * grid))
    return float(np.max(np.abs(lhs - rhs)))


def lemma6_audit_rows(model, g1, g2, denom_exp_max=6, grid=None):
    """Audit rows (r, generator, side, class, exponent, sup_error) for
    every dyadic r with denominator up to 2^denom_exp_max."""
    rows = []
    seen = set()
    for p in range(1, denom_exp_max + 1):
        for k in range(1, 2 ** p, 2):
            r = Dyadic(k, p)
            if r in seen:
                continue
            seen.add(r)
            for gen in (g1, g2):
                for side in ("+", "-"):
                    err = lemma6_verify(model, r, gen, side, grid)
                    rows.append({
                        "r": f"{r.num}/{2 ** r.exp}",
                        "generator": gen.name, "side": side,
                        "case": _classify(r, gen.name),
                        "exponent": lemma6_exponents(r, gen.name, side),
                        "sup_error": err,
                    })
    return rows


# -- symbolic refined partitions Z -----------------------------------------

@dataclass
class SymbolicZ:
    """Implicit family of refined partition tuples over an X set.

    An element is (base tuple from X, index vector j of length 2k with
    each entry in [0, J]); its numeric realization interleaves chart
    blocks around each base coordinate with psi-iterate ladders of step
    1/(4p).  Cardinalities are exact integers; elements are only ever
    realized individually.
    """

    model: PsiModel
    m: int
    l: int
    n: int
    J: int
    p: int
    X: object

    def __post_init__(self):
        self.k = 2 ** self.m * (self.n + 2 * self.l + 2)
        width = self.X.tuple_length()
        if width != self.k - 1:
            raise ValueError(f"X tuples have {width} coordinates, "
                             f"expected k-1 = {self.k - 1}")

    def coord_count(self):
        return self.k * (2 * self.p + 1) - 1

    def cardinality(self):
        return (self.J + 1) ** (2 * self.k) * len(self.X)

    def support(self, i):
        """Base tuples whose f_i-image stays inside X."""
        fmap = F1 if i == 1 else F2
        return [t for t in sorted(self.X.tuples, key=lambda t: t.floats())
                if t.apply(fmap) in self.X]

    def cardinality_zi(self, i, reading="displayed"):
        """|Z_i| under the displayed index ranges (last index free) or
        the restricted reading (all 2k indices in [1, J-1])."""
        base = len(self.support(i))
        if reading == "displayed":
            return (self.J - 1) ** (2 * self.k - 1) * (self.J + 1) * base
        return (self.J - 1) ** (2 * self.k) * base

    def sample(self, rng, restricted=False):
        t = sorted(self.X.tuples, key=lambda t: t.floats())[
            rng.integers(len(self.X))]
        lo, hi = (1, self.J - 1) if restricted else (0, self.J)
        jvec = tuple(int(j) for j in
                     rng.integers(lo, hi + 1, size=2 * self.k))
        return t, jvec

    def realize(self, element):
        t, jvec = element
        it, p = self.model.iterate, self.p
        ladder = np.arange(1, p) / (4.0 * p)
        xs = list(np.atleast_1d(it(jvec[0], ladder))) + [0.25]
        for s, r in enumerate(t.coords, start=1):
            kr, pr = r.num, r.exp
            jm, jp = jvec[2 * s - 1], jvec[2 * s]
            xs.append(it(-pr, kr - 0.25))
            xs += list(np.atleast_1d(it(-pr, kr + it(jm, -ladder[::-1]))))
            xs.append(it(-pr, float(kr)))
            xs += list(np.atleast_1d(it(-pr, kr + it(jp, ladder))))
            xs.append(it(-pr, kr + 0.25))
        xs.append(0.75)
        xs += list(np.atleast_1d(1.0 + it(jvec[2 * self.k - 1],
                                          -ladder[::-1])))
        return np.array(xs)

    def mesh(self, element):
        full = np.concatenate([[0.0], self.realize(element), [1.0]])
        return float(np.max(np.diff(full)))


def build_Z(model, m, l, n, J, p, budget=DEFAULT_BUDGET):
    if J < 2 or p < 1:
        raise ValueError("need J >= 2 and p >= 1")
    X = build_X(m, l, n, budget)
    return SymbolicZ(model, m, l, n, J, p, X)


def lemma7_constant(z, grid_size=101):
    """C = max over 0 <= j <= J, |x| <= 1/4 and base coordinates r of
    |(phi_r(psi^j(x)))'| + |(psi^j(x))'|, by dense finite differences."""
    x = np.linspace(-0.25, 0.25, grid_size)
    charts = sorted({r for t in z.X for r in t.coords})
    best = 0.0
    for j in range(z.J + 1):
        y = z.model.iterate(j, x)
        dy = np.gradient(y, x)
        for r in charts:
            vals = phi_chart(z.model, r, y)
            best = max(best, float(np.max(np.abs(np.gradient(vals, x))
                                          + np.abs(dy))))
    return best


def _shift_vector(z, i, t):
    """Index shift per slot under g_i for base tuple t, from the
    conjugation-exponent table.  Slot 0 is the head ladder, slots
    (2s-1, 2s) the minus/plus sides of base coordinate s, slot 2k-1 the
    tail ladder."""
    name = "g1" if i == 1 else "g2"
    shifts = [("head", -1 if i == 1 else 0)]  # psi^{-1} vs identity near 0
    for r in t.coords:
        label = f"{r.num}/{2 ** r.exp}"
        shifts.append((f"minus@{label}", lemma6_exponents(r, name, "-")))
        shifts.append((f"plus@{label}", lemma6_exponents(r, name, "+")))
    shifts.append(("tail", 1))  # near 1 both generators act as psi(.) - 1
    return shifts


def z_inclusion_audit(z, i, samples=32, seed=0, numeric_tol=1e-7):
    """Blockwise symbolic check that g_i maps Z_i into Z, with a numeric
    spot check on sampled realizations.

    The displayed index ranges leave the tail index free in [0, J]; the
    tail shift is +1, so that reading admits out-of-range images and is
    reported as such.  The restricted reading (all 2k indices in
    [1, J-1]) passes whenever every shift has absolute value <= 1.
    """
    support = z.support(i)
    violations_displayed = set()
    violations_restricted = set()
    shift_vectors = {}
    for t in support:
        shifts = _shift_vector(z, i, t)
        shift_vectors[t] = [e for _, e in shifts]
        for pos, (slot, e) in enumerate(shifts):
            lo, hi = (0, z.J) if pos == 2 * z.k - 1 else (1, z.J - 1)
            if lo + e < 0 or hi + e > z.J:
                violations_displayed.add(slot)
            if 1 + e < 0 or z.J - 1 + e > z.J:
                violations_restricted.add(slot)
    report = {
        "i": i, "J": z.J, "p": z.p, "k": z.k,
        "support_size": len(support),
        "displayed_reading_ok": bool(support) and not violations_displayed,
        "displayed_violations": sorted(violations_displayed),
        "restricted_reading_ok": bool(support) and not violations_restricted,
        "cardinality_displayed": z.cardinality_zi(i, "displayed"),
        "cardinality_paper": z.cardinality_zi(i, "restricted"),
    }
    if not support:
        report["numeric_sup_error"] = None
        return report
    # numeric spot check under the restricted reading
    rng = np.random.default_rng(seed)
    gen = (build_g1 if i == 1 else build_g2)(z.model)
    fmap = F1 if i == 1 else F2
    worst = 0.0
    for _ in range(samples):
        t = support[rng.integers(len(support))]
        jvec = tuple(int(v) for v in rng.integers(1, z.J, size=2 * z.k))
        image_sym = (t.apply(fmap),
                     tuple(j + e for j, e in zip(jvec, shift_vectors[t])))
        got = gen(z.realize((t, jvec)))
        want = z.realize(image_sym)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report["numeric_sup_error"] = worst
    report["numeric_ok"] = worst < numeric_tol
    return report


def z_structure_audit(z, samples=1000, seed=0, tol=1e-10):
    """Sampled structural checks: coordinate count, strict monotonicity,
    mesh bound against C/(4p), distinctness of realizations."""
    rng = np.random.default_rng(seed)
    C = lemma7_constant(z)
    bound = C / (4.0 * z.p)
    want = z.coord_count()
    count_ok = True
    monotone_ok = True
    mesh_worst = 0.0
    realized = []
    for _ in range(samples):
        e = z.sample(rng)
        xs = z.realize(e)
        count_ok &= len(xs) == want
        monotone_ok &= bool(np.all(np.diff(xs) > 0))
        full = np.concatenate([[0.0], xs, [1.0]])
        mesh_worst = max(mesh_worst, float(np.max(np.diff(full))))
        if len(realized) < 64:
            realized.append((e, xs))
    distinct_ok = all(np.max(np.abs(a[1] - b[1])) > tol
                      for a, b in itertools.combinations(realized, 2)
                      if a[0] != b[0])
    return {"samples": samples, "coord_count": want,
            "coord_count_ok": count_ok, "monotone_ok": monotone_ok,
            "C": C, "mesh_bound": bound, "mesh_worst": mesh_worst,
            "mesh_ok": mesh_worst <= bound, "distinct_ok": distinct_ok}


# -- log-derivative separation (condition (b)) -----------------------------

def _word_logderiv(gens, word, grid, h=1e-5):
    """ln (w)'(t) on a grid for a word over generator tokens, rightmost
    letter applied first; pointwise chain rule with five-point central
    differences for each factor."""
    x = np.asarray(grid, dtype=float)
    total = np.zeros_like(x)
    for token in reversed(word):
        g = gens[token]
        stencil = x[None, :] + h * np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
        vals = g(stencil)
        dg = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        total += np.log(dg)
        x = g(x)
    return total


def _gen_table(g1, g2):
    return {"g1": g1, "g2": g2, "g1~": g1.inverse(), "g2~": g2.inverse()}


def condition_b_distance(g1, g2, word_a, word_b, grid=None):
    """Sup over the grid of |ln a'(t) - ln b'(t)| for two words over
    {g1, g2, g1~, g2~} (~ marks the inverse)."""
    if max(len(word_a), len(word_b)) > 6:
        raise ValueError("words longer than 6 letters are out of scope")
    if grid is None:
        grid = np.linspace(1.0 / 64.0, 63.0 / 64.0, 125)
    gens = _gen_table(g1, g2)
    la = _word_logderiv(gens, word_a, grid)
    lb = _word_logderiv(gens, word_b, grid)
    return float(np.max(np.abs(la - lb)))


def _reduced_words(max_len):
    inv = {"g1": "g1~", "g1~": "g1", "g2": "g2~", "g2~": "g2"}
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (tok,) for w in frontier for tok in inv
                    if not w or inv[w[-1]] != tok]
        words += frontier
    return words


def condition_b_scan(g1, g2, max_len=3, grid=None):
    """Minimum pairwise log-derivative distance over all distinct
    reduced words up to max_len; an empirical lower bound for the
    separation constant."""
    if grid is None:
        grid = np.linspace(1.0 / 64.0, 63.0 / 64.0, 125)
    gens = _gen_table(g1, g2)
    words = _reduced_words(max_len)
    lds = [_word_logderiv(gens, w, grid) for w in words]
    rows = []
    best = None
    for (i, wa), (j, wb) in itertools.combinations(enumerate(words), 2):
        d = float(np.max(np.abs(lds[i] - lds[j])))
        rows.append({"word_a": " ".join(wa) or "e",
                     "word_b": " ".join(wb) or "e", "distance": d})
        best = d if best is None else min(best, d)
    return {"min_distance": best, "pairs": len(rows), "rows": rows}
