"""Gluing of block diffeomorphisms into one diffeomorphism of [0,1].

Given a partition tuple and one diffeomorphism per gap, the block map
rescales each piece into its gap; a piecewise-linear time change with
derivative-ratio weights makes the composite C^1 at the knots.  On top
of that sit the conjugation identity for smooth test maps, the averaged
near-invariance estimator with its trend experiment, and the grid
Hölder seminorm on log-derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .wiener import GridDiffeo, _paths, a_inv, apply_functional


@dataclass
class GlueInput:
    """A strictly increasing tuple in (0,1) plus one diffeomorphism per
    gap (gap count = len(xbar) + 1)."""

    xbar: np.ndarray
    pieces: list

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)
        x = self.knots()
        if not np.all(np.diff(x) > 0):
            raise ValueError("tuple must be strictly increasing in (0,1)")
        if len(self.pieces) != len(x) - 1:
            raise ValueError("piece count must equal gap count")

    def knots(self):
        return np.concatenate([[0.0], self.xbar, [1.0]])


def _piece_eval(q, u):
    """Linear interpolation of a grid diffeomorphism and its derivative
    at points u in [0,1]."""
    M = len(q.values) - 1
    grid = np.arange(M + 1) / M
    return np.interp(u, grid, q.values), np.interp(u, grid, q.deriv)


def build_fn(inp, t):
    """The block map: on [(k-1)/n, k/n] it is
    x_{k-1} + (x_k - x_{k-1}) * piece_k(n t - (k-1))."""
    t = np.asarray(t, dtype=float)
    x = inp.knots()
    n = len(inp.pieces)
    k = np.minimum((t * n).astype(int), n - 1)
    out = np.empty(t.shape)
    for i, q in enumerate(inp.pieces):
        mask = k == i
        if not np.any(mask):
            continue
        v, _ = _piece_eval(q, t[mask] * n - i)
        out[mask] = x[i] + (x[i + 1] - x[i]) * v
    return out


def _weights(inp):
    """Unnormalized time-change slopes: gap_k times the ratio of the
    running products of piece derivatives at 0 and at 1."""
    gaps = np.diff(inp.knots())
    d0 = np.array([q.deriv[0] for q in inp.pieces])
    d1 = np.array([q.deriv[-1] for q in inp.pieces])
    w = np.empty(len(gaps))
    run = 1.0
    for k in range(len(gaps)):
        if k:
            run *= d0[k] / d1[k - 1]
        w[k] = gaps[k] * run
    return w


def build_ltilde(inp, t):
    """The piecewise-linear time change: block [(k-1)/n, k/n] is mapped
    linearly onto the k-th normalized weight interval."""
    t = np.asarray(t, dtype=float)
    n = len(inp.pieces)
    w = _weights(inp)
    S = np.concatenate([[0.0], np.cumsum(w)]) / w.sum()
    k = np.minimum((t * n).astype(int), n - 1)
    return S[k] + (t * n - k) * (S[k + 1] - S[k])


def q_glue(inp, M=2 ** 10):
    """The glued diffeomorphism: block map composed with the inverse
    time change, sampled on a uniform grid of M+1 points; C^1 at
    interior knots by the weight identity."""
    x = inp.knots()
    gaps = np.diff(x)
    w = _weights(inp)
    W = w.sum()
    S = np.concatenate([[0.0], np.cumsum(w)]) / W
    s = np.arange(M + 1) / M
    k = np.minimum(np.searchsorted(S, s, side="right") - 1, len(gaps) - 1)
    vals = np.empty(M + 1)
    der = np.empty(M + 1)
    for i, q in enumerate(inp.pieces):
        mask = k == i
        if not np.any(mask):
            continue
        u = (s[mask] - S[i]) / (S[i + 1] - S[i])
        v, d = _piece_eval(q, u)
        vals[mask] = x[i] + gaps[i] * v
        der[mask] = gaps[i] * d * W / w[i]
    vals[0], vals[-1] = 0.0, 1.0
    return GridDiffeo(vals, der)


def knot_mismatch(inp):
    """Max gap between the one-sided glued derivatives at the interior
    knots, from the displayed left/right formulas (equal in exact
    arithmetic; float evaluation leaves only rounding)."""
    gaps = np.diff(inp.knots())
    w = _weights(inp)
    W = w.sum()
    left = np.array([gaps[k] * q.deriv[-1] * W / w[k]
                     for k, q in enumerate(inp.pieces)])
    right = np.array([gaps[k] * q.deriv[0] * W / w[k]
                      for k, q in enumerate(inp.pieces)])
    return float(np.max(np.abs(left[:-1] - right[1:])))


def conjugation_pieces(g, inp):
    """Push the glue data through a smooth test map g: the partition
    becomes g(xbar) and piece k becomes
    (g(x_{k-1} + gap_k q_k) - g(x_{k-1})) / (g(x_k) - g(x_{k-1})).
    The transformed time-change weights are proportional to the
    original ones (the g' factors telescope), so gluing the transformed
    data equals g composed with the original glue."""
    x = inp.knots()
    gaps = np.diff(x)
    gx = g.g(x)
    gy = np.diff(gx)
    pieces = []
    for k, q in enumerate(inp.pieces):
        inner = x[k] + gaps[k] * q.values
        vals = (g.g(inner) - gx[k]) / gy[k]
        vals[0], vals[-1] = 0.0, 1.0
        der = gaps[k] * g.d1(inner) * q.deriv / gy[k]
        pieces.append(GridDiffeo(vals, der))
    return GlueInput(gx[1:-1], pieces)


# -- averaged estimator ----------------------------------------------------

def _functional(tag, q):
    if tag == "one":
        return 1.0
    return float(apply_functional(tag, q))


@dataclass
class EstimatorConfig:
    """Uniform weights on a finite set of partition tuples, with the
    Monte Carlo sizes for the inner path samples."""

    delta: float
    support: list
    inner_samples: int
    M: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if not self.support:
            raise ValueError("support must be nonempty")


def _sample_glue(cfg, i, identity_pieces=False):
    """The i-th glued sample: a uniformly chosen support tuple with
    independent path-measure pieces on its gaps."""
    rng = np.random.default_rng([cfg.seed, i])
    xbar = np.asarray(cfg.support[rng.integers(len(cfg.support))],
                      dtype=float)
    n = len(xbar) + 1
    if identity_pieces:
        grid = np.arange(cfg.M + 1) / cfg.M
        pieces = [GridDiffeo(grid.copy(), np.ones(cfg.M + 1))
                  for _ in range(n)]
    else:
        q = a_inv(_paths(rng, (n,), cfg.M))
        pieces = [GridDiffeo(q.values[j], q.deriv[j]) for j in range(n)]
    return q_glue(GlueInput(xbar, pieces), M=cfg.M)


def L_estimator(tag, cfg, transform=None, identity_pieces=False):
    """Monte Carlo average of F over glued samples; `transform`
    optionally maps each glued diffeomorphism before F is applied
    (used for the translated functional F_g)."""
    vals = np.empty(cfg.inner_samples)
    for i in range(cfg.inner_samples):
        q = _sample_glue(cfg, i, identity_pieces=identity_pieces)
        if transform is not None:
            q = transform(q)
        vals[i] = _functional(tag, q)
    est = float(vals.mean())
    se = float(vals.std() / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return est, se


def _compose_generator_inverse(ginv, q, deriv_fn):
    """g^{-1} composed with a glued diffeomorphism, for a chart-built
    generator g with inverse ginv and numeric derivative deriv_fn(t)."""
    vals = np.clip(ginv(q.values), 0.0, 1.0)
    vals[0], vals[-1] = 0.0, 1.0
    der = q.deriv / deriv_fn(vals)
    return GridDiffeo(vals, der)


def theorem3_experiment(tag, gen_name, gen, deriv_fn, stages, cfg_base):
    """Coupled-seed comparison of L(F) and L(F_g) with
    F_g(f) = F(g^{-1} o f), one row per support stage.  Emits the
    trend; asserts nothing about convergence."""
    ginv = gen.inverse() if gen is not None else None
    rows = []
    for label, support in stages:
        cfg = EstimatorConfig(cfg_base.delta, support,
                              cfg_base.inner_samples, cfg_base.M,
                              cfg_base.seed)
        lf, se_f = L_estimator(tag, cfg)
        if gen is None:
            lfg, se_g = lf, se_f
        else:
            lfg, se_g = L_estimator(
                tag, cfg,
                transform=lambda q: _compose_generator_inverse(
                    ginv, q, deriv_fn))
        n = len(support[0]) + 1
        rows.append({"stage": label, "n": n, "support_size": len(support),
                     "F": tag, "g": gen_name, "L_F": lf, "L_Fg": lfg,
                     "diff": lfg - lf, "SE": math.hypot(se_f, se_g),
                     "seed": cfg.seed})
    return rows


# -- Hölder seminorm -------------------------------------------------------

def holder_seminorm(q, delta):
    """|ln q'(0)| plus the grid supremum of
    |ln q'(t2) - ln q'(t1)| / |t2 - t1|^delta, with the witness pair.
    A lower bound to the true seminorm."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    logd = np.log(q.deriv)
    M = len(logd) - 1
    t = np.arange(M + 1) / M
    best = 0.0
    witness = (0.0, 0.0)
    chunk = 256
    for lo in range(0, M + 1, chunk):
        hi = min(lo + chunk, M + 1)
        num = np.abs(logd[lo:hi, None] - logd[None, :])
        den = np.abs(t[lo:hi, None] - t[None, :]) ** delta
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den > 0, num / den, 0.0)
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[i, j] > best:
            best = float(ratio[i, j])
            witness = (t[lo + i], t[j])
    return {"value": abs(float(logd[0])) + best, "head": abs(float(logd[0])),
            "sup": best, "witness": witness, "delta": delta}
