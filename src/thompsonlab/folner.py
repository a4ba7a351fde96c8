"""Block-built candidate Folner families and exact ratio audits.

The Y families are built literally from the printed block structure: block i
(1 <= i <= l) is an f1^i-image of an orbit level, so consecutive blocks
share the boundary points f1^i(1/2) and the glued tuples live in (0, 1/2].
The X families union f1-shifted copies and are refined by the midpoint map.
All set cardinalities and ratios are exact; the contested ratio claims are
reported, never asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import counting
from .counting import BudgetExceeded
from .dyadic import F1, F1_INV, F2, Dyadic, PLMap, Tuple_, midpoint

DEFAULT_BUDGET = 10 ** 6


class PreconditionViolation(Exception):
    """A map breakpoint falls strictly inside a tuple gap."""


@dataclass(frozen=True)
class TupleSet:
    """A finite set of equal-length partition tuples with provenance."""

    tuples: frozenset
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        lengths = {len(t) for t in self.tuples}
        if len(lengths) > 1:
            raise ValueError("tuples must have uniform length")

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, t):
        return t in self.tuples

    def tuple_length(self):
        return len(next(iter(self.tuples))) if self.tuples else 0

    def mesh_max(self) -> Dyadic:
        return max((t.mesh() for t in self.tuples), default=Dyadic(0))

    def apply(self, g: PLMap) -> "TupleSet":
        return TupleSet(frozenset(t.apply(g) for t in self.tuples),
                        dict(self.params, image=True))


def _f1_power(tpl: Tuple_, j: int) -> Tuple_:
    step = F1 if j >= 0 else F1_INV
    coords = list(tpl.coords)
    for _ in range(abs(j)):
        coords = step.images(coords)
    return Tuple_(coords)


def _orbit_blocks(n_i: int, k: int):
    """Orbit level I_{n_i}^{k} as raw tuples (length n_i + 2)."""
    return counting.enumerate_orbit(n_i, k, n_budget=max(10, n_i),
                                    k_budget=max(4, k))


def build_Y(l: int, parts, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """Y_{l, n_1..n_l}: all gluings of compatible blocks.

    Block i (1 <= i <= l) spans the standard-point gap (r_{i-1}, r_i): it is
    the backward shift f1^{-(i-1)} of an orbit-level tuple, so consecutive
    blocks share the boundary points r_1, ..., r_{l-1} and the glued tuple
    runs from 1/2 up toward 1.
    """
    parts = list(parts)
    if l < 1 or len(parts) != l:
        raise ValueError("need exactly l block sizes")
    block_sets = []
    total = 1
    for i in range(1, l + 1):
        raw = _orbit_blocks(parts[i - 1], l - i)
        blocks = [_f1_power(t, -(i - 1)) for t in raw]
        total *= len(blocks)
        if total > budget:
            raise BudgetExceeded(f"Y block product exceeds budget {budget}")
        block_sets.append(blocks)
    out = set()
    for choice in itertools.product(*block_sets):
        # choice runs i = 1..l; adjacent blocks share a boundary
        coords = list(choice[0].coords)
        for blk in choice[1:]:
            if blk.coords[0] != coords[-1]:
                raise AssertionError("block boundaries out of alignment")
            coords.extend(blk.coords[1:])
        out.add(Tuple_(coords))
        if len(out) > budget:
            raise BudgetExceeded(f"Y cardinality exceeds budget {budget}")
    return TupleSet(frozenset(out), {"l": l, "parts": tuple(parts)})


def _compositions(n: int, l: int):
    if l == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, l - 1):
            yield (head,) + rest


def build_Yln(l: int, n: int, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """Union of Y_{l, n_1..n_l} over all compositions n_1+...+n_l = n."""
    out = set()
    for parts in _compositions(n, l):
        out |= build_Y(l, parts, budget).tuples
        if len(out) > budget:
            raise BudgetExceeded(f"Y^{{{l},{n}}} exceeds budget {budget}")
    return TupleSet(frozenset(out), {"l": l, "n": n})


def build_Yln0(l: int, n: int, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """The sub-union with first block size forced to zero."""
    out = set()
    for parts in _compositions(n, l):
        if parts[0] != 0:
            continue
        out |= build_Y(l, parts, budget).tuples
    return TupleSet(frozenset(out), {"l": l, "n": n, "first_block": 0})


def shift_identity_audit(l: int, n: int, budget: int = DEFAULT_BUDGET):
    """Compare f2(Y^{l+1,n}) with Y^{l,n+1} minus its zero-first-block part.

    Returns a dict report with both cardinalities and the exact symmetric
    difference size; the identity is recorded, not asserted.
    """
    lhs = build_Yln(l + 1, n, budget).apply(F2).tuples
    rhs_full = build_Yln(l, n + 1, budget).tuples
    rhs0 = build_Yln0(l, n + 1, budget).tuples
    rhs = rhs_full - rhs0
    sym = lhs ^ rhs
    return {
        "l": l, "n": n,
        "lhs_size": len(lhs), "rhs_size": len(rhs),
        "symmetric_difference": len(sym),
        "equal": not sym,
    }


def kappa(tpl: Tuple_) -> Tuple_:
    """Midpoint refinement: insert the midpoint of every gap (endpoints 0
    and 1 included)."""
    coords = []
    prev = Dyadic(0)
    for c in tpl.coords:
        coords.append(midpoint(prev, c))
        coords.append(c)
        prev = c
    coords.append(midpoint(prev, Dyadic(1)))
    return Tuple_(coords)


def kappa_set(s: TupleSet) -> TupleSet:
    return TupleSet(frozenset(kappa(t) for t in s),
                    dict(s.params, refined=s.params.get("refined", 0) + 1))


def build_X(m: int, l: int, n: int, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """X^{m,l,n}: union of f1^j-shifted Y^{2l-i, n+i}, refined m times."""
    if m < 0 or l < 1 or n < 0:
        raise ValueError("need m >= 0, l >= 1, n >= 0")
    out = set()
    for i in range(l + 1):
        y = build_Yln(2 * l - i, n + i, budget)
        shifted = y.tuples
        for j in range(l):
            if j > 0:
                shifted = {_f1_power(t, 1) for t in shifted}
            out |= shifted
            if len(out) > budget:
                raise BudgetExceeded(f"X^{{0,{l},{n}}} exceeds budget {budget}")
    s = TupleSet(frozenset(out), {"m": 0, "l": l, "n": n})
    for step in range(m):
        s = kappa_set(s)
    return TupleSet(s.tuples, {"m": m, "l": l, "n": n})


def grid_containment_holds(s: TupleSet, m: int) -> bool:
    """Every tuple contains all points j/2^m, 1 <= j <= 2^m - 1."""
    grid = {Dyadic(j, m) for j in range(1, 2 ** m)}
    return all(grid <= set(t.coords) for t in s)


@dataclass
class RatioReport:
    generator: str
    set_size: int
    intersection_size: int
    ratio: Fraction
    paper_prediction: Fraction | None = None

    def as_row(self):
        return {
            "generator": self.generator,
            "set_size": self.set_size,
            "intersection_size": self.intersection_size,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "paper_prediction": (float(self.paper_prediction)
                                 if self.paper_prediction is not None else ""),
        }


def folner_ratio(s: TupleSet, g: PLMap, name: str = "g",
                 prediction: Fraction | None = None) -> RatioReport:
    """Exact |g(S) /\\ S| / |S|, counted twice: as a set intersection
    and tuple by tuple.  Both counts map the tuples with Tuple_.apply."""
    if not s.tuples:
        raise ValueError("set must be nonempty")
    image = frozenset(t.apply(g) for t in s)
    inter_a = len(image & s.tuples)
    inter_b = sum(1 for t in s if t.apply(g) in s.tuples)  # incremental path
    if inter_a != inter_b:
        raise AssertionError("dual-path ratio computation disagrees")
    return RatioReport(name, len(s), inter_a,
                       Fraction(inter_a, len(s)), prediction)


def kappa_equivariance_check(s: TupleSet, g: PLMap):
    """Assert g(kappa(x)) == kappa(g(x)) exactly for every tuple.

    Precondition: every interior breakpoint of g lies on a coordinate of
    each tuple (g is then linear on each gap, so midpoints map to
    midpoints).  Violations raise PreconditionViolation.
    """
    bps = g.interior_breakpoints()
    checked = 0
    for t in s:
        coords = set(t.coords)
        for b in bps:
            if b not in coords:
                raise PreconditionViolation(
                    f"breakpoint {b} falls inside a gap of {t.render()}")
        if kappa(t).apply(g) != kappa(t.apply(g)):
            return {"holds": False, "checked": checked, "witness": t.render()}
        checked += 1
    return {"holds": True, "checked": checked, "witness": None}


def condition_a_audit(s: TupleSet, g: PLMap, eps: Fraction) -> Fraction:
    """Smallest eps-hat with the mesh-filtered invariant subset of uniform
    mass >= 1 - eps-hat.

    The subset keeps tuples that stay in S under g and have mesh < eps;
    on it the uniform measure is exactly g-invariant (singleton ratios 1).
    """
    if not s.tuples:
        raise ValueError("set must be nonempty")
    eps = Fraction(eps)
    good = sum(1 for t in s
               if t.mesh().as_fraction() < eps and t.apply(g) in s.tuples)
    return 1 - Fraction(good, len(s))


def folner_audit_rows(pairs, m: int = 0, budget: int = DEFAULT_BUDGET):
    """Report rows for (l, n) pairs: ratios for both generators at level m."""
    rows = []
    for l, n in pairs:
        s = build_X(m, l, n, budget)
        for name, g in (("f1", F1), ("f2", F2)):
            pred = Fraction(l - 1, l) if name == "f1" else None
            rep = folner_ratio(s, g, name, pred)
            row = {"m": m, "l": l, "n": n, **rep.as_row(),
                   "mesh_max": str(s.mesh_max())}
            rows.append(row)
    return rows
