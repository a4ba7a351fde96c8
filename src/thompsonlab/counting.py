"""Exact enumeration apparatus for the orbit-count family a(n, k).

The recurrence a(n+1, k+1) = sum_i a(i, k+1) a(n-i, k) with a(0, k) = 1,
a(n, 1) = 1 is treated as ground truth.  The generating-function column
p_{k-1}/p_k, the product-of-roots form of p_k, the dominant-pole growth
rate, and the claimed closed-form limit constant are all checked against
it; the limit constant is an audit target (reported, never asserted equal)
because it disagrees with the recurrence by a factor of (k+2)^2.
"""

from __future__ import annotations

import functools
import itertools
import math

from .dyadic import Tuple_, Word, standard_point


def a_table(n_max: int, k_max: int):
    """Exact table a[n][k] for 0 <= n <= n_max, 1 <= k <= k_max."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    a = [[0] * (k_max + 1) for _ in range(n_max + 1)]
    for k in range(1, k_max + 1):
        a[0][k] = 1
    for n in range(n_max + 1):
        a[n][1] = 1
    for k in range(2, k_max + 1):
        for n in range(1, n_max + 1):
            # a(n, k) = sum_{i=0}^{n-1} a(i, k) a(n-1-i, k-1)
            a[n][k] = sum(a[i][k] * a[n - 1 - i][k - 1] for i in range(n))
    return a


def p_poly(k: int):
    """Coefficients (ascending) of the denominator polynomial p_k.

    p_0 = 1, p_1 = 1 - t, p_{k+1} = p_k - t p_{k-1}.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = [1], [1, -1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        shifted = [0] + prev
        n = max(len(cur), len(shifted))
        nxt = [(cur[i] if i < len(cur) else 0) - (shifted[i] if i < len(shifted) else 0)
               for i in range(n)]
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        prev, cur = cur, nxt
    return cur


def series_from_gf(k: int, n_max: int):
    """First n_max+1 power-series coefficients of p_{k-1}/p_k.

    Exact integer long division; valid because p_k(0) = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num = p_poly(k - 1)
    den = p_poly(k)
    coeffs = []
    state = list(num) + [0] * max(0, n_max + 1 - len(num))
    for n in range(n_max + 1):
        c = state[n] if n < len(state) else 0
        coeffs.append(c)
        if c:
            for j in range(1, len(den)):
                idx = n + j
                while idx >= len(state):
                    state.append(0)
                state[idx] -= c * den[j]
    return coeffs


def dominant_pole(k: int) -> float:
    """Location 1 / (4 cos^2(pi/(k+2))) of the smallest root of p_k."""
    return 1.0 / (4.0 * math.cos(math.pi / (k + 2)) ** 2)


def roots_check(k: int):
    """Expand prod_l (1 - 4 t cos^2(pi l / (k+2))) and compare with p_k.

    Returns the maximum absolute coefficient deviation (float expansion
    against the exact integer recurrence).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = (k + 1) // 2
    poly = [1.0]
    for l in range(1, m + 1):
        c = -4.0 * math.cos(math.pi * l / (k + 2)) ** 2
        new = [0.0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i] += a
            new[i + 1] += a * c
        poly = new
    exact = p_poly(k)
    err = 0.0
    for i in range(max(len(poly), len(exact))):
        a = poly[i] if i < len(poly) else 0.0
        b = exact[i] if i < len(exact) else 0
        err = max(err, abs(a - b))
    return err


def growth_rate(k: int, n: int, table=None):
    """Empirical ratio a(n+1,k)/a(n,k) against the predicted 4cos^2(pi/(k+2))."""
    if table is None:
        table = a_table(n + 1, k)
    empirical = table[n + 1][k] / table[n][k]
    predicted = 4.0 * math.cos(math.pi / (k + 2)) ** 2
    return empirical, predicted


def residue_limit(k: int) -> float:
    """Predicted limit of a(n,k) / (4^{n+1} cos^{2n}(pi/(k+2))).

    From the dominant partial fraction of p_{k-1}/p_k at its smallest pole
    t1: the coefficient of 1/(1 - t/t1) is -p_{k-1}(t1)/(t1 p_k'(t1)), and
    a(n,k) ~ coeff * (4 cos^2)^n, so the normalized limit is coeff / 4.
    """
    t1 = dominant_pole(k)
    num = p_poly(k - 1)
    den = p_poly(k)
    p_num = sum(c * t1 ** i for i, c in enumerate(num))
    dp = sum(i * c * t1 ** (i - 1) for i, c in enumerate(den) if i >= 1)
    return -p_num / (t1 * dp) / 4.0


def limit_constant_audit(k: int, n: int, table=None):
    """Empirical normalized limit vs the claimed constant (k+2)sin^2(pi/(k+2)).

    Returns (empirical_limit, claimed, ratio).  The two disagree by the
    factor (k+2)^2; the ratio is the deliverable, not an assertion.
    """
    if table is None:
        table = a_table(n, k)
    cos2 = 4.0 * math.cos(math.pi / (k + 2)) ** 2
    # a(n,k) / (4^{n+1} cos^{2n}) computed in logs to dodge overflow
    log_emp = math.log(table[n][k]) - math.log(4.0) - n * math.log(cos2)
    empirical = math.exp(log_emp)
    claimed = (k + 2) * math.sin(math.pi / (k + 2)) ** 2
    return empirical, claimed, claimed / empirical


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed its configured budget."""


def orbit_words(n: int, k: int):
    """The word family generating the n-th orbit level at height cap k.

    For n >= 1 the pattern is  f2 f1^{-l1} f2 f1^{l1-l2} ... f2 f1^{l_{n-1}}
    with 0 <= l_i <= min(k, i).
    """
    if n == 0:
        yield Word([])
        return
    ranges = [range(min(k, i) + 1) for i in range(1, n)]
    for ls in itertools.product(*ranges):
        letters = [("f2", 1)]
        prev = 0
        for l in ls:
            letters.append(("f1", prev - l))
            letters.append(("f2", 1))
            prev = l
        if ls:
            letters.append(("f1", ls[-1]))
        yield Word(letters)


def enumerate_orbit(n: int, k: int, n_budget: int = 10, k_budget: int = 4):
    """All distinct images of (r_0, ..., r_{n+1}) under the word family.

    Returns a frozenset of Tuple_.  Exact dedup; the cardinality is
    compared with a(n,k) in the audit report only.  The budget is checked
    on every call; the enumeration itself is memoised on (n, k), since its
    result is immutable.
    """
    if n > n_budget or k > k_budget:
        raise BudgetExceeded(f"orbit enumeration budget: n<={n_budget}, k<={k_budget}")
    return _orbit(n, k)


@functools.lru_cache(maxsize=None)
def _orbit(n: int, k: int):
    if n == 0:
        return frozenset({Tuple_([standard_point(0), standard_point(1)])})
    base = Tuple_([standard_point(i) for i in range(n + 2)])
    seen = set()
    for w in orbit_words(n, k):
        seen.add(w.apply(base))
    return frozenset(seen)


def counting_audit_rows(n_max: int, k_max: int, orbit_n_max: int = 6,
                        orbit_k_max: int = 3, limit_n: int = 40):
    """Rows for the counting audit report.

    Columns: n, k, a_recurrence, a_series, orbit_size, empirical_limit,
    claimed_constant, ratio.  orbit_size is blank beyond its budget.
    """
    table = a_table(max(n_max, limit_n + 1), k_max)
    rows = []
    for k in range(1, k_max + 1):
        series = series_from_gf(k, n_max)
        emp, claimed, ratio = limit_constant_audit(k, limit_n, table)
        for n in range(n_max + 1):
            orbit_size = ""
            if n <= orbit_n_max and k <= orbit_k_max:
                orbit_size = len(enumerate_orbit(n, k, n_budget=orbit_n_max,
                                                 k_budget=orbit_k_max))
            rows.append({
                "n": n, "k": k,
                "a_recurrence": table[n][k],
                "a_series": series[n],
                "orbit_size": orbit_size,
                "empirical_limit": emp,
                "claimed_constant": claimed,
                "ratio": ratio,
            })
    return rows
