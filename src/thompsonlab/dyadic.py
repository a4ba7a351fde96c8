"""Exact dyadic rationals, piecewise-linear dyadic homeomorphisms of [0,1],
and the coordinatewise action on partition tuples.

Everything here is immutable and exact (arbitrary-precision integers), so
set cardinalities computed downstream are never polluted by rounding.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction


class Dyadic:
    """A rational of the form num / 2**exp, kept in canonical form.

    Canonical form: exp == 0, or num is odd; num == 0 forces exp == 0.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num, exp=0):
        num = int(num)
        exp = int(exp)
        if exp < 0:
            num <<= -exp
            exp = 0
        c = _canonical(num, exp)
        _set_num(self, c.num)
        _set_exp(self, c.exp)

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    # -- conversions ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        den = f.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{f} is not dyadic")
        return cls(f.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self):
        return self.num / (1 << self.exp)

    # -- arithmetic -------------------------------------------------------
    # Results are built by _canonical with integer shifts only; the
    # isinstance test keeps the Dyadic-Dyadic case free of _coerce calls.

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Dyadic):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        d = self.exp - other.exp
        if d >= 0:
            return _canonical(self.num + (other.num << d), self.exp)
        return _canonical((self.num << -d) + other.num, other.exp)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.num, self.exp)

    def __sub__(self, other):
        if not isinstance(other, Dyadic):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        d = self.exp - other.exp
        if d >= 0:
            return _canonical(self.num - (other.num << d), self.exp)
        return _canonical((self.num << -d) - other.num, other.exp)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Dyadic):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return _canonical(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def half(self) -> "Dyadic":
        return _canonical(self.num, self.exp + 1)

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other):
        """Sign of self - other (one integer shift), or NotImplemented."""
        if not isinstance(other, Dyadic):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        d = self.exp - other.exp
        if d >= 0:
            a, b = self.num, other.num << d
        else:
            a, b = self.num << -d, other.num
        return (a > b) - (a < b)

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __hash__(self):
        # equal to hash(int) for integers, since Dyadic(n) == n
        return hash((self.num, self.exp)) if self.exp else hash(self.num)

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self):
        return f"{self.num}/2^{self.exp}"


_set_num = Dyadic.num.__set__
_set_exp = Dyadic.exp.__set__
_new_dyadic = object.__new__


def _canonical(num, exp):
    """num / 2**exp as a Dyadic, for ints with exp >= 0.

    The one place the canonical form is made: the trailing zero bits of
    num are stripped in one step, and __init__ is bypassed.
    """
    if num == 0:
        exp = 0
    elif exp and not num & 1:
        tz = min((num & -num).bit_length() - 1, exp)
        num >>= tz
        exp -= tz
    d = _new_dyadic(Dyadic)
    _set_num(d, num)
    _set_exp(d, exp)
    return d


ZERO = Dyadic(0)
ONE = Dyadic(1)


def midpoint(a: Dyadic, b: Dyadic) -> Dyadic:
    d = a.exp - b.exp
    if d >= 0:
        return _canonical(a.num + (b.num << d), a.exp + 1)
    return _canonical((a.num << -d) + b.num, b.exp + 1)


class PLMap:
    """Piecewise-linear homeomorphism of [0,1] with dyadic breakpoints.

    Stored as the canonical breakpoint list ((0,0), ..., (1,1)) with
    collinear interior points removed.  Slopes of maps generated by the
    standard pair are always integer powers of 2, but the class itself only
    requires strict monotonicity.

    Evaluation tables are built once per map: the breakpoint abscissae as
    integers over their common denominator 2^E, and for each segment of
    slope 2^k the pair (k, c) with y = 2^k x + c on it, so such a segment
    is evaluated with integer shifts only.  A segment whose slope is not a
    power of two is marked None and evaluated with Fractions.
    """

    __slots__ = ("breakpoints", "_xexp", "_xs", "_segments")

    def __init__(self, breakpoints):
        pts = [(x if isinstance(x, Dyadic) else Dyadic(x),
                y if isinstance(y, Dyadic) else Dyadic(y))
               for x, y in breakpoints]
        if pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must be strictly increasing")
        pts = tuple(_canonicalize(pts))
        xexp = max(x.exp for x, _ in pts)
        segments = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            s = (y1 - y0).as_fraction() / (x1 - x0).as_fraction()
            n, dn = s.numerator, s.denominator
            if n & (n - 1) or dn & (dn - 1):
                segments.append(None)
                continue
            k = n.bit_length() - dn.bit_length()
            c = y0 - x0 * Dyadic(1, -k)
            segments.append((k, c.num, c.exp))
        _set = object.__setattr__
        _set(self, "breakpoints", pts)
        _set(self, "_xexp", xexp)
        _set(self, "_xs", tuple(x.num << (xexp - x.exp) for x, _ in pts))
        _set(self, "_segments", tuple(segments))

    def __setattr__(self, *a):
        raise AttributeError("PLMap is immutable")

    def __call__(self, x: Dyadic) -> Dyadic:
        """Exact image of a dyadic point in [0,1]."""
        if not isinstance(x, Dyadic):
            if not isinstance(x, int):
                raise TypeError("argument must be a Dyadic or an int")
            x = Dyadic(x)
        return self.images((x,))[0]

    def images(self, points):
        """Exact images of a sequence of dyadic points in [0,1], in order."""
        xexp, xs, segments = self._xexp, self._xs, self._segments
        last = len(xs) - 1
        out = []
        for x in points:
            a, e = x.num, x.exp
            if not 0 <= a <= 1 << e:
                raise ValueError("argument outside [0,1]")
            # floor(x * 2^E) orders x against the breakpoints exactly,
            # because every breakpoint times 2^E is an integer
            d = xexp - e
            i = bisect_right(xs, a << d if d >= 0 else a >> -d, 0, last) - 1
            seg = segments[i]
            if seg is None:
                out.append(self._eval_fraction(i, x))
                continue
            k, cn, ce = seg
            t = e - k                  # 2^k x = a / 2^t
            if t >= ce:
                out.append(_canonical(a + (cn << (t - ce)), t))
            else:
                out.append(_canonical((a << (ce - t)) + cn, ce))
        return out

    def _eval_fraction(self, i, x):
        (x0, y0), (x1, y1) = self.breakpoints[i], self.breakpoints[i + 1]
        if x == x0:
            return y0
        slope = (y1 - y0).as_fraction() / (x1 - x0).as_fraction()
        return Dyadic.from_fraction(y0.as_fraction() + slope * (x.as_fraction() - x0.as_fraction()))

    def slopes(self):
        out = []
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            out.append((y1.as_fraction() - y0.as_fraction()) / (x1.as_fraction() - x0.as_fraction()))
        return out

    def inverse(self) -> "PLMap":
        return PLMap([(y, x) for x, y in self.breakpoints])

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other (function composition self o other)."""
        xs = {x for x, _ in other.breakpoints}
        inv = other.inverse()
        for x, _ in self.breakpoints:
            xs.add(inv(x))
        xs = sorted(xs)
        return PLMap([(x, self(other(x))) for x in xs])

    def __mul__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.compose(other)

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def is_identity(self) -> bool:
        return len(self.breakpoints) == 2

    def interior_breakpoints(self):
        return [x for x, _ in self.breakpoints[1:-1]]

    def __repr__(self):
        pts = ", ".join(f"({x},{y})" for x, y in self.breakpoints)
        return f"PLMap([{pts}])"


def _canonicalize(pts):
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        x0, y0 = out[-1]
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        lhs = (y1.as_fraction() - y0.as_fraction()) * (x2.as_fraction() - x1.as_fraction())
        rhs = (y2.as_fraction() - y1.as_fraction()) * (x1.as_fraction() - x0.as_fraction())
        if lhs != rhs:
            out.append(pts[i])
    out.append(pts[-1])
    return out


IDENTITY = PLMap([(ZERO, ZERO), (ONE, ONE)])

# the standard generating pair of the dyadic PL group
F1 = PLMap([
    (Dyadic(0), Dyadic(0)),
    (Dyadic(1, 1), Dyadic(1, 2)),
    (Dyadic(3, 2), Dyadic(1, 1)),
    (Dyadic(1), Dyadic(1)),
])
F2 = PLMap([
    (Dyadic(0), Dyadic(0)),
    (Dyadic(1, 1), Dyadic(1, 1)),
    (Dyadic(3, 2), Dyadic(5, 3)),
    (Dyadic(7, 3), Dyadic(3, 2)),
    (Dyadic(1), Dyadic(1)),
])

F1_INV = F1.inverse()
F2_INV = F2.inverse()

GENERATORS = {"f1": F1, "f2": F2}
INVERSES = {"f1": F1_INV, "f2": F2_INV}


def standard_point(n: int) -> Dyadic:
    """r_n = 1 - 1/2^(n+1) for n >= 0, and 1/2^(-n) for n < 0."""
    if n >= 0:
        return Dyadic((1 << (n + 1)) - 1, n + 1)
    return Dyadic(1, -n)


class Tuple_:
    """Strictly increasing tuple of dyadics in (0,1): a point of the open
    partition simplex.  Endpoints 0 and 1 are implicit."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if set(map(type, coords)) - {Dyadic}:
            coords = tuple(c if isinstance(c, Dyadic) else Dyadic(c) for c in coords)
        pn, pe = 0, 0                  # previous coordinate, starting at 0
        for c in coords:
            n, e = c.num, c.exp
            d = e - pe
            if not ((pn << d) < n if d >= 0 else pn < (n << -d)) \
                    or n >= 1 << e:
                raise ValueError("coordinates must be strictly increasing in (0,1)")
            pn, pe = n, e
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Tuple_ is immutable")

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, Tuple_):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Tuple_({[str(c) for c in self.coords]})"

    def render(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def mesh(self) -> Dyadic:
        """Maximum gap, endpoints 0 and 1 included."""
        pts = (ZERO,) + self.coords + (ONE,)
        best = pts[1] - pts[0]
        for a, b in zip(pts[1:], pts[2:]):
            gap = b - a
            if best < gap:
                best = gap
        return best

    def apply(self, f: PLMap) -> "Tuple_":
        return Tuple_(f.images(self.coords))

    def floats(self):
        return [float(c) for c in self.coords]


class Word:
    """A word in the generating pair, as (generator-id, exponent) letters.

    Adjacent letters carry distinct generator ids and nonzero exponents.
    Application is rightmost-letter-first (function composition order);
    pass leftmost_first=True to flip the convention.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        norm = []
        for gen, e in letters:
            if gen not in ("f1", "f2"):
                raise ValueError(f"unknown generator {gen!r}")
            e = int(e)
            if e == 0:
                continue
            if norm and norm[-1][0] == gen:
                e2 = norm[-1][1] + e
                norm.pop()
                if e2 != 0:
                    norm.append((gen, e2))
            else:
                norm.append((gen, e))
        object.__setattr__(self, "letters", tuple(norm))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({list(self.letters)})"

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self.letters)])

    def to_map(self) -> PLMap:
        m = IDENTITY
        for gen, e in self.letters:
            step = GENERATORS[gen] if e > 0 else INVERSES[gen]
            for _ in range(abs(e)):
                m = m * step
        return m

    def apply(self, xs: Tuple_, leftmost_first: bool = False) -> Tuple_:
        letters = self.letters if not leftmost_first else tuple(reversed(self.letters))
        seq = reversed(letters)  # rightmost letter acts first
        out = list(xs.coords)
        for gen, e in seq:
            step = GENERATORS[gen] if e > 0 else INVERSES[gen]
            for _ in range(abs(e)):
                out = step.images(out)
        return Tuple_(out)


EMPTY_WORD = Word([])
