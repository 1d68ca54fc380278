"""Exact arithmetic for reverse-lex exponents and finite-support Hahn series.

Exponents live in the direct sum of copies of Z ordered reverse
lexicographically (the largest differing index decides).  Series have finite
support and rational coefficients; scalars are exact fractions of series, so
inverses never require infinite expansions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering

from .errors import DivisionByZero, ParseError


@total_ordering
class GammaExp:
    """A finitely supported integer sequence, compared reverse lexically."""

    __slots__ = ("_items",)

    def __init__(self, items=()):
        if isinstance(items, dict):
            items = items.items()
        acc = {}
        for idx, val in items:
            acc[int(idx)] = acc.get(int(idx), 0) + int(val)
        self._items = tuple(sorted((i, v) for i, v in acc.items() if v))

    @classmethod
    def delta(cls, n):
        return cls([(n, 1)])

    def __call__(self, idx):
        for i, v in self._items:
            if i == idx:
                return v
        return 0

    @property
    def support(self):
        return tuple(i for i, _ in self._items)

    def items(self):
        return self._items

    def __add__(self, other):
        if other is INF:
            return INF
        a, b = self._items, other._items
        if not a:
            return other
        if not b:
            return self
        out = GammaExp.__new__(GammaExp)
        out._items = _merge_items(a, b, 1)
        return out

    def __neg__(self):
        out = GammaExp.__new__(GammaExp)
        out._items = tuple((i, -v) for i, v in self._items)
        return out

    def __sub__(self, other):
        out = GammaExp.__new__(GammaExp)
        out._items = _merge_items(self._items, other._items, -1)
        return out

    def __mul__(self, k):
        return GammaExp(tuple((i, k * v) for i, v in self._items))

    def __eq__(self, other):
        if other is INF:
            return False
        return isinstance(other, GammaExp) and self._items == other._items

    def __lt__(self, other):
        if other is INF:
            return True
        a, b = self._items, other._items
        ia, ib = len(a) - 1, len(b) - 1
        while ia >= 0 or ib >= 0:
            if ib < 0 or (ia >= 0 and a[ia][0] > b[ib][0]):
                return a[ia][1] < 0
            if ia < 0 or b[ib][0] > a[ia][0]:
                return b[ib][1] > 0
            if a[ia][1] != b[ib][1]:
                return a[ia][1] < b[ib][1]
            ia -= 1
            ib -= 1
        return False

    def __hash__(self):
        return hash(self._items)

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):
        if not self._items:
            return "(0)"
        return "(" + ",".join(f"{i}:{v}" for i, v in self._items) + ")"


def _merge_items(a, b, sign):
    """Merge two canonical item tuples, scaling the second by sign."""
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        if a[ia][0] < b[ib][0]:
            out.append(a[ia])
            ia += 1
        elif a[ia][0] > b[ib][0]:
            out.append((b[ib][0], sign * b[ib][1]))
            ib += 1
        else:
            v = a[ia][1] + sign * b[ib][1]
            if v:
                out.append((a[ia][0], v))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend((i, sign * v) for i, v in b[ib:])
    return tuple(out)


class _Infinity:
    """Sentinel valuation of the zero series, above every exponent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("the infinite valuation has no negative")

    def __hash__(self):
        return hash("omlkit-valuation-infinity")

    def __repr__(self):
        return "inf"


INF = _Infinity()
GAMMA_ZERO = GammaExp()


class TypeClass:
    """An element of Gamma/2Gamma: the set of indices with odd components."""

    __slots__ = ("indices",)

    def __init__(self, indices=()):
        self.indices = frozenset(int(i) for i in indices)

    def __add__(self, other):
        return TypeClass(self.indices ^ other.indices)

    def __eq__(self, other):
        return isinstance(other, TypeClass) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "T{" + ",".join(str(i) for i in sorted(self.indices)) + "}"


def tclass(gamma):
    """The quotient map Gamma -> Gamma/2Gamma, reducing components mod 2."""
    return TypeClass(i for i, v in gamma.items() if v % 2)


class HahnSeries:
    """A finite-support map from exponents to rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        acc = {}
        for g, c in coeffs:
            c = Fraction(c)
            if g in acc:
                acc[g] += c
            else:
                acc[g] = c
        self._coeffs = {g: c for g, c in acc.items() if c}

    @classmethod
    def _canonical(cls, coeffs):
        """Wrap a dict that is already canonical, skipping normalisation.

        The caller guarantees that every key is a GammaExp and every value a
        nonzero Fraction; the dict is taken over, not copied.
        """
        out = cls.__new__(cls)
        out._coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls._canonical({})

    @classmethod
    def constant(cls, q):
        return cls.term(q, GAMMA_ZERO)

    @classmethod
    def term(cls, q, gamma):
        q = Fraction(q)
        return cls._canonical({gamma: q} if q else {})

    @classmethod
    def t(cls, n):
        return cls.term(1, GammaExp.delta(n))

    def coefficient(self, gamma):
        return self._coeffs.get(gamma, Fraction(0))

    @property
    def support(self):
        return sorted(self._coeffs)

    @property
    def term_count(self):
        return len(self._coeffs)

    def is_constant(self):
        return not self._coeffs or set(self._coeffs) == {GAMMA_ZERO}

    def valuation(self):
        if not self._coeffs:
            return INF
        return min(self._coeffs)

    def leading_coefficient(self):
        v = self.valuation()
        return Fraction(0) if v is INF else self._coeffs[v]

    def __add__(self, other):
        out = dict(self._coeffs)
        for g, c in other._coeffs.items():
            if g in out:
                c = out[g] + c
                if not c:
                    del out[g]
                    continue
            out[g] = c
        return HahnSeries._canonical(out)

    def __neg__(self):
        return HahnSeries._canonical({g: -c for g, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return HahnSeries.zero()
            return HahnSeries._canonical(
                {g: c * other for g, c in self._coeffs.items()}
            )
        out = {}
        for g1, c1 in self._coeffs.items():
            for g2, c2 in other._coeffs.items():
                g = g1 + g2
                c = c1 * c2
                out[g] = out[g] + c if g in out else c
        return HahnSeries._canonical({g: c for g, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, gamma):
        """This series times the monomial t^gamma."""
        return HahnSeries._canonical(
            {g + gamma: c for g, c in self._coeffs.items()}
        )

    def __eq__(self, other):
        return isinstance(other, HahnSeries) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return emit_series(self)


class HahnScalar:
    """An exact fraction of finite-support series.

    Equality is by cross-multiplication, so representatives need not be
    reduced; valuation is the difference of the component valuations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = HahnSeries.constant(num)
        if den is None:
            den = HahnSeries.constant(1)
        elif isinstance(den, (int, Fraction)):
            den = HahnSeries.constant(den)
        if not den:
            raise DivisionByZero("scalar denominator is zero")
        self.num, self.den = _cancel(num, den)

    @classmethod
    def t(cls, n):
        return cls(HahnSeries.t(n))

    def valuation(self):
        if not self.num:
            return INF
        return self.num.valuation() - self.den.valuation()

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return HahnScalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return HahnScalar(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return HahnScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def invert(self):
        if not self.num:
            raise DivisionByZero("cannot invert the zero scalar")
        return HahnScalar(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.den == HahnSeries.constant(1):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _cancel(num, den, lazy=True):
    """Reduce a series fraction to lowest terms.

    A constant denominator folds into the coefficients.  Otherwise the pair
    is shifted by a common monomial so all exponents are nonnegative and the
    polynomial gcd is cancelled; this keeps supports from compounding across
    chained arithmetic.  Small pairs are left uncancelled: no operation
    depends on lowest terms (equality is by cross-multiplication, valuation
    subtracts), and a polynomial gcd costs more than it saves until supports
    actually grow.
    """
    if not num:
        return HahnSeries.zero(), HahnSeries.constant(1)
    if lazy and len(den._coeffs) > 1 and len(num._coeffs) + len(den._coeffs) <= 24:
        return num, den
    if len(den._coeffs) == 1:
        # a monomial denominator divides in exactly: shift and rescale
        g0 = next(iter(den._coeffs))
        q = den.coefficient(g0)
        if not g0 and q == 1:
            return num, den
        return (
            HahnSeries([(g - g0, c / q) for g, c in num._coeffs.items()]),
            HahnSeries.constant(1),
        )
    new_num, new_den = _on_ring(
        [num, den], lambda pn, pd: pn.cancel(pd)
    )
    if not new_den:
        raise AssertionError("cancellation produced a zero denominator")
    if new_den.term_count == 1:
        return _cancel(new_num, new_den, lazy=lazy)
    return new_num, new_den


def series_ratio(a, b):
    """The fraction a / b in lowest terms, as a (num, den) series pair.

    Unlike scalar construction, this always runs the polynomial gcd, so when
    b divides a (up to a monomial) the returned denominator is the constant 1.
    """
    return _cancel(a, b, lazy=False)


def _on_ring(series_list, op):
    """Run a sparse-polynomial operation on series, mapping results back.

    The series are jointly shifted by a common monomial so all exponents are
    nonnegative; results are returned unshifted, which for gcd and fraction
    cancellation only changes representatives by a common monomial factor.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    indices = sorted(
        {i for s in series_list for g in s.support for i in g.support}
    )
    shift = GammaExp(
        (i, min(g(i) for s in series_list for g in s.support))
        for i in indices
    )
    names = [f"x{i}" for i in indices] or ["x"]
    R = ring(names, QQ)[0]
    width = len(names)

    def to_poly(series):
        return R.from_dict(
            {
                tuple((g - shift)(i) for i in indices) or (0,) * width: QQ(
                    c.numerator, c.denominator
                )
                for g, c in series._coeffs.items()
            }
        )

    def to_series(poly):
        return HahnSeries(
            (
                GammaExp(zip(indices, exps)),
                Fraction(int(c.numerator), int(c.denominator)),
            )
            for exps, c in poly.terms()
        )

    result = op(*(to_poly(s) for s in series_list))
    if isinstance(result, tuple):
        return tuple(to_series(p) for p in result)
    return to_series(result)


def series_gcd(a, b):
    """A greatest common divisor of two series, up to a monomial factor."""
    if not a:
        return b
    if not b:
        return a
    return _on_ring([a, b], lambda pa, pb: pa.gcd(pb))


def _coerce(value):
    if isinstance(value, HahnScalar):
        return value
    if isinstance(value, (HahnSeries, int, Fraction)):
        return HahnScalar(value)
    return None


# -- series literals --------------------------------------------------------

_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<coeff>-?\d+(?:/\d+)?)\s*(?:\*\s*)?)?
    (?:t\[\(\s*(?P<gamma>(?:-?\d+:-?\d+)(?:\s*,\s*-?\d+:-?\d+)*)?\s*\)\])?
    \s*$""",
    re.VERBOSE,
)


def parse_series(text):
    """Parse a sum of terms ``q * t[(i:v, ...)]`` into a HahnSeries.

    The coefficient is a rational literal like ``3/2`` or ``-1``; the bracket
    holds sparse exponent entries ``index:value``.  Either part may be
    omitted (a bare coefficient is a constant, a bare ``t[...]`` has
    coefficient 1).  ``0`` denotes the zero series.
    """
    text = text.strip()
    if text == "0":
        return HahnSeries.zero()
    if not text:
        raise ParseError(1, "empty series literal")
    # split on + and - outside brackets, keeping the sign with the term
    chunks = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start:
            chunks.append(text[start:k])
            start = k
    chunks.append(text[start:])
    out = HahnSeries.zero()
    pos = 0
    for chunk in chunks:
        pos += 1
        sign = 1
        body = chunk.strip()
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            sign = -1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("gamma") is None
                     and "t[" not in body):
            raise ParseError(pos, f"malformed series term: {chunk.strip()!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if "t[" in body:
            entries = m.group("gamma") or ""
            pairs = []
            for entry in filter(None, (e.strip() for e in entries.split(","))):
                i, v = entry.split(":")
                pairs.append((int(i), int(v)))
            gamma = GammaExp(pairs)
        else:
            gamma = GAMMA_ZERO
        out = out + HahnSeries.term(sign * coeff, gamma)
    return out


def emit_series(series):
    """Inverse of parse_series, with terms in increasing exponent order."""
    if not series:
        return "0"
    parts = []
    for g in series.support:
        c = series.coefficient(g)
        if g == GAMMA_ZERO:
            parts.append(str(c))
        else:
            gamma = ",".join(f"{i}:{v}" for i, v in g.items())
            parts.append(f"{c} * t[({gamma})]")
    return " + ".join(parts).replace("+ -", "- ")
