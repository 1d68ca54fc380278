"""Exact arithmetic for reverse-lex exponents and finite-support Hahn series.

Exponents live in the direct sum of copies of Z ordered reverse
lexicographically (the largest differing index decides).  Series have finite
support and rational coefficients; scalars are exact fractions of series, so
inverses never require infinite expansions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

from .errors import DivisionByZero, ParseError, TooLarge


@total_ordering
class GammaExp:
    """A finitely supported integer sequence, compared reverse lexically."""

    __slots__ = ("_items", "_hash")

    def __init__(self, items=()):
        if isinstance(items, dict):
            items = items.items()
        acc = {}
        for idx, val in items:
            acc[int(idx)] = acc.get(int(idx), 0) + int(val)
        self._items = tuple(sorted((i, v) for i, v in acc.items() if v))
        self._hash = hash(self._items)

    @classmethod
    def _of(cls, items):
        """Wrap an item tuple that is already canonical, hashing it once."""
        out = cls.__new__(cls)
        out._items = items
        out._hash = hash(items)
        return out

    @classmethod
    def delta(cls, n):
        """The exponent with a single 1 at index n, one shared per index."""
        try:
            return _DELTAS[n]
        except KeyError:
            return _DELTAS.setdefault(n, cls([(n, 1)]))

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
        return GammaExp._of(_merge_items(a, b, 1))

    def __neg__(self):
        return GammaExp._of(tuple((i, -v) for i, v in self._items))

    def __sub__(self, other):
        return GammaExp._of(_merge_items(self._items, other._items, -1))

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
        return self._hash

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):
        if not self._items:
            return "(0)"
        return "(" + ",".join(f"{i}:{v}" for i, v in self._items) + ")"


_DELTAS = {}  # index n -> GammaExp.delta(n)


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


# A series keeps each exponent packed into one int: digit i, in balanced base
# 2^32 (every digit in (-2^31, 2^31)), is the exponent's entry at index i.
# With balanced digits the int order is the reverse-lexicographic order, and
# int + and - are the group operations, as long as no digit of a result
# leaves the range; each series bounds its largest |digit| so that no
# operation can wrap a digit silently.
_WIDTH = 32
_HALF = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1
# The native gcd evaluates one variable at a time at an integer point x and
# keeps the powers x^0 .. x^d for that variable's degree d, about d^2 / 2
# digits of x; each later point is as long as the values the evaluations
# before it produced.  So max(d) * prod(d + 1) over the deflated degrees
# bounds what it holds, in digits of the first point, and _on_ring refuses
# a pair above this many.  Keller reports at dims 2 to 4 stay below 400,000
# and the test suite's other pairs below 1.7 million.
MAX_GCD_SIZE = 1 << 24


def _pack(gamma):
    """(packed int, largest |entry|) of a GammaExp.

    ValueError for a negative index, OverflowError for an entry that does
    not fit a digit.
    """
    x = bound = 0
    for i, v in gamma._items:
        if i < 0:
            raise ValueError(f"exponent index {i} is negative")
        x += v << (_WIDTH * i)
        if abs(v) > bound:
            bound = abs(v)
    return x, _checked(bound)


def _checked(bound):
    """bound itself, if a digit of that size cannot wrap."""
    if bound >= _HALF:
        raise OverflowError(
            f"an exponent entry may reach {bound}, beyond the packed limit "
            f"of {_HALF - 1}")
    return bound


def _digits(x):
    """The balanced base-2^32 digits of a packed exponent, index 0 first."""
    out = []
    while x:
        d = ((x + _HALF) & _MASK) - _HALF
        out.append(d)
        x = (x - d) >> _WIDTH
    return out


def _digit(x, i):
    """Digit i of a packed exponent.

    The digits below i add up to less than half a unit of digit i, so
    rounding x to a multiple of that unit keeps digits i and up exactly.
    """
    unit = 1 << (_WIDTH * i)
    x = (x + (unit >> 1)) >> (_WIDTH * i)
    return ((x + _HALF) & _MASK) - _HALF


def _indices(exponents):
    """The sorted indices at which some packed exponent has a nonzero digit."""
    return sorted({i for e in exponents for i, d in enumerate(_digits(e)) if d})


def _unpack(x):
    """The GammaExp of a packed exponent."""
    if not x:
        return GAMMA_ZERO
    return GammaExp._of(tuple((i, d) for i, d in enumerate(_digits(x)) if d))


def _reduced(coeffs, den, bound):
    """The series coeffs / den, dividing out gcd(den, *coeffs) when den > 1.

    An empty coeffs gives the zero series over 1.
    """
    if den != 1:
        g = math.gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {e: c // g for e, c in coeffs.items()}
    return HahnSeries._canonical(coeffs, den, bound)


class HahnSeries:
    """A finite-support map from exponents to rational coefficients.

    Stored as {packed exponent: int numerator} over one positive int
    denominator with gcd(den, *numerators) == 1, so equal series have equal
    representations; the zero series is {} over 1.  ``_bound`` bounds every
    |digit| of every exponent: products and shifts add the bounds, sums take
    the larger, and OverflowError is raised before a bound reaches 2^31.
    Exponents are GammaExp and coefficients Fraction at the public methods.
    """

    __slots__ = ("_coeffs", "_den", "_bound")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        acc = {}
        bound = 0
        for g, c in coeffs:
            e, b = _pack(g)
            if b > bound:
                bound = b
            acc[e] = acc.get(e, 0) + Fraction(c)
        terms = [(e, c) for e, c in acc.items() if c]
        den = math.lcm(*(c.denominator for _, c in terms))
        # each coefficient is in lowest terms, so gcd(den, *numerators) is 1
        self._coeffs = {e: c.numerator * (den // c.denominator)
                        for e, c in terms}
        self._den = den
        self._bound = bound if terms else 0

    @classmethod
    def _canonical(cls, coeffs, den=1, bound=0):
        """Wrap a representation that is already canonical.

        The caller guarantees that coeffs maps packed exponents to nonzero
        ints, that den is a positive int with gcd(den, *coeffs) == 1 (1 for
        an empty coeffs), and that bound bounds every |digit|; the dict is
        taken over, not copied.
        """
        out = cls.__new__(cls)
        out._coeffs = coeffs
        out._den = den
        out._bound = bound
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
        e, bound = _pack(gamma)
        if not q:
            return cls._canonical({})
        return cls._canonical({e: q.numerator}, q.denominator, bound)

    @classmethod
    def t(cls, n):
        return cls.term(1, GammaExp.delta(n))

    def coefficient(self, gamma):
        return Fraction(self._coeffs.get(_pack(gamma)[0], 0), self._den)

    @property
    def support(self):
        return [_unpack(e) for e in sorted(self._coeffs)]

    @property
    def term_count(self):
        return len(self._coeffs)

    def is_constant(self):
        return not self._coeffs or set(self._coeffs) == {0}

    def valuation(self):
        if not self._coeffs:
            return INF
        return _unpack(min(self._coeffs))

    def leading_coefficient(self):
        if not self._coeffs:
            return Fraction(0)
        return Fraction(self._coeffs[min(self._coeffs)], self._den)

    def _combine(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        da, db = self._den, other._den
        if da == db:
            out = dict(self._coeffs)
            scale = sign
        else:
            g = math.gcd(da, db)
            scale_a, scale = db // g, sign * (da // g)
            out = {e: c * scale_a for e, c in self._coeffs.items()}
            da *= scale_a
        for e, c in other._coeffs.items():
            c *= scale
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return _reduced(out, da, max(self._bound, other._bound))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return HahnSeries._canonical(
            {e: -c for e, c in self._coeffs.items()}, self._den, self._bound)

    def _times_monomial(self, e0, bound, p, q):
        """self times (p / q) t^e0, for a packed e0 whose digits are bounded
        by bound and ints p and q != 0."""
        if not p or not self._coeffs:
            return HahnSeries.zero()
        if q < 0:
            p, q = -p, -q
        bound = _checked(self._bound + bound)
        out = {e + e0: c * p for e, c in self._coeffs.items()}
        if q == 1 and p in (1, -1):
            return HahnSeries._canonical(out, self._den, bound)
        return _reduced(out, self._den * q, bound)

    def __mul__(self, other):
        if not isinstance(other, HahnSeries):
            if isinstance(other, int):
                return self._times_monomial(0, 0, other, 1)
            if isinstance(other, Fraction):
                return self._times_monomial(
                    0, 0, other.numerator, other.denominator)
            return NotImplemented
        if other is _ONE_SERIES:
            return self
        if self is _ONE_SERIES:
            return other
        if len(self._coeffs) == 1:
            self, other = other, self
        if len(other._coeffs) == 1:
            # a monomial factor shifts and rescales; no two terms collide
            ((e0, c0),) = other._coeffs.items()
            if not e0 and c0 == 1 == other._den:
                return self
            return self._times_monomial(e0, other._bound, c0, other._den)
        bound = _checked(self._bound + other._bound)
        out = {}
        get = out.get
        rhs = other._coeffs.items()
        for e1, c1 in self._coeffs.items():
            for e2, c2 in rhs:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _reduced(
            {e: c for e, c in out.items() if c}, self._den * other._den, bound)

    __rmul__ = __mul__

    def shift(self, gamma):
        """This series times the monomial t^gamma."""
        return self._times_monomial(*_pack(gamma), 1, 1)

    def __eq__(self, other):
        return (
            isinstance(other, HahnSeries)
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((frozenset(self._coeffs.items()), self._den))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return emit_series(self)


class HahnScalar:
    """An exact fraction of finite-support series.

    Equality is by cross-multiplication, or by the numerators alone when
    both sides carry the same denominator object, so representatives need
    not be reduced; valuation is the difference of the component valuations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = HahnSeries.constant(num)
        if den is None:
            den = _ONE_SERIES
        elif isinstance(den, (int, Fraction)):
            den = HahnSeries.constant(den)
        if not den:
            raise DivisionByZero("scalar denominator is zero")
        self.num, self.den = _cancel(num, den)

    @classmethod
    def _trusted(cls, num, den):
        """Wrap the pair num / den as it is, skipping ``_cancel``.

        The caller guarantees that den is a nonzero series, and that a den
        equal to 1 is ``_ONE_SERIES`` itself: arithmetic tests "over 1" by
        identity.  The pair need not be in lowest terms: equality is by
        cross-multiplication and valuation subtracts, so no operation
        depends on it.
        """
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

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
        if self.den is _ONE_SERIES and other.den is _ONE_SERIES:
            return HahnScalar._trusted(self.num + other.num, _ONE_SERIES)
        if not other.num:
            return HahnScalar(self.num, self.den)
        if not self.num:
            return HahnScalar(other.num, other.den)
        return HahnScalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        if self.den is _ONE_SERIES:
            return HahnScalar._trusted(-self.num, _ONE_SERIES)
        return HahnScalar(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _ONE_SERIES and other.den is _ONE_SERIES:
            return HahnScalar._trusted(self.num - other.num, _ONE_SERIES)
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
        if self.den is _ONE_SERIES and other.den is _ONE_SERIES:
            return HahnScalar._trusted(self.num * other.num, _ONE_SERIES)
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
        """a / d == b / e iff a e == b d; when d is e, iff a == b.

        Series equality is equality of canonical representations, so the
        shared-denominator test is exact and multiplies nothing; that covers
        every pair of scalars over 1, which share ``_ONE_SERIES``.
        """
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __bool__(self):
        return bool(self.num._coeffs)

    def __repr__(self):
        if self.den is _ONE_SERIES:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


_ONE_SERIES = HahnSeries.constant(1)


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
        return HahnSeries.zero(), _ONE_SERIES
    if lazy and len(den._coeffs) > 1 and len(num._coeffs) + len(den._coeffs) <= 24:
        return num, den
    if len(den._coeffs) == 1:
        # a monomial denominator divides in exactly: shift and rescale
        ((e0, c0),) = den._coeffs.items()
        if not e0 and c0 == 1 == den._den:
            # the shared constant 1, so that callers can test "over 1" by
            # identity
            return num, _ONE_SERIES
        return num._times_monomial(-e0, den._bound, den._den, c0), _ONE_SERIES
    # num / den == (p * den._den) / (q * num._den) for the cofactors p and
    # q of the numerators; the unit is chosen so that the constants share
    # no factor and q's lex leading coefficient is positive
    _, p, q = _on_ring(num, den)
    g = math.gcd(num._den, den._den)
    sp, sq = den._den // g, num._den // g
    if _lex_lead(q) < 0:
        sp, sq = -sp, -sq
    new_num, new_den = p * sp, q * sq
    if not new_den:
        raise AssertionError("cancellation produced a zero denominator")
    if new_den.term_count == 1:
        return _cancel(new_num, new_den, lazy=lazy)
    return new_num, new_den


def series_ratio(a, b):
    """The fraction a / b in lowest terms, as a (num, den) series pair.

    When b has several terms, exact Laurent division (``_exact_quotient``) is
    tried first; if b divides a the pair is (a / b, 1).  Otherwise, and for
    monomial b, this is ``_cancel`` without its laziness: the polynomial gcd
    always runs, so when b divides a up to a unit the returned denominator
    is the constant 1.
    """
    if a and len(b._coeffs) > 1:
        q = _exact_quotient(a, b)
        if q is not None:
            return q, _ONE_SERIES
    return _cancel(a, b, lazy=False)


def _quotient_box(a, b):
    """Per-index exponent bounds of a / b, if b divides a: (i, lo, hi) rows.

    a and b are collections of packed exponents, such as the numerator dicts
    of two series.  The lowest (highest) exponent of index i in a product is
    the sum of the factors' lowest (highest), so a quotient q = a / b has
    every exponent of index i in [ord_i a - ord_i b, deg_i a - deg_i b].
    Indices outside both supports are 0 in q and have no row.
    """
    rows_a = [_digits(e) for e in a]
    rows_b = [_digits(e) for e in b]
    width = max(map(len, rows_a + rows_b))

    def columns(rows):
        return zip(*(row + [0] * (width - len(row)) for row in rows))

    box = []
    for i, (ea, eb) in enumerate(zip(columns(rows_a), columns(rows_b))):
        if any(ea) or any(eb):
            box.append((i, min(ea) - min(eb), max(ea) - max(eb)))
    return box


def _divide(a, b, polynomial=False):
    """(q, scale, bound) with scale * a == q * b, or None if b does not
    divide a.

    a and b are {packed exponent: int} dicts, a nonempty; q is one too,
    scale is a positive int and bound bounds every |digit| of q.  Leading-term
    division along the int (reverse-lex) order: each step removes the lowest
    term of the remainder, so the quotient's terms come out strictly
    increasing.  They must all lie in the finite ``_quotient_box``; a term
    outside it proves that b does not divide a, and it also bounds the loop.
    The remainder stays integral: before a step whose leading coefficient
    b's does not divide, the remainder is multiplied by the missing factor,
    which scale collects.  With polynomial set, b must divide a in Z[x]:
    the quotient's exponents must be nonnegative and no step may rescale,
    so scale is 1.
    """
    box = _quotient_box(a, b)
    if any(lo > hi or (polynomial and lo < 0) for _, lo, hi in box):
        return None
    vb = min(b)
    cb = b[vb]
    rest = [(e, c) for e, c in b.items() if e != vb]
    r = dict(a)
    q = []  # (exponent, coefficient, scale when it was found)
    scale = 1
    while r:
        vr = min(r)
        e = vr - vb
        if any(not lo <= _digit(e, i) <= hi for i, lo, hi in box):
            return None
        c = r.pop(vr)
        if c % cb:
            if polynomial:
                return None
            m = abs(cb) // math.gcd(c, cb)
            scale *= m
            c *= m
            r = {x: v * m for x, v in r.items()}
        c //= cb
        q.append((e, c, scale))
        for eb, cr in rest:
            x = e + eb
            v = r.get(x, 0) - c * cr
            if v:
                r[x] = v
            else:
                r.pop(x, None)
    bound = max((max(-lo, hi) for _, lo, hi in box), default=0)
    return {e: c * (scale // s) for e, c, s in q}, scale, bound


def _exact_quotient(a, b):
    """a / b if b divides the nonzero series a in the Laurent ring, else None.

    ``_divide`` runs on the numerators; a / b is their quotient times
    den(b) / den(a).
    """
    # a quotient exponent has digits within a._bound + b._bound, a
    # remainder exponent within one b._bound more, and a candidate quotient
    # exponent (remainder minus b's lowest) within one more again
    _checked(a._bound + 3 * b._bound)
    out = _divide(a._coeffs, b._coeffs)
    if out is None:
        return None
    q, scale, bound = out
    if b._den != 1:
        q = {e: c * b._den for e, c in q.items()}
    return _reduced(q, scale * a._den, bound)


def _on_ring(a, b):
    """(h, a / h, b / h) for h the polynomial gcd of two nonzero series.

    The pair is jointly shifted by a common monomial so all exponents are
    nonnegative, each index is deflated by the gcd of its entries, and the
    integer numerators go to the native heuristic gcd (``omlkit.heugcd``,
    imported on first use).  h is their gcd in Z[x], unique up to sign, and
    the cofactors are exact.  All three come back over 1 and unshifted,
    which for gcd and fraction cancellation only changes representatives by
    a common monomial factor.  OverflowError if a shifted entry reaches
    2^31, and TooLarge, before any evaluation, if the deflated degrees
    project more than MAX_GCD_SIZE digits.
    """
    from .heugcd import cofactors

    # (index, lowest entry, gcd j of the shifted entries) per index that
    # varies; dividing by j (deflation) reads x_i^j as one variable, which
    # gcds commute with, and keeps degrees and evaluation points small
    columns, degrees = [], []
    exponents = {*a._coeffs, *b._coeffs}
    for i in _indices(exponents):
        entries = [_digit(e, i) for e in exponents]
        low, high = min(entries), max(entries)
        _checked(high - low)
        if step := math.gcd(*(d - low for d in entries)):
            columns.append((i, low, step))
            degrees.append((high - low) // step)
    size = max(degrees, default=0) * math.prod(d + 1 for d in degrees)
    if size > MAX_GCD_SIZE:
        raise TooLarge(f"a series gcd of degrees {degrees} projects {size} "
                       f"evaluation digits, beyond the cap of {MAX_GCD_SIZE}")

    def pack(e):
        # the lowest index becomes the top digit, so that int order is lex
        k = 0
        for i, low, step in columns:
            k = (k << _WIDTH) | (_digit(e, i) - low) // step
        return k

    def to_series(poly):
        coeffs = {}
        bound = 0
        for k, c in poly.items():
            e = 0
            for i, _, step in reversed(columns):
                d = (k & _MASK) * step
                k >>= _WIDTH
                e |= d << (_WIDTH * i)
                if d > bound:
                    bound = d
            coeffs[e] = c
        return HahnSeries._canonical(coeffs, 1, bound)

    polys = [{pack(e): c for e, c in s._coeffs.items()} for s in (a, b)]
    return tuple(map(to_series, cofactors(*polys, len(columns))))


def _lex_lead(series):
    """The leading numerator of a series with nonnegative exponents in the
    lex order that reads the lowest index first.

    ``_digits`` lists an exponent's digits from index 0 and drops trailing
    zeros; with no negative digit, list order is that lex order.
    """
    return series._coeffs[max(series._coeffs, key=_digits)]


def series_gcd(a, b):
    """A greatest common divisor of two series.

    It is defined up to a unit of the Laurent ring (a nonzero rational times
    a monomial).  A monomial argument is itself a unit, so the gcd is 1.
    When the argument with fewer terms divides the other, it is the gcd;
    only otherwise does the polynomial gcd run.
    """
    if not a:
        return b
    if not b:
        return a
    if len(a._coeffs) == 1 or len(b._coeffs) == 1:
        return _ONE_SERIES
    small, large = (a, b) if len(a._coeffs) <= len(b._coeffs) else (b, a)
    if _exact_quotient(large, small) is not None:
        return small
    # the gcd made monic in the lex order that reads the lowest index first
    h = _on_ring(a, b)[0]
    return h._times_monomial(0, 0, 1, _lex_lead(h))


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
                if int(i) < 0:
                    raise ParseError(pos, f"negative exponent index in {entry!r}")
                pairs.append((int(i), int(v)))
            gamma = GammaExp(pairs)
        else:
            gamma = GAMMA_ZERO
        try:
            out = out + HahnSeries.term(sign * coeff, gamma)
        except OverflowError as exc:
            raise ParseError(pos, str(exc)) from None
    return out


def emit_series(series):
    """Inverse of parse_series, with terms in increasing exponent order."""
    if not series:
        return "0"
    parts = []
    for e in sorted(series._coeffs):
        c = Fraction(series._coeffs[e], series._den)
        if not e:
            parts.append(str(c))
        else:
            gamma = ",".join(f"{i}:{v}" for i, v in _unpack(e).items())
            parts.append(f"{c} * t[({gamma})]")
    return " + ".join(parts).replace("+ -", "- ")
