"""Finite-dimensional slices of a Hermitian space over Hahn-series scalars.

Vectors have HahnScalar coordinates over the basis e_0..e_{n-1}; the form is
<f, g> = sum f(i) g(i) t_i with the trivial involution, so it is a symmetric
bilinear form.  It is anisotropic because the basis terms t_i have pairwise
distinct residues mod 2Gamma, which forbids cancellation at the minimal
exponent.  All linear algebra is exact Gaussian elimination over the scalar
fraction field.  ``keller_report`` renders the text of ``omlkit keller``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    DependentInput,
    DimensionMismatch,
    ZeroVector,
)
from .hahn import (
    INF,
    GammaExp,
    HahnScalar,
    HahnSeries,
    _exact_quotient,
    series_gcd,
    tclass,
)

_ZERO = HahnScalar(0)
_ONE = HahnScalar(1)
# hahn's shared constant series 1: a product with it returns the other factor,
# and every scalar over 1 carries this very object as its denominator
_ONE_SERIES = _ONE.den


class KVector:
    """A vector with HahnScalar coordinates in a fixed ambient dimension.

    ``+``, ``-`` and scaling pass a zero coordinate through without scalar
    arithmetic.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(
            c if isinstance(c, HahnScalar) else HahnScalar(c) for c in coords
        )

    @classmethod
    def _of(cls, coords):
        """Wrap a tuple of HahnScalars as it is, skipping the coercion."""
        out = cls.__new__(cls)
        out.coords = coords
        return out

    @property
    def dim(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return KVector._of(tuple(
            (a + b if a else b) if b else a
            for a, b in zip(self.coords, other.coords)
        ))

    def __sub__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return KVector._of(tuple(
            (a - b if a else -b) if b else a
            for a, b in zip(self.coords, other.coords)
        ))

    def __rmul__(self, c):
        if not isinstance(c, HahnScalar):
            c = HahnScalar(c)
        return KVector._of(tuple(c * a if a else a for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, KVector)
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.coords, other.coords))
        )

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coords) + "]"


def basis_vector(n, i):
    """e_i in ambient dimension n."""
    return KVector._of(tuple(_ONE if k == i else _ZERO for k in range(n)))


def zero_vector(n):
    return KVector._of((_ZERO,) * n)


def _times_t(c, i):
    """c t_i, as a monomial shift of the numerator of c."""
    return HahnScalar(c.num.shift(GammaExp.delta(i)), c.den)


def form(f, g):
    """<f, g> = sum of f(i) g(i) t_i, over the coordinates nonzero in both.

    The sum is kept as one numerator over one running denominator, with no
    cancellation: a term whose coordinates are both over 1 adds straight
    into the numerator, and any other term makes N / D + n / d into
    (N d + n D) / (D d).  Equality is by cross-multiplication and valuation
    subtracts, so no caller needs the result in lowest terms.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("form arguments have different dimensions")
    num = HahnSeries.zero()
    den = _ONE_SERIES
    for i, (a, b) in enumerate(zip(f.coords, g.coords)):
        if a and b:
            term = (a.num * b.num).shift(GammaExp.delta(i))
            if a.den is _ONE_SERIES and b.den is _ONE_SERIES:
                num = num + term * den
            else:
                d = a.den * b.den
                num = num * d + term * den
                den = den * d
    if not num:
        return _ZERO
    return HahnScalar._trusted(num, den)


def form_self(f):
    return form(f, f)


def anisotropy_check(f):
    """(nonzero, valuation of <f>), with the closed-form valuation verified.

    For nonzero f the valuation of <f> equals min over nonzero coordinates of
    2 phi(f_i) + delta_i, attained exactly once; both facts are checked
    against the direct exact evaluation of <f>.
    """
    direct = form_self(f)
    val = direct.valuation()
    candidates = [
        f[i].valuation() * 2 + GammaExp.delta(i)
        for i in range(f.dim)
        if f[i]
    ]
    if not candidates:
        if direct:
            raise AssertionError("form of the zero vector is nonzero")
        return False, INF
    lowest = min(candidates)
    if candidates.count(lowest) != 1:
        raise AssertionError("minimal form valuation attained more than once")
    if not direct or val != lowest:
        raise AssertionError("form valuation disagrees with the formula")
    return True, val


def type_of(f):
    """The class of the form valuation in Gamma/2Gamma."""
    if not f:
        raise ZeroVector("the zero vector has no type")
    nonzero, val = anisotropy_check(f)
    return tclass(val)


def _pivot(row):
    for i, c in enumerate(row):
        if c:
            return i
    return None


def _rref(vectors):
    """Reduced echelon form of a list of KVectors; zero rows are dropped.

    Every pivot is the shared ``_ONE`` and every entry above or below a
    pivot the shared ``_ZERO``.  Scalar arithmetic runs only where it can
    change a value: a pivot row is scaled only when its pivot is not 1 and
    only at its nonzero entries, and a row update touches only the columns
    right of the pivot where the pivot row is nonzero (to its left the
    pivot row is zero).
    """
    if not vectors:
        return []
    n = vectors[0].dim
    rows = [list(v.coords) for v in vectors]
    for v in vectors:
        if v.dim != n:
            raise DimensionMismatch("mixed ambient dimensions")
    out = []
    for col in range(n):
        pivot_row = None
        for r, row in enumerate(rows):
            if row[col] and _pivot(row) == col:
                pivot_row = rows.pop(r)
                break
        if pivot_row is None:
            continue
        live = [j for j in range(col + 1, n) if pivot_row[j]]
        if pivot_row[col] != _ONE:
            inv = pivot_row[col].invert()
            for j in live:
                pivot_row[j] = inv * pivot_row[j]
        pivot_row[col] = _ONE
        for group in (out, rows):
            for row in group:
                factor = row[col]
                if factor:
                    for j in live:
                        row[j] = row[j] - factor * pivot_row[j]
                    row[col] = _ZERO
        out.append(pivot_row)
    if any(any(c for c in row) for row in rows):
        raise AssertionError("elimination left an unreduced row")
    return [KVector._of(tuple(row)) for row in out]


class Subspace:
    """A subspace of the dimension-n slice, stored as a reduced basis."""

    __slots__ = ("n", "basis")

    def __init__(self, n, vectors=()):
        vectors = list(vectors)
        for v in vectors:
            if v.dim != n:
                raise DimensionMismatch("vector outside the ambient slice")
        self.n = n
        self.basis = tuple(_rref([v for v in vectors if v]))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        if v.dim != self.n:
            raise DimensionMismatch("vector outside the ambient slice")
        return len(_rref(list(self.basis) + [v])) == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and list(self.basis) == list(other.basis)
        )

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"


def _reduce_vector(v):
    """The primitive rescaling of v, normalized to leading coefficient one.

    Clears denominators, divides out the gcd of the coordinates (so their
    gcd becomes a unit: a common monomial factor may remain), and rescales
    so the first nonzero coordinate has leading coefficient one.  Types,
    orthogonality and spans are scale-invariant, so downstream uses are
    unaffected, while the rescaling stops supports from compounding across
    chained operations.

    A vector with one nonzero coordinate i reduces to e_i whatever that
    coordinate is, since its content is itself; it is returned as
    ``basis_vector(n, i)`` with no division.  Every path that divides
    checks the division is exact.
    """
    nonzero = [i for i, c in enumerate(v.coords) if c]
    if not nonzero:
        return v
    if len(nonzero) == 1:
        return basis_vector(v.dim, nonzero[0])
    scale = _ONE_SERIES
    for c in v.coords:
        if c and c.den.term_count > 1:
            # multiply by den / gcd(scale, den), an exact lcm step
            scale = scale * _divide(c.den, series_gcd(scale, c.den),
                                    "lcm step was not exact")
    # a stored denominator is 1 or has several terms (HahnScalar folds a
    # monomial one into the numerator), and only the latter needs a division
    nums = [
        c.num * scale if c.den is _ONE_SERIES else _divide(
            c.num * scale, c.den, "denominator clearing was not exact")
        for c in v.coords
    ]
    content = HahnSeries.zero()
    for nm in nums:
        if nm:
            content = series_gcd(content, nm)
    if content.term_count > 1:
        nums = [
            _divide(nm, content, "content division was not exact")
            for nm in nums
        ]
    else:
        # a monomial content only shifts: the rescale below, which makes the
        # leading coefficient one, absorbs its coefficient
        low = content.valuation()
        if low:
            nums = [nm.shift(-low) for nm in nums]
    lead = next(nm for nm in nums if nm).leading_coefficient()
    if lead != 1:
        nums = [nm * (1 / lead) for nm in nums]
    return KVector._of(tuple(
        HahnScalar._trusted(nm, _ONE_SERIES) if nm else _ZERO for nm in nums
    ))


def _divide(a, b, message):
    """a / b, for a series b that divides a, such as a gcd or lcm factor.

    Raises AssertionError(message) when b does not divide a.
    """
    q = _exact_quotient(a, b)
    if q is None:
        raise AssertionError(message)
    return q


def _det(matrix):
    """Cofactor-expansion determinant of a small square scalar matrix."""
    m = len(matrix)
    if m == 0:
        return _ONE
    if m == 1:
        return matrix[0][0]
    acc = None
    for i, head in enumerate(matrix[0]):
        if not head:
            continue
        minor = [
            [row[c] for c in range(m) if c != i] for row in matrix[1:]
        ]
        term = head * _det(minor)
        if i % 2:
            term = -term
        acc = term if acc is None else acc + term
    return _ZERO if acc is None else acc


def orthogonalize(vectors):
    """An orthogonal family spanning the same space, via Gram determinants.

    The k-th output is the vector-valued determinant whose first k - 1 rows
    are Gram rows and whose last row holds the input vectors; this is the
    classical Gram-Schmidt vector scaled to avoid division entirely, which
    keeps exact supports determinant-sized.  Inputs and outputs are reduced
    to primitive form.  The first output is the first reduced input itself:
    its cofactor is the empty determinant 1, and the input is already
    reduced.  The minors read Gram rows 0..m-2 only, so the last diagonal
    entry <v_{m-1}, v_{m-1}> is never evaluated.  Orthogonality and the
    span are still checked on the whole output.  Raises DependentInput
    when the input is dependent.
    """
    vectors = [_reduce_vector(v) for v in vectors]
    if not vectors:
        return []
    span = _rref(vectors)
    if len(span) != len(vectors):
        raise DependentInput("input vectors are linearly dependent")
    # the involution is trivial, so the form is symmetric: each unordered
    # pair is evaluated once and mirrored
    m = len(vectors)
    gram = [[None] * m for _ in range(m)]
    for r in range(m - 1):
        for c in range(r, m):
            gram[r][c] = gram[c][r] = form(vectors[r], vectors[c])
    out = [vectors[0]]
    for k in range(1, m):
        g = None
        for i in range(k + 1):
            minor = [
                [gram[r][c] for c in range(k + 1) if c != i]
                for r in range(k)
            ]
            coeff = _det(minor)
            if (k + i) % 2:
                coeff = -coeff
            term = coeff * vectors[i]
            g = term if g is None else g + term
        out.append(_reduce_vector(g))
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            if form(out[a], out[b]):
                raise AssertionError("orthogonalized family is not orthogonal")
    if _rref(out) != span:
        raise AssertionError("orthogonalization changed the span")
    return out


def pi_map(X, reshuffle_check=True):
    """The set of types of any maximal orthogonal subset of X.

    With reshuffle_check the result is recomputed from a reshuffled basis
    (reversed, with a neighbor added to each row) and compared, exercising
    basis independence.
    """
    basis = list(X.basis)
    types = frozenset(type_of(g) for g in orthogonalize(basis))
    if len(types) != len(basis):
        raise AssertionError("orthogonal vectors produced repeated types")
    if reshuffle_check and len(basis) > 1:
        mixed = list(reversed(basis))
        mixed = [
            v if i == 0 else v + mixed[i - 1] for i, v in enumerate(mixed)
        ]
        again = frozenset(type_of(g) for g in orthogonalize(mixed))
        if again != types:
            raise AssertionError("pi map depends on the basis choice")
    return types


def ortho_complement(X):
    """All vectors orthogonal to X: the exact kernel of the Gram pairing."""
    # f is orthogonal to basis vector b iff sum_i f_i b_i t_i = 0, so the
    # constraint matrix has entries b_i t_i; its kernel is read off the rref.
    constraints = [
        _reduce_vector(
            KVector._of(tuple(_times_t(b[i], i) for i in range(X.n))))
        for b in X.basis
    ]
    reduced = _rref(constraints)
    pivots = [_pivot(row.coords) for row in reduced]
    free = [i for i in range(X.n) if i not in pivots]
    kernel = []
    for i in free:
        coords = [_ZERO] * X.n
        coords[i] = _ONE
        for row, p in zip(reduced, pivots):
            if row[i]:
                coords[p] = -row[i]
        kernel.append(KVector._of(tuple(coords)))
    return Subspace(X.n, kernel)


def closure_check(X):
    """X equals its double orthocomplement."""
    Y = ortho_complement(ortho_complement(X))
    return X.dim + ortho_complement(X).dim == X.n and Y == Subspace(
        X.n, list(X.basis)
    )


def counting_types(n):
    """How often each type occurs among the basis vectors e_0..e_{n-1}."""
    counts = {}
    for i in range(n):
        t = type_of(basis_vector(n, i))
        counts[t] = counts.get(t, 0) + 1
    return counts


# -- seeded random generators ------------------------------------------------


_GAMMA_MAX_VAL = 3  # exponent components are drawn from [-3, 3]
_FRACTION_PROB = 0.4  # share of random scalars with a non-constant denominator


def random_gamma(rng, max_index=6):
    support = rng.sample(range(max_index + 1), rng.randint(0, 2))
    return GammaExp(
        [(i, rng.randint(-_GAMMA_MAX_VAL, _GAMMA_MAX_VAL)) for i in support]
    )


def random_series(rng, max_terms=3, max_index=6):
    n_terms = rng.randint(0, max_terms)
    return HahnSeries(
        [
            (random_gamma(rng, max_index), Fraction(rng.randint(-5, 5),
                                                    rng.randint(1, 5)))
            for _ in range(n_terms)
        ]
    )


def random_scalar(rng, max_terms=3, max_index=6):
    # denominators stay short so chained eliminations remain tractable
    if rng.random() >= _FRACTION_PROB:
        den = HahnSeries.constant(1)
    else:
        den = HahnSeries.constant(1) + HahnSeries.term(
            Fraction(rng.randint(-3, 3)), random_gamma(rng, max_index)
        )
        if not den:
            den = HahnSeries.constant(1)
    return HahnScalar(random_series(rng, max_terms, max_index), den)


def random_vector(rng, dim, max_terms=2, max_index=4):
    return KVector(
        tuple(random_scalar(rng, max_terms, max_index) for _ in range(dim))
    )


def random_nonzero_vector(rng, dim, max_terms=2, max_index=4):
    if dim < 1:
        raise ZeroVector(f"every vector of dimension {dim} is zero")
    while True:
        v = random_vector(rng, dim, max_terms, max_index)
        if v:
            return v


def _sparse_scalar(rng, max_index):
    """A short coordinate: zero, a unit, or a single small term."""
    roll = rng.random()
    if roll < 0.35:
        return _ZERO
    if roll < 0.6:
        return HahnScalar(rng.choice([1, -1, 2]))
    gamma = GammaExp([(rng.randint(0, max_index), rng.choice([-1, 1]))])
    return HahnScalar(
        HahnSeries.term(Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2])),
                        gamma)
    )


def random_subspace(rng, n, max_dim=None, max_index=3):
    """A random subspace of the n-dimensional slice, short coordinates.

    ``max_dim`` bounds how many spanning vectors are drawn (default n); the
    resulting dimension can be smaller when draws are dependent.  Coordinates
    are deliberately short: Gram elimination already compounds supports, and
    richer coordinates make exact gcds blow up without testing anything new
    about the order or type structure.
    """
    k = rng.randint(0, n if max_dim is None else min(max_dim, n))
    vs = [
        KVector(tuple(_sparse_scalar(rng, max_index) for _ in range(n)))
        for _ in range(k)
    ]
    return Subspace(n, vs)


# -- report ----------------------------------------------------------------


def _fmt_type(t):
    inner = ",".join(str(i) for i in sorted(t.indices))
    return f"T({inner})"


def keller_report(dim, seed=0, trials=1000):
    """Types of basis vectors, randomized law checks, and a pi-map table."""
    lines = [f"ambient dimension: {dim}"]
    for i in range(dim):
        lines.append(f"type(e{i}) = {_fmt_type(type_of(basis_vector(dim, i)))}")

    rng = random.Random(seed)
    checks = []

    fails = 0
    for _ in range(trials):
        f = random_nonzero_vector(rng, dim)
        # anisotropy_check raises if its formula and the direct evaluation
        # of <f, f> disagree
        nonzero, _ = anisotropy_check(f)
        if not nonzero:
            fails += 1
    checks.append(("anisotropy_formula", fails))

    full = {tclass(GammaExp.delta(i)) for i in range(dim)}
    fails = 0
    for _ in range(trials):
        X = random_subspace(rng, dim)
        pX = pi_map(X, reshuffle_check=False)
        pC = pi_map(ortho_complement(X), reshuffle_check=False)
        if set(pX) | set(pC) != full or set(pX) & set(pC):
            fails += 1
    checks.append(("pi_complement_law", fails))

    for name, failures in checks:
        lines.append(
            f"{name}: {'pass' if failures == 0 else 'fail'}"
            f" ({trials} trials, {failures} failures)"
        )

    lines.append("pi-map table (sampled subspaces):")
    rng = random.Random(seed)
    for k in range(min(5, trials)):
        X = random_subspace(rng, dim)
        types = " ".join(sorted(_fmt_type(t) for t in pi_map(X)))
        lines.append(f"  sample {k}: dim {X.dim} -> {{{types}}}")
    ok = all(f == 0 for _, f in checks)
    return "\n".join(lines) + "\n", ok
