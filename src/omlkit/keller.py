"""Finite-dimensional slices of a Hermitian space over Hahn-series scalars.

Vectors have HahnScalar coordinates over the basis e_0..e_{n-1}; the form is
<f, g> = sum f(i) g(i) t_i with the trivial involution, so it is a symmetric
bilinear form.  It is anisotropic because the basis terms t_i have pairwise
distinct residues mod 2Gamma, which forbids cancellation at the minimal
exponent.  All linear algebra is exact Gaussian elimination over the scalar
fraction field.
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
    GAMMA_ZERO,
    INF,
    GammaExp,
    HahnScalar,
    HahnSeries,
    series_gcd,
    series_ratio,
    tclass,
)

_ZERO = HahnScalar(0)
_ONE = HahnScalar(1)


class KVector:
    """A vector with HahnScalar coordinates in a fixed ambient dimension."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(
            c if isinstance(c, HahnScalar) else HahnScalar(c) for c in coords
        )

    @property
    def dim(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return KVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return KVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, c):
        if not isinstance(c, HahnScalar):
            c = HahnScalar(c)
        return KVector(tuple(c * a for a in self.coords))

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
    return KVector(tuple(_ONE if k == i else _ZERO for k in range(n)))


def zero_vector(n):
    return KVector((_ZERO,) * n)


def _times_t(c, i):
    """c t_i, as a monomial shift of the numerator of c."""
    return HahnScalar(c.num.shift(GammaExp.delta(i)), c.den)


def form(f, g):
    """<f, g> = sum of f(i) g(i) t_i, over the coordinates nonzero in both."""
    if f.dim != g.dim:
        raise DimensionMismatch("form arguments have different dimensions")
    acc = _ZERO
    for i, (a, b) in enumerate(zip(f.coords, g.coords)):
        if a and b:
            acc = acc + _times_t(a * b, i)
    return acc


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
    """Reduced echelon form of a list of KVectors; zero rows are dropped."""
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
        inv = pivot_row[col].invert()
        pivot_row = [inv * c for c in pivot_row]
        for group in (out, rows):
            for r, row in enumerate(group):
                if row[col]:
                    factor = row[col]
                    group[r] = [
                        a - factor * b for a, b in zip(row, pivot_row)
                    ]
        out.append(pivot_row)
    if any(any(c for c in row) for row in rows):
        raise AssertionError("elimination left an unreduced row")
    return [KVector(row) for row in out]


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

    Clears denominators, divides out the gcd of the coordinates (monomial
    factors included), and rescales so the first nonzero coordinate has
    leading coefficient one.  Types, orthogonality and spans are
    scale-invariant, so downstream uses are unaffected, while the rescaling
    stops supports from compounding across chained operations.
    """
    if not v:
        return v
    scale = HahnSeries.constant(1)
    for c in v.coords:
        if c and c.den.term_count > 1:
            # multiply by den / gcd(scale, den), an exact lcm step
            q, _ = series_ratio(c.den, series_gcd(scale, c.den))
            scale = scale * q
    nums = []
    for c in v.coords:
        if not c:
            nums.append(HahnSeries.zero())
            continue
        q, r = series_ratio(c.num * scale, c.den)
        if not r.is_constant():
            raise AssertionError("denominator clearing was not exact")
        nums.append(q * Fraction(1, r.leading_coefficient()))
    content = HahnSeries.zero()
    for nm in nums:
        if nm:
            content = series_gcd(content, nm)
    coords = []
    for nm in nums:
        if not nm:
            coords.append(_ZERO)
            continue
        q, r = series_ratio(nm, content)
        if not r.is_constant():
            raise AssertionError("content division was not exact")
        coords.append(HahnScalar(q * Fraction(1, r.leading_coefficient())))
    lead = next(c for c in coords if c).num.leading_coefficient()
    if lead != 1:
        coords = [HahnScalar(Fraction(1, 1) / lead) * c for c in coords]
    return KVector(tuple(coords))


def _det(matrix):
    """Cofactor-expansion determinant of a small square scalar matrix."""
    m = len(matrix)
    if m == 0:
        return _ONE
    if m == 1:
        return matrix[0][0]
    acc = _ZERO
    for i, head in enumerate(matrix[0]):
        if not head:
            continue
        minor = [
            [row[c] for c in range(m) if c != i] for row in matrix[1:]
        ]
        term = head * _det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def orthogonalize(vectors):
    """An orthogonal family spanning the same space, via Gram determinants.

    The k-th output is the vector-valued determinant whose first k - 1 rows
    are Gram rows and whose last row holds the input vectors; this is the
    classical Gram-Schmidt vector scaled to avoid division entirely, which
    keeps exact supports determinant-sized.  Output vectors are reduced to
    primitive form.  Raises DependentInput when the input is dependent.
    """
    vectors = [_reduce_vector(v) for v in vectors]
    if not vectors:
        return []
    n = vectors[0].dim
    if len(_rref(vectors)) != len(vectors):
        raise DependentInput("input vectors are linearly dependent")
    # the involution is trivial, so the form is symmetric: each unordered
    # pair is evaluated once and mirrored
    m = len(vectors)
    gram = [[None] * m for _ in range(m)]
    for r in range(m):
        for c in range(r, m):
            gram[r][c] = gram[c][r] = form(vectors[r], vectors[c])
    out = []
    for k in range(len(vectors)):
        g = zero_vector(n)
        for i in range(k + 1):
            minor = [
                [gram[r][c] for c in range(k + 1) if c != i]
                for r in range(k)
            ]
            coeff = _det(minor)
            if (k + i) % 2:
                coeff = -coeff
            g = g + coeff * vectors[i]
        out.append(_reduce_vector(g))
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            if form(out[a], out[b]):
                raise AssertionError("orthogonalized family is not orthogonal")
    if _rref(out) != _rref(vectors):
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
        _reduce_vector(KVector(tuple(_times_t(b[i], i) for i in range(X.n))))
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
            coords[p] = -row[i]
        kernel.append(KVector(coords))
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


def random_nonzero_series(rng, max_terms=3, max_index=6):
    while True:
        s = random_series(rng, max_terms, max_index)
        if s:
            return s


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
