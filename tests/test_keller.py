import random
from fractions import Fraction

import pytest

import omlkit.keller
from omlkit.errors import DependentInput, DimensionMismatch, ZeroVector
from omlkit.hahn import (
    GAMMA_ZERO,
    INF,
    GammaExp,
    HahnScalar,
    HahnSeries,
    series_gcd,
    tclass,
)
from omlkit.keller import (
    KVector,
    Subspace,
    _pivot,
    _rref,
    anisotropy_check,
    basis_vector,
    closure_check,
    counting_types,
    form,
    form_self,
    keller_report,
    ortho_complement,
    orthogonalize,
    pi_map,
    random_gamma,
    random_nonzero_vector,
    random_scalar,
    random_series,
    random_subspace,
    random_vector,
    type_of,
    zero_vector,
)


def _e(n, i):
    return basis_vector(n, i)


# -- form ------------------------------------------------------------------


def test_form_on_basis():
    for n in range(1, 5):
        for i in range(n):
            assert form_self(_e(n, i)) == HahnScalar.t(i)
            for j in range(n):
                if i != j:
                    assert not form(_e(n, i), _e(n, j))


def test_form_example():
    f = _e(2, 0) + _e(2, 1)
    assert form_self(f) == HahnScalar(HahnSeries.t(0) + HahnSeries.t(1))
    assert form_self(f).valuation() == GammaExp.delta(0)


def test_form_bilinear_orthogonal():
    f, g = _e(3, 0), _e(3, 2)
    assert form_self(f + g) == form_self(f) + form_self(g)


def test_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        form(_e(2, 0), _e(3, 0))


def _reference_form(f, g):
    acc = HahnScalar(0)
    for i in range(f.dim):
        acc = acc + f[i] * g[i] * HahnScalar.t(i)
    return acc


def test_form_symmetric_and_matches_reference_sum():
    # orthogonalize evaluates each unordered Gram pair once, relying on
    # the symmetry checked here
    rng = random.Random(12)
    for dim in (3, 4):
        for _ in range(100):
            f, g = random_vector(rng, dim), random_vector(rng, dim)
            assert form(f, g) == form(g, f)
            assert form(f, g) == _reference_form(f, g)
            assert form_self(f) == _reference_form(f, f)


def test_form_over_one_denominator_matches_the_reference_sum():
    # form never cancels its running denominator: over the two denominators
    # 1 + t_0 and 1 + t_1 the lowest terms of <f, f> have at most 9 terms in
    # the denominator, while form's product of squares grows far past that
    rng = random.Random(13)
    one = HahnSeries.constant(1)
    dens = []
    for _ in range(20):
        f, g = (KVector(tuple(
            HahnScalar(random_series(rng, 2, 3), one + HahnSeries.t(i % 2))
            if rng.random() < 0.8 else random_scalar(rng)
            for i in range(6)
        )) for _ in range(2))
        ref = _reference_form(f, g)
        assert form(f, g) == ref
        assert form(f, g).valuation() == ref.valuation()
        assert form_self(f) == _reference_form(f, f)
        dens.append(form_self(f).den.term_count)
    assert max(dens) > 9


# -- anisotropy and types ----------------------------------------------------


def test_anisotropy_zero_vector():
    assert anisotropy_check(zero_vector(3)) == (False, INF)


def test_anisotropy_basis():
    assert anisotropy_check(_e(3, 2)) == (True, GammaExp.delta(2))


def test_anisotropy_formula_randomized_e6():
    rng = random.Random(0)
    for _ in range(1000):
        f = random_nonzero_vector(rng, 6)
        nonzero, val = anisotropy_check(f)
        assert nonzero
        assert val == form_self(f).valuation()


def test_random_nonzero_vector_rejects_dimension_below_one(monkeypatch):
    # every vector of dimension < 1 is zero, so a redraw loop never ends
    def one_draw_only(*args):
        raise AssertionError("random_nonzero_vector drew a vector")

    monkeypatch.setattr(omlkit.keller, "random_vector", one_draw_only)
    for dim in (0, -1):
        with pytest.raises(ZeroVector):
            random_nonzero_vector(random.Random(0), dim)


def test_type_of_examples():
    for n in range(4):
        assert type_of(_e(4, n)) == tclass(GammaExp.delta(n))
    assert type_of(_e(2, 0) + _e(2, 1)) == tclass(GammaExp.delta(0))
    with pytest.raises(ZeroVector):
        type_of(zero_vector(2))


def test_type_scale_invariant():
    rng = random.Random(1)
    from omlkit.keller import random_scalar

    for _ in range(300):
        f = random_nonzero_vector(rng, 3)
        c = random_scalar(rng)
        if c:
            assert type_of(c * f) == type_of(f)


def test_triangle_inequality():
    rng = random.Random(2)
    for _ in range(1000):
        f = random_nonzero_vector(rng, 4)
        g = random_nonzero_vector(rng, 4)
        lhs = form_self(f + g).valuation()
        assert lhs >= min(form_self(f).valuation(), form_self(g).valuation())


# -- orthogonalization -------------------------------------------------------


def test_orthogonalize_fixed_points():
    out = orthogonalize([_e(2, 0), _e(2, 1)])
    assert out == [_e(2, 0), _e(2, 1)]


def test_orthogonalize_single_step():
    out = orthogonalize([_e(2, 0), _e(2, 0) + _e(2, 1)])
    assert out == [_e(2, 0), _e(2, 1)]


def test_orthogonalize_dependent_input():
    with pytest.raises(DependentInput):
        orthogonalize([_e(2, 0), _e(2, 0)])


def test_orthogonalize_random_families_diagonal_gram():
    rng = random.Random(3)
    done = 0
    while done < 50:
        X = random_subspace(rng, 5, max_dim=3)
        if X.dim < 2:
            continue
        out = orthogonalize(list(X.basis))
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not form(out[i], out[j])
        done += 1


def test_orthogonal_vectors_have_distinct_types():
    # foul(1) surrogate: types within an orthogonalized family are distinct
    rng = random.Random(4)
    for _ in range(200):
        X = random_subspace(rng, 4)
        out = orthogonalize(list(X.basis))
        types = [type_of(v) for v in out]
        assert len(set(types)) == len(types)


# -- elimination and vector arithmetic -----------------------------------------


def _reference_rref(vectors):
    """Dense Gauss-Jordan elimination: every entry of every row, every step."""
    n = vectors[0].dim
    rows = [list(v.coords) for v in vectors]
    out = []
    for col in range(n):
        pick = next((r for r, row in enumerate(rows)
                     if row[col] and not any(row[:col])), None)
        if pick is None:
            continue
        pivot_row = rows.pop(pick)
        inv = pivot_row[col].invert()
        pivot_row = [inv * c for c in pivot_row]
        for group in (out, rows):
            for r, row in enumerate(group):
                factor = row[col]
                group[r] = [a - factor * b for a, b in zip(row, pivot_row)]
        out.append(pivot_row)
    assert not any(any(row) for row in rows)
    return out


def _nonzero_series(rng):
    while True:
        s = random_series(rng, 2, 3)
        if s:
            return s


def _mixed_vector(rng, n):
    """Coordinates that are zero, over 1, or over a two-term denominator."""
    one = HahnSeries.constant(1)
    coords = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            coords.append(HahnScalar(0))
        elif roll < 0.55:
            den = one + HahnSeries.t(rng.randint(0, 3))
            coords.append(HahnScalar(_nonzero_series(rng), den))
        else:
            coords.append(random_scalar(rng, 2, 3))
    return KVector(coords)


def test_rref_matches_a_dense_reference_elimination():
    # _rref skips every product with a zero or unit entry and writes its
    # pivots and eliminated entries directly; the dense elimination that
    # runs every scalar operation must give the same rows in value
    rng = random.Random(31)
    seen = {"zero": 0, "fraction": 0, "dependent": 0, "rank": set()}
    for _ in range(80):
        n = rng.randint(2, 4)
        vs = [_mixed_vector(rng, n) for _ in range(rng.randint(1, n))]
        if len(vs) > 1 and rng.random() < 0.3:
            vs.append(vs[0] + random_scalar(rng, 1, 2) * vs[-1])
            seen["dependent"] += 1
        for v in vs:
            for c in v.coords:
                seen["zero"] += not c
                seen["fraction"] += c.den.term_count > 1
        got = _rref(vs)
        want = _reference_rref(vs)
        seen["rank"].add(len(got))
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            assert list(row.coords) == ref
        pivots = [_pivot(row.coords) for row in got]
        assert pivots == sorted(set(pivots))
        for row, p in zip(got, pivots):
            assert row[p] is omlkit.keller._ONE
            for other in got:
                if other is not row:
                    assert not other[p]
    assert seen["zero"] > 50 and seen["fraction"] > 50
    assert seen["dependent"] > 10 and seen["rank"] >= {1, 2, 3, 4}


def test_vector_arithmetic_matches_coordinatewise_scalars():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(2, 4)
        f, g = _mixed_vector(rng, n), _mixed_vector(rng, n)
        c = rng.choice([random_scalar(rng, 2, 3), HahnScalar(0), 3])
        sc = c if isinstance(c, HahnScalar) else HahnScalar(c)
        for got, want in ((f + g, [a + b for a, b in zip(f, g)]),
                          (f - g, [a - b for a, b in zip(f, g)]),
                          (c * f, [sc * a for a in f])):
            assert isinstance(got, KVector) and got.dim == n
            assert all(isinstance(x, HahnScalar) for x in got.coords)
            assert list(got.coords) == want
        # a zero coordinate passes through with no scalar operation
        for i in range(n):
            if not g[i]:
                assert (f + g)[i] is f[i] and (f - g)[i] is f[i]
            if not f[i]:
                assert (c * f)[i] is f[i]
        for op in (KVector.__add__, KVector.__sub__):
            with pytest.raises(DimensionMismatch):
                op(f, zero_vector(n + 1))


def test_gamma_exponents_keep_their_hash_and_share_deltas():
    rng = random.Random(33)
    for _ in range(1000):
        a, b = random_gamma(rng), random_gamma(rng)
        for g in (a, a + b, a - b, -a, a * 3, GammaExp(dict(a.items()))):
            assert hash(g) == hash(g.items())
            assert hash(g) == hash(GammaExp(g.items()))
        n = rng.randint(0, 12)
        d = GammaExp.delta(n)
        assert d is GammaExp.delta(n)
        assert d == GammaExp([(n, 1)]) and hash(d) == hash(((n, 1),))


# -- subspaces and the pi map --------------------------------------------------


def test_pi_of_zero_subspace():
    assert pi_map(Subspace(3, [])) == frozenset()


def test_pi_of_span_e0_e1():
    X = Subspace(3, [_e(3, 0), _e(3, 1)])
    assert pi_map(X) == {tclass(GammaExp.delta(0)), tclass(GammaExp.delta(1))}


def test_pi_monotone():
    # dd(2): X subseteq Y implies pi(X) subseteq pi(Y)
    rng = random.Random(5)
    for _ in range(200):
        Y = random_subspace(rng, 4)
        take = rng.randint(0, Y.dim)
        X = Subspace(4, list(Y.basis[:take]))
        assert pi_map(X, reshuffle_check=False) <= pi_map(Y, reshuffle_check=False)


def test_pi_additive_on_orthogonal_sum():
    # dd(3): X perp Y implies pi(X v Y) = pi(X) | pi(Y)
    rng = random.Random(6)
    done = 0
    while done < 100:
        Z = random_subspace(rng, 4)
        if Z.dim < 2:
            continue
        out = orthogonalize(list(Z.basis))
        k = rng.randint(1, len(out) - 1)
        X, Y = Subspace(4, out[:k]), Subspace(4, out[k:])
        U = Subspace(4, out)
        assert (pi_map(U, reshuffle_check=False)
                == pi_map(X, reshuffle_check=False)
                | pi_map(Y, reshuffle_check=False))
        done += 1


def test_pi_complement_law():
    # dd(4): pi(X perp) is the complement of pi(X) in the full type set
    rng = random.Random(7)
    full = {tclass(GammaExp.delta(i)) for i in range(4)}
    for _ in range(200):
        X = random_subspace(rng, 4)
        pX = pi_map(X, reshuffle_check=False)
        pC = pi_map(ortho_complement(X), reshuffle_check=False)
        assert pX | pC == full and not (pX & pC)


def test_pi_empty_iff_zero():
    # dd(1)
    rng = random.Random(8)
    for _ in range(100):
        X = random_subspace(rng, 3)
        assert (pi_map(X) == frozenset()) == (X.dim == 0)


def test_pi_chain_monotone():
    # dd(5) at finite chains: increasing chains give increasing pi images
    rng = random.Random(9)
    for _ in range(50):
        Y = random_subspace(rng, 4)
        images = [
            pi_map(Subspace(4, list(Y.basis[:k])), reshuffle_check=False)
            for k in range(Y.dim + 1)
        ]
        for a, b in zip(images, images[1:]):
            assert a <= b


def test_pi_basis_independent():
    rng = random.Random(10)
    for _ in range(100):
        X = random_subspace(rng, 4)
        pi_map(X, reshuffle_check=True)  # raises on basis dependence


def test_ortho_complement_examples():
    X = Subspace(3, [_e(3, 0)])
    assert ortho_complement(X) == Subspace(3, [_e(3, 1), _e(3, 2)])

    Y = Subspace(2, [_e(2, 0) + _e(2, 1)])
    C = ortho_complement(Y)
    t0, t1 = HahnScalar.t(0), HahnScalar.t(1)
    expected = KVector((t1, HahnScalar(0) - t0))
    assert C == Subspace(2, [expected])


def test_double_complement_randomized():
    rng = random.Random(11)
    for _ in range(100):
        X = random_subspace(rng, 5, max_dim=3, max_index=2)
        C = ortho_complement(X)
        for b in X.basis:
            for c in C.basis:
                assert not _reference_form(b, c)
        assert closure_check(X)


def test_counting_types():
    counts = counting_types(3)
    assert counts == {tclass(GammaExp.delta(i)): 1 for i in range(3)}
    assert set(counting_types(6).values()) == {1}


def test_subspace_contains():
    X = Subspace(3, [_e(3, 0), _e(3, 1)])
    assert X.contains(_e(3, 0) + _e(3, 1))
    assert not X.contains(_e(3, 2))


def test_reduce_vector_outputs_are_primitive_and_monic(monkeypatch):
    # the contract every caller of _reduce_vector relies on, checked on each
    # output of one keller report: integral coordinates (denominator 1), a
    # leading coefficient of 1 on the first nonzero coordinate, and a unit
    # (single-term) gcd of the coordinates
    reduce_vector = omlkit.keller._reduce_vector
    outputs = []

    def recording(v):
        out = reduce_vector(v)
        outputs.append(out)
        return out

    monkeypatch.setattr(omlkit.keller, "_reduce_vector", recording)
    assert keller_report(3, seed=0, trials=100)[1]
    one = HahnSeries.constant(1)
    nonzero = [v for v in outputs if v]
    assert len(nonzero) > 500
    for v in outputs:
        assert all(c.den == one for c in v.coords), v
    for v in nonzero:
        first = next(c for c in v.coords if c)
        assert first.num.leading_coefficient() == 1, v
        content = HahnSeries.zero()
        for c in v.coords:
            content = series_gcd(content, c.num)
        assert content.term_count == 1, v


def test_divide_raises_on_a_pair_that_does_not_divide():
    one, t0, t1 = HahnSeries.constant(1), HahnSeries.t(0), HahnSeries.t(1)
    assert omlkit.keller._divide((one + t0) * (one + t1), one + t1, "m") == (
        one + t0)
    with pytest.raises(AssertionError, match="lcm step was not exact"):
        omlkit.keller._divide(one + t0, one + t1, "lcm step was not exact")


# -- shortcuts of _reduce_vector and orthogonalize against the general routes --


def _reference_reduce_vector(v):
    """_reduce_vector without its lone-coordinate path: every vector clears
    denominators, divides out its content and rescales to monic."""
    if not v:
        return v
    divide, one = omlkit.keller._divide, omlkit.keller._ONE_SERIES
    scale = one
    for c in v.coords:
        if c and c.den.term_count > 1:
            scale = scale * divide(c.den, series_gcd(scale, c.den),
                                   "lcm step was not exact")
    nums = [
        c.num * scale if c.den is one else divide(
            c.num * scale, c.den, "denominator clearing was not exact")
        for c in v.coords
    ]
    content = HahnSeries.zero()
    for nm in nums:
        if nm:
            content = series_gcd(content, nm)
    if content.term_count > 1:
        nums = [
            divide(nm, content, "content division was not exact")
            for nm in nums
        ]
    else:
        low = content.valuation()
        if low:
            nums = [nm.shift(-low) for nm in nums]
    lead = next(nm for nm in nums if nm).leading_coefficient()
    if lead != 1:
        nums = [nm * (1 / lead) for nm in nums]
    return KVector._of(tuple(
        HahnScalar._trusted(nm, one) if nm else omlkit.keller._ZERO
        for nm in nums
    ))


def _reference_orthogonalize(vectors):
    """The cofactor construction with every Gram entry evaluated and every
    output reduced, the first one included."""
    vectors = [_reference_reduce_vector(v) for v in vectors]
    m = len(vectors)
    gram = [[form(a, b) for b in vectors] for a in vectors]
    out = []
    for k in range(m):
        g = zero_vector(vectors[0].dim)
        for i in range(k + 1):
            minor = [[gram[r][c] for c in range(k + 1) if c != i]
                     for r in range(k)]
            sign = -1 if (k + i) % 2 else 1
            g = g + (sign * omlkit.keller._det(minor)) * vectors[i]
        out.append(_reference_reduce_vector(g))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_lone_coordinate_reduces_to_its_basis_vector(n):
    one, t0, t2 = HahnSeries.constant(1), HahnSeries.t(0), HahnSeries.t(2)
    num = HahnSeries([(GAMMA_ZERO, Fraction(-3, 2)),
                      (GammaExp([(1, -2)]), Fraction(5, 7))])
    lone = [
        HahnScalar(Fraction(-2, 3)),  # a constant over 1
        HahnScalar(num),  # two terms over 1
        # over a monomial, which the constructor folds into the numerator
        HahnScalar(num, HahnSeries.term(Fraction(-4, 5), GammaExp([(0, 3)]))),
        HahnScalar(num, one + t0),  # a two-term denominator, kept as is
        # unreduced over four terms: small pairs are left uncancelled
        HahnScalar(num * (one - t2), (one - t2) * (one + t0)),
    ]
    assert lone[3].den.term_count == 2 and lone[4].den.term_count == 4
    for i in range(n):
        for c in lone:
            coords = [HahnScalar(0)] * n
            coords[i] = c
            v = KVector(coords)
            want = basis_vector(n, i)
            assert _reference_reduce_vector(v) == want
            got = omlkit.keller._reduce_vector(v)
            assert all(a is b for a, b in zip(got.coords, want.coords))


def test_orthogonalize_matches_the_full_cofactor_construction():
    # short coordinates as random_subspace draws them; in families of one or
    # two, half the time the first vector has two-term denominators instead
    # (larger families of those make the reference's gcds take seconds)
    rng = random.Random(41)
    sizes, mixed = set(), 0
    done = 0
    while done < 60:
        n = rng.randint(3, 5)
        m = rng.randint(1, min(4, n))
        vs = [KVector([omlkit.keller._sparse_scalar(rng, 3)
                       for _ in range(n)]) for _ in range(m)]
        fractions = m <= 2 and rng.random() < 0.5
        if fractions:
            vs[0] = _mixed_vector(rng, n)
        if len(_rref([v for v in vs if v])) < m:
            continue
        out = orthogonalize(vs)
        assert out == _reference_orthogonalize(vs)
        assert out[0] == omlkit.keller._reduce_vector(vs[0])
        sizes.add(m)
        mixed += fractions
        done += 1
    assert sizes == {1, 2, 3, 4} and mixed > 5


@pytest.mark.parametrize("m, forms", [(1, 0), (2, 3), (3, 8), (4, 15)])
def test_orthogonalize_evaluates_only_the_gram_forms_it_reads(
        m, forms, monkeypatch):
    # m(m + 1)/2 - 1 Gram entries (all but the last diagonal one) and
    # m(m - 1)/2 orthogonality checks
    assert forms == m * (m + 1) // 2 - 1 + m * (m - 1) // 2
    calls = []

    def counting(f, g):
        calls.append(1)
        return form(f, g)

    vs = [_e(5, i) + _e(5, i + 1) for i in range(m)]
    monkeypatch.setattr(omlkit.keller, "form", counting)
    out = orthogonalize(vs)
    assert len(out) == m and len(calls) == forms
