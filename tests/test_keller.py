import random

import pytest

from omlkit.errors import DependentInput, DimensionMismatch, ZeroVector
from omlkit.hahn import GAMMA_ZERO, INF, GammaExp, HahnScalar, HahnSeries, tclass
from omlkit.keller import (
    KVector,
    Subspace,
    anisotropy_check,
    basis_vector,
    closure_check,
    counting_types,
    form,
    form_self,
    ortho_complement,
    orthogonalize,
    pi_map,
    random_nonzero_vector,
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
