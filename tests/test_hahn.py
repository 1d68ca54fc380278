import random
from fractions import Fraction

import pytest

from omlkit.errors import DivisionByZero, ParseError
from omlkit.hahn import (
    GAMMA_ZERO,
    INF,
    GammaExp,
    HahnScalar,
    HahnSeries,
    TypeClass,
    emit_series,
    parse_series,
    series_gcd,
    series_ratio,
    tclass,
)


# -- ordered group -------------------------------------------------------


def test_delta_order():
    assert GammaExp.delta(0) < GammaExp.delta(1)
    assert GammaExp.delta(2) > GammaExp.delta(1)


def test_top_entry_decides():
    g = GammaExp([(0, 5), (1, -1)])
    assert g < GAMMA_ZERO


def test_order_total_antisymmetric_translation_invariant():
    rng = random.Random(0)

    def rand_gamma():
        support = rng.sample(range(8), rng.randint(0, 3))
        return GammaExp([(i, rng.randint(-4, 4)) for i in support])

    for _ in range(1000):
        a, b, c = rand_gamma(), rand_gamma(), rand_gamma()
        assert (a < b) + (b < a) + (a == b) == 1
        if a < b:
            assert a + c < b + c
        assert not (a < a)
        if a < b and b < c:
            assert a < c


def test_group_axioms():
    rng = random.Random(1)
    for _ in range(500):
        items = [(i, rng.randint(-3, 3)) for i in rng.sample(range(6), 2)]
        a = GammaExp(items)
        b = GammaExp([(i, rng.randint(-3, 3)) for i in rng.sample(range(6), 2)])
        assert a + b == b + a
        assert a - a == GAMMA_ZERO
        assert -(-a) == a


def test_bnq_order_fact():
    # gamma > 0 with T(gamma) = T(delta_n) implies gamma > delta_{n-1}
    rng = random.Random(2)
    hits = 0
    for _ in range(5000):
        n = rng.randint(1, 12)
        support = rng.sample(range(13), rng.randint(1, 4))
        g = GammaExp([(i, rng.randint(-6, 6)) for i in support])
        if g > GAMMA_ZERO and tclass(g) == tclass(GammaExp.delta(n)):
            hits += 1
            assert g > GammaExp.delta(n - 1), (n, g)
    assert hits > 50  # the sampler actually exercised the hypothesis


def test_tclass_is_homomorphism():
    rng = random.Random(3)
    for _ in range(500):
        a = GammaExp([(i, rng.randint(-4, 4)) for i in rng.sample(range(6), 2)])
        b = GammaExp([(i, rng.randint(-4, 4)) for i in rng.sample(range(6), 2)])
        assert tclass(a + b) == tclass(a) + tclass(b)
        assert tclass(a + a) == TypeClass()


def test_infinity_conventions():
    assert GAMMA_ZERO < INF
    assert GammaExp.delta(5) < INF
    assert INF + GammaExp.delta(1) is INF
    assert INF == INF and not (INF < INF)
    with pytest.raises(ArithmeticError):
        -INF


# -- series --------------------------------------------------------------


def test_valuation_of_tn():
    for n in range(5):
        assert HahnSeries.t(n).valuation() == GammaExp.delta(n)


def test_difference_of_squares():
    one, t0 = HahnSeries.constant(1), HahnSeries.t(0)
    prod = (one + t0) * (one - t0)
    assert prod == one - t0 * t0
    assert prod.valuation() == GAMMA_ZERO


def test_valuation_multiplicative():
    rng = random.Random(4)
    from omlkit.keller import random_nonzero_series

    for _ in range(1000):
        x = random_nonzero_series(rng)
        y = random_nonzero_series(rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()


def test_valuation_ultrametric():
    rng = random.Random(5)
    from omlkit.keller import random_series

    for _ in range(1000):
        x = random_series(rng)
        y = random_series(rng)
        vx, vy = x.valuation(), y.valuation()
        vs = (x + y).valuation()
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_zero_valuation_is_infinite():
    assert HahnSeries.zero().valuation() is INF


def _terms(s):
    return [(g, s.coefficient(g)) for g in s.support]


def _assert_canonical(result, expected):
    for g in result.support:
        assert isinstance(g, GammaExp)
        c = result.coefficient(g)
        assert isinstance(c, Fraction) and c != 0, (g, c)
    assert result == expected
    assert hash(result) == hash(expected)


def test_arithmetic_results_match_public_constructor():
    # +, -, *, scalar * and shift build their results without the public
    # normalising constructor; check each against a rebuild through it
    rng = random.Random(12)
    from omlkit.keller import random_gamma, random_series

    for _ in range(500):
        x, y = random_series(rng), random_series(rng)
        tx, ty = _terms(x), _terms(y)
        # operands built to cancel: y shares x's first term with the
        # opposite sign, and x_bar flips x's last sign, so that
        # x * x_bar = a^2 - b^2 loses its cross terms
        y_cancel = HahnSeries(ty + [(g, -c) for g, c in tx[:1]])
        x_bar = HahnSeries(tx[:-1] + [(g, -c) for g, c in tx[-1:]])
        for a, b in ((x, y), (x, y_cancel), (x, x), (x, x_bar)):
            ta, tb = _terms(a), _terms(b)
            _assert_canonical(a + b, HahnSeries(ta + tb))
            _assert_canonical(a - b, HahnSeries(ta + [(g, -c) for g, c in tb]))
            _assert_canonical(-b, HahnSeries([(g, -c) for g, c in tb]))
            _assert_canonical(
                a * b,
                HahnSeries(
                    [(g1 + g2, c1 * c2) for g1, c1 in ta for g2, c2 in tb]
                ),
            )
        q_rand = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        for q in (Fraction(0), q_rand):
            _assert_canonical(x * q, HahnSeries([(g, c * q) for g, c in tx]))
            _assert_canonical(q * x, HahnSeries([(g, q * c) for g, c in tx]))
        gamma = random_gamma(rng)
        _assert_canonical(
            x.shift(gamma), HahnSeries([(g + gamma, c) for g, c in tx])
        )
        assert x.shift(gamma) == x * HahnSeries.term(1, gamma)


# -- scalars ---------------------------------------------------------------


def test_invert_t0():
    s = HahnScalar.t(0).invert()
    assert s == HahnScalar(HahnSeries.constant(1), HahnSeries.t(0))
    assert s.valuation() == -GammaExp.delta(0)


def test_invert_roundtrip():
    x = HahnScalar(HahnSeries.constant(1) + HahnSeries.t(0))
    assert x * x.invert() == HahnScalar(1)


def test_cross_multiplication_equality():
    t0 = HahnSeries.t(0)
    assert HahnScalar(t0, t0 * t0) == HahnScalar(HahnSeries.constant(1), t0)


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        HahnScalar(HahnSeries.zero()).invert()
    with pytest.raises(DivisionByZero):
        HahnScalar(1) / HahnScalar(0)


def test_field_axioms_randomized():
    rng = random.Random(6)
    from omlkit.keller import random_scalar

    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + HahnScalar(0) == a
        assert a * HahnScalar(1) == a
        assert a - a == HahnScalar(0)
        if a:
            assert a * a.invert() == HahnScalar(1)
            assert (a * b).valuation() == a.valuation() + b.valuation()


def test_series_embedding_is_homomorphism():
    rng = random.Random(7)
    from omlkit.keller import random_series

    for _ in range(300):
        x = random_series(rng)
        y = random_series(rng)
        assert HahnScalar(x) + HahnScalar(y) == HahnScalar(x + y)
        assert HahnScalar(x) * HahnScalar(y) == HahnScalar(x * y)


def test_series_ratio_exact():
    t0, t1 = HahnSeries.t(0), HahnSeries.t(1)
    one = HahnSeries.constant(1)
    a = (one + t0) * (one + t1)
    num, den = series_ratio(a, one + t0)
    assert den.is_constant()
    assert num * (one + t0) * den.leading_coefficient() ** -1 == a or num == (one + t1)


def test_series_gcd_divides():
    t0, t1 = HahnSeries.t(0), HahnSeries.t(1)
    one = HahnSeries.constant(1)
    a = (one + t0) * (one + t1)
    b = (one + t0) * (one - t1)
    g = series_gcd(a, b)
    _, r1 = series_ratio(a, g)
    _, r2 = series_ratio(b, g)
    assert r1.is_constant() and r2.is_constant()


# -- parse / emit ----------------------------------------------------------


def test_parse_literal():
    s = parse_series("3/2 * t[(0:1)]")
    assert s == HahnSeries.term(Fraction(3, 2), GammaExp.delta(0))


def test_parse_sum_and_negative_exponents():
    s = parse_series("1 - 2 * t[(0:-1,2:3)] + 1/3 * t[(1:1)]")
    assert s.coefficient(GAMMA_ZERO) == 1
    assert s.coefficient(GammaExp([(0, -1), (2, 3)])) == -2
    assert s.coefficient(GammaExp.delta(1)) == Fraction(1, 3)


def test_emit_parse_roundtrip_randomized():
    rng = random.Random(8)
    from omlkit.keller import random_series

    for _ in range(500):
        s = random_series(rng)
        assert parse_series(emit_series(s)) == s


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_series("t[")
    with pytest.raises(ParseError):
        parse_series("2 ** t[(0:1)]")
    with pytest.raises(ParseError):
        parse_series("q * t[(0:1)]")
