import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homoperad.linear import LinComb
from homoperad.scalars import RatFunc, ScalarParseError, format_scalar, parse_scalar
from homoperad.terms import HOM_SIGNATURE, parse

q = RatFunc.q()


def ratfuncs():
    # every rational function over Q is a ratio of two trimmed int tuples
    poly = st.lists(st.integers(-40, 40), max_size=4).map(tuple)
    trimmed = poly.filter(lambda p: not p or p[-1])
    return st.builds(RatFunc, trimmed, trimmed.filter(bool))


def test_canonical_form_reduces_and_normalizes():
    # (q^2 - 1) / (2q - 2) == (q + 1) / 2
    x = RatFunc((-1, 0, 1), (-2, 2))
    assert x == RatFunc((1, 1), (2,))
    assert x.den == (Fraction(1),)


def test_monic_denominator():
    x = RatFunc((1,), (0, 3))
    assert x.den == (Fraction(0), Fraction(1))
    assert x.num == (Fraction(1, 3),)


def test_equality_is_syntactic_on_canonical_forms():
    assert (q + 1) * (q - 1) == q * q - 1
    assert hash((q + 1) / 2) == hash((1 + q) / 2)


def test_arithmetic_with_fractions_promotes():
    assert q + Fraction(1, 2) == Fraction(1, 2) + q
    assert 2 * q == q + q
    assert (q / q) == 1


def test_pow_and_subs():
    assert (1 + q) ** 3 == 1 + 3 * q + 3 * q**2 + q**3
    assert ((1 + q) / 2).subs(Fraction(3)) == Fraction(2)
    assert (q ** (-1)).subs(Fraction(4)) == Fraction(1, 4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        q / RatFunc.const(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), ())


def test_unsupported_operand_is_a_type_error():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(2.5, q)
        with pytest.raises(TypeError):
            op(q, 2.5)


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == RatFunc.const(0)


@given(ratfuncs().filter(bool))
def test_multiplicative_inverse(x):
    assert x / x == 1


def test_parse_scalar_rationals():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar("7") == Fraction(7)
    assert isinstance(parse_scalar("5"), Fraction)


def test_parse_scalar_polynomials():
    assert parse_scalar("(1+q)/2") == (1 + q) / 2
    assert parse_scalar("q^2") == q * q
    assert parse_scalar("-2*q") == -2 * q
    assert parse_scalar("1/2 + 1/2*q") == (1 + q) / 2


def test_parse_scalar_errors():
    for bad in ["", "q +", "(1", "x", "1 2"]:
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


@pytest.mark.parametrize("text", ["", "(", "2 +", "q *", "-"])
def test_a_scalar_that_ends_early_says_so(text):
    with pytest.raises(ScalarParseError, match="^scalar ends early$"):
        parse_scalar(text)


@given(ratfuncs())
def test_format_parse_round_trip(x):
    v = parse_scalar(format_scalar(x))
    assert x == v  # RatFunc.__eq__ reads a Fraction v as its canonical tuples


def test_format_scalar_fraction():
    assert format_scalar(Fraction(-3, 7)) == "-3/7"


def scalars():
    """Small ints, Fractions and rational functions, constant or not, so
    that equal values of different types come up often."""
    fracs = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    return st.one_of(
        st.integers(-2, 2),
        fracs,
        fracs.map(RatFunc.const),
        fracs.map(lambda c: c * q / q),
        st.sampled_from([q, 1 + q, q / 2, (1 + q) / q, 1 / q, -q]),
    )


def test_a_constant_is_one_set_element_with_its_fraction():
    assert len({q / q, Fraction(1), 1}) == 1
    assert len({RatFunc.const(Fraction(-3, 4)), Fraction(-3, 4)}) == 1


@given(scalars(), scalars())
def test_equal_scalars_hash_equal(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


# a sum stores no zero coefficient
@given(*[st.lists(scalars().filter(bool), min_size=2, max_size=2)] * 2)
def test_equal_combinations_hash_equal(xs, ys):
    monos = [parse("m 1 2", HOM_SIGNATURE), parse("m 2 1", HOM_SIGNATURE)]
    a, b = LinComb(2, dict(zip(monos, xs))), LinComb(2, dict(zip(monos, ys)))
    if a == b:
        assert hash(a) == hash(b)
