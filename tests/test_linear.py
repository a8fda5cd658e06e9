from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from homoperad.linear import (
    IncomparableLeading,
    LinComb,
    compose_linear,
    leading_monomial,
    maximal,
)
from homoperad.orders import GT, INC, LEX_MA, RIGHT_COMB
from homoperad.terms import HOM_SIGNATURE, Permutation, TermError, act, enumerate_plane, parse


def t(text):
    return parse(text, HOM_SIGNATURE)


def mono(text, c=Fraction(1)):
    return LinComb.monomial(t(text), c)


def test_add_and_cancel():
    m12, m21 = mono("m 1 2"), mono("m 2 1")
    x = (m12 - m21) + (m12 + m21)
    assert x == m12.scale(2)
    assert (mono("m 1 m 2 3") - mono("m m 1 2 3")) + mono("m m 1 2 3") == mono("m 1 m 2 3")


def test_scale_zero_gives_empty():
    x = mono("m 1 2").scale(0)
    assert not x
    assert x.terms == {}


def test_no_zero_coefficients_stored():
    x = mono("m 1 2") - mono("m 1 2")
    assert x.terms == {}
    y = mono("m 1 2", Fraction(1, 2)) + mono("m 1 2", Fraction(-1, 2))
    assert y.terms == {}


def test_arity_mismatch():
    with pytest.raises(TermError):
        mono("m 1 2") + mono("a 1")


def test_compose_linear_identity_inners():
    x = mono("m 1 2") - mono("m 2 1")
    ident = mono("1")
    assert compose_linear(x, [ident, ident]) == x


def test_compose_linear_examples():
    assert compose_linear(mono("m 1 2"), [mono("a 1"), mono("1")]) == mono("m a 1 2")
    x = mono("m 1 2") - mono("m 2 1")
    got = compose_linear(x, [mono("m 1 2"), mono("1")])
    assert got == mono("m m 1 2 3") - mono("m 3 m 1 2")


def test_compose_linear_agrees_with_monomial_compose():
    from homoperad.terms import compose

    outer, i1, i2 = t("m 1 2"), t("a 1"), t("m 2 1")
    got = compose_linear(mono("m 1 2"), [mono("a 1"), mono("m 2 1")])
    assert got == LinComb.monomial(compose(outer, [i1, i2]))


def test_act_extension():
    x = mono("m 1 2") - mono("m a 1 2")
    swapped = x.act(Permutation((2, 1)))
    assert swapped == mono("m 2 1") - mono("m a 2 1")


def test_leading_monomial_lex():
    x = mono("m a 1 m 2 3") - mono("m m 1 2 a 3")
    lead, c = leading_monomial(x, LEX_MA)
    assert lead == t("m a 1 m 2 3")
    assert c == 1
    x = mono("m m 1 a 2 a m 3 4") - mono("m m 1 m 2 3 a a 4")
    lead, _ = leading_monomial(x, LEX_MA)
    assert lead == t("m m 1 a 2 a m 3 4")


def test_leading_monomial_singleton():
    x = mono("a a 1", Fraction(5))
    assert leading_monomial(x, LEX_MA) == (t("a a 1"), Fraction(5))


def test_leading_monomial_incomparable():
    # same symbol skeleton, boxes in different spots: lex cannot decide
    x = mono("m 1 m 2 3") - mono("m 2 m 1 3")
    with pytest.raises(IncomparableLeading):
        leading_monomial(x, LEX_MA)


def test_leading_monomial_empty():
    with pytest.raises(ValueError):
        leading_monomial(LinComb(2), LEX_MA)


# x and y are incomparable under lex_ma; z is above both
X, Y, Z = "m m 1 2 m 3 4", "m m 1 m 2 3 4", "m a m 1 2 m 3 4"


@pytest.mark.parametrize("texts", [(X, Y, Z), (Z, X, Y)])
def test_leading_monomial_does_not_depend_on_insertion_order(texts):
    assert LEX_MA.compare(t(X), t(Y)) == INC
    x = LinComb(4)
    for i, text in enumerate(texts, 1):
        x = x + mono(text, Fraction(i))
    assert leading_monomial(x, LEX_MA) == (t(Z), Fraction(texts.index(Z) + 1))


# arity-4 contexts: the plane ones with at most two a-vertices, and every
# box permutation of the a-free ones
ARITY_FOUR = [c for k in range(3) for c in enumerate_plane(k, 3)] + [
    act(Permutation(p), c)
    for c in enumerate_plane(0, 3)
    for p in permutations(range(1, 5))
    if p != (1, 2, 3, 4)
]


def all_pairs_maximal(monos, order):
    return [m for m in monos if not any(order.compare(o, m) == GT for o in monos)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(ARITY_FOUR), unique=True, max_size=12),
    st.sampled_from([LEX_MA, RIGHT_COMB]),
)
def test_maximal_equals_all_pairs_definition(monos, order):
    assert maximal(monos, order) == all_pairs_maximal(monos, order)
