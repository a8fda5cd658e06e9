import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from homoperad.homalgebra import (
    AlgebraFormatError,
    FiniteHomAlgebra,
    algebra_from_dict,
    associator,
    algebra_to_dict,
    centroid_violations,
    check_hom_associative,
    check_hom_jacobi,
    check_multiplicative,
    check_skew,
    commutator_algebra,
    dump_algebra,
    envelope_presentation,
    example1,
    is_unit,
    load_algebra,
    q_sl2,
    weak_morphism_violations,
    yau_twist,
)
from homoperad.rewrite import format_rules, read_rules
from homoperad.scalars import RatFunc
from homoperad.terms import Signature, TermError

q = RatFunc.q()


def truncated_poly_algebra(n):
    """K[t]/(t^n) on the basis 1, t, ..., t^(n-1), alpha = identity."""
    zero = Fraction(0)
    mult = [
        [
            [Fraction(1) if k == i + j else zero for k in range(n)]
            if i + j < n
            else [zero] * n
            for j in range(n)
        ]
        for i in range(n)
    ]
    alpha = [[Fraction(1) if i == j else zero for j in range(n)] for i in range(n)]
    return FiniteHomAlgebra(n, mult, alpha)


def poly_endomorphism(n, image):
    """Matrix of the algebra map t -> image (a vector in the t-ideal)."""
    A = truncated_poly_algebra(n)
    beta = [[Fraction(0)] * n for _ in range(n)]
    power = A.basis(0)
    for k in range(n):
        for i in range(n):
            beta[i][k] = power[i]
        power = A.multiply(power, image)
    return beta


def test_example1_is_hom_associative():
    for a, b in [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(0)), (Fraction(2), Fraction(2))]:
        A = example1(a, b)
        assert check_hom_associative(A) == []


def test_example1_associator_defect():
    a, b = Fraction(1), Fraction(2)
    A = example1(a, b)
    d = associator(A, A.basis(0), A.basis(0), A.basis(2))
    assert d == [Fraction(0), Fraction(0), (a - b) * b]
    assert d != [Fraction(0)] * 3  # genuinely non-associative


def test_q_sl2_hom_lie_numeric():
    for val in [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]:
        L = q_sl2(val)
        assert check_skew(L) == []
        assert check_hom_jacobi(L) == []


def test_q_sl2_hom_lie_symbolic():
    L = q_sl2(q)
    assert check_skew(L) == []
    assert check_hom_jacobi(L) == []


def test_q_sl2_multiplicativity():
    assert check_multiplicative(q_sl2(Fraction(1))) == []
    assert check_multiplicative(q_sl2(Fraction(2))) != []


def test_yau_twist_by_identity_is_identity():
    A = truncated_poly_algebra(3)
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    B = yau_twist(A, ident)
    assert B.mult == A.mult
    assert B.alpha == A.alpha


def test_yau_twist_doubling_on_dual_numbers():
    A = truncated_poly_algebra(2)
    beta = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert weak_morphism_violations(A, beta) == []
    B = yau_twist(A, beta)
    assert B.multiply(B.basis(0), B.basis(1)) == [Fraction(0), Fraction(2)]
    assert B.multiply(B.basis(1), B.basis(1)) == [Fraction(0), Fraction(0)]
    assert B.alpha == beta
    assert check_hom_associative(B) == []


def test_weak_morphism_violation_detected():
    A = truncated_poly_algebra(2)
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert weak_morphism_violations(A, swap) != []


def test_random_twisted_commutators_are_hom_lie():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 4)
        A = truncated_poly_algebra(n)
        image = [Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)
        ]
        beta = poly_endomorphism(n, image)
        assert weak_morphism_violations(A, beta) == []
        B = yau_twist(A, beta)
        assert check_hom_associative(B) == []
        L = commutator_algebra(B)
        assert check_skew(L) == []
        assert check_hom_jacobi(L) == []


def test_commutator_rejects_bracket_table():
    with pytest.raises(TypeError):
        commutator_algebra(q_sl2(Fraction(1)))


def test_centroid():
    A = truncated_poly_algebra(3)
    # multiplication by t is in the centroid of K[t]/(t^3)
    gamma = [[Fraction(0)] * 3 for _ in range(3)]
    gamma[1][0] = gamma[2][1] = Fraction(1)
    assert centroid_violations(A, gamma) == []
    swap = [[Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)]]
    assert centroid_violations(A, swap) != []


def test_is_unit():
    A = truncated_poly_algebra(2)
    assert is_unit(A, A.basis(0))
    assert not is_unit(A, A.basis(1))


def test_json_round_trip():
    for A in (q_sl2(q), example1(Fraction(1), Fraction(2))):
        B = load_algebra(dump_algebra(A))
        assert algebra_to_dict(B) == algebra_to_dict(A)
        assert B.bracket == A.bracket
        assert B.mult == A.mult and B.alpha == A.alpha


def test_algebra_from_dict_shape_errors():
    doc = {"dim": 2, "mult": [[["0", "0"]] * 2], "alpha": [["0", "0"]] * 2}
    with pytest.raises(ValueError, match=r"^mult has length 1, not dim 2$"):
        algebra_from_dict(doc)


DOC_SCALARS = st.sampled_from(["0", "1", "-1/2", "q", "1 + q"])
# a string that is no scalar, or a JSON value that is no string
ODD_VALUES = st.sampled_from(["", "1/0", "x", 0, None, [], {}])


def one_in(n):
    return st.sampled_from([True] + [False] * (n - 1))


@st.composite
def json_tables(draw, depth, dim):
    """JSON arrays nested ``depth`` deep around scalars, of ``dim`` entries
    each; one entry in 50 is an odd value, and one array in 50 has a
    length from 0 to 5."""
    if draw(one_in(50)):
        return draw(ODD_VALUES)
    if depth == 0:
        return draw(DOC_SCALARS)
    k = draw(st.integers(0, 5)) if draw(one_in(50)) else dim
    return [draw(json_tables(depth - 1, dim)) for _ in range(k)]


@st.composite
def algebra_documents(draw):
    """An algebra document with dim from -1 to 4, or one time in ten no
    integer, each field missing one time in ten, and now and then an array
    in place of the object; most tables have the shape that dim says."""
    dim = draw(ODD_VALUES if draw(one_in(10)) else st.integers(-1, 4))
    n = dim if type(dim) is int else 2
    fields = {
        "dim": st.just(dim),
        "mult": json_tables(3, n),
        "alpha": json_tables(2, n),
        "bracket": st.booleans() | st.sampled_from(["false", 0, None]),
    }
    doc = {k: draw(v) for k, v in fields.items() if not draw(one_in(10))}
    return list(doc.values()) if draw(one_in(20)) else doc


@settings(max_examples=1000, deadline=None)
@given(algebra_documents())
@example(json.loads(dump_algebra(q_sl2(q))))
def test_the_reader_refuses_or_returns_the_shape_dim_says(doc):
    """``load_algebra`` is the one check of a table from outside: it raises
    only ``AlgebraFormatError``, and a table it returns has dim entries at
    every level and reads back through ``dump_algebra`` unchanged."""
    try:
        A = load_algebra(json.dumps(doc))
    except AlgebraFormatError:
        return
    n = doc["dim"]
    assert A.dim == n and A.bracket == doc.get("bracket", False)
    assert len(A.mult) == n and all(len(row) == n for row in A.mult)
    assert all(len(v) == n for row in A.mult for v in row)
    assert len(A.alpha) == n and all(len(row) == n for row in A.alpha)
    assert algebra_to_dict(load_algebra(dump_algebra(A))) == algebra_to_dict(A)


def test_envelope_presentation_text():
    p = envelope_presentation(q_sl2(q), ["e", "f", "h"])
    assert format_rules(p.rules, p.sig) == (
        "op m 2\n"
        "op a 1\n"
        "op e 0\n"
        "op f 0\n"
        "op h 0\n"
        "a e -> q * e\n"
        "a f -> q^2 * f\n"
        "a h -> q * h\n"
        "m f e -> (-1/2 - 1/2*q) * h + m e f\n"
        "m h e -> 2 * e + m e h\n"
        "m h f -> (-2*q) * f + m f h\n"
        "m a 1 m 2 3 -> m m 1 2 a 3\n"
    )


def accepted(name):
    try:
        Signature(((name, 0),))
    except TermError:
        return False
    return True


# names of the characters of the rules-file format, and of any other
NAMES = st.text(
    st.sampled_from("+-*/^[]#>opq,.") | st.characters(exclude_categories=["Cs"]),
    min_size=1,
    max_size=4,
).filter(lambda name: accepted(name) and name not in ("m", "a"))


@settings(max_examples=300, deadline=None)
@given(st.lists(NAMES, min_size=3, max_size=3, unique=True))
def test_envelope_rules_read_back_under_every_accepted_name(names):
    """A name ``Signature`` accepts survives ``format_rules`` and
    ``read_rules``: the same signature and the same rules come back."""
    p = envelope_presentation(q_sl2(q), names)
    sig, rules = read_rules(format_rules(p.rules, p.sig), p.order)
    assert sig == p.sig
    assert [(r.lhs, r.rhs) for r in rules] == [(r.lhs, r.rhs) for r in p.rules]


def test_envelope_presentation_rejects_plain_tables():
    with pytest.raises(TermError, match="^enveloping presentation expects a bracket table$"):
        envelope_presentation(example1(Fraction(1), Fraction(2)), ["x", "y", "z"])


def test_zero_bracket_envelope():
    L = FiniteHomAlgebra.bracket_from_pairs(1, {}, [[Fraction(1)]])
    p = envelope_presentation(L, ["x"])
    assert [str(r.lhs) for r in p.rules] == ["a x", "m a 1 m 2 3"]
