"""The one-pass readers against the readers they replaced, kept here as
references: ``ref_parse`` checks each token, then makes the three checks
of the validating ``Context`` constructor, which walk the word twice more;
``ref_parse_lincomb`` joins each summand's tokens back to text for it,
and adds every summand, the first too, by ``add_term``, which drops a
zero coefficient as ``LinComb.monomial`` must;
``ref_parse_scalar`` reads every scalar through ``_Parser``.  On every text the new reader gives an equal
result, or raises the same exception class with the same message.  The
printer's int sort key is checked against ``ref_word_key``, the
Polish-lex key of tuples it replaced."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_rewrite_index import plane_words, ref_word_key
from test_roundtrip import TERNARY, signatures, sums

from homoperad.linear import LinComb
from homoperad.rewrite import parse_lincomb
from homoperad.scalars import RatFunc, ScalarParseError, _Parser, parse_scalar
from homoperad.terms import (
    HOM_SIGNATURE,
    Context,
    Permutation,
    TermError,
    _is_ascii_decimal,
    act,
    parse,
    print_term,
    sort_key,
)


def ref_parse(text, sig):
    word = []
    for tok in text.split():
        if len(tok) == 1 and _is_ascii_decimal(tok):
            if tok == "0":
                raise TermError("box indices start at 1")
            word.append(int(tok))
        elif tok.startswith("[") and tok.endswith("]"):
            if not _is_ascii_decimal(tok[1:-1]):
                raise TermError(f"bad box token {tok!r}")
            idx = int(tok[1:-1])
            if idx < 1:
                raise TermError("box indices start at 1")
            word.append(idx)
        else:
            if tok not in sig:
                raise TermError(f"unknown symbol {tok!r}")
            word.append(tok)
    boxes = [t for t in word if isinstance(t, int)]
    n = len(boxes)
    if sorted(boxes) != list(range(1, n + 1)):
        raise TermError(f"boxes must be 1..{n} each once, got {boxes}")
    need = 1
    for t in word:
        if need <= 0:
            raise TermError("trailing tokens after complete term")
        need += (0 if isinstance(t, int) else sig.arity(t)) - 1
    if need != 0:
        raise TermError("truncated Polish term")
    return Context(tuple(word), sig, n)


def ref_split_summands(tokens):
    out, current, sign, depth = [], [], 1, 0
    for tok in tokens:
        if depth == 0 and tok in ("+", "-") and not current:
            if tok == "-":
                sign = -sign
            continue
        if depth == 0 and tok in ("+", "-"):
            out.append((sign, current))
            current, sign = [], (1 if tok == "+" else -1)
            continue
        depth += tok.count("(") - tok.count(")")
        current.append(tok)
    if not current:
        raise TermError(f"linear combination ends in {tokens[-1]!r}")
    out.append((sign, current))
    return out


def ref_parse_lincomb(text, sig):
    tokens = text.split()
    if tokens == ["0"]:
        return LinComb(0)
    if not tokens:
        raise TermError("empty linear combination")
    result = None
    for sign, toks in ref_split_summands(tokens):
        coeff = Fraction(sign)
        if "*" in toks:
            cut = toks.index("*")
            coeff = coeff * ref_parse_scalar(" ".join(toks[:cut]))
            toks = toks[cut + 1 :]
        elif toks[0].startswith("-") and toks[0] != "-":
            coeff = -coeff
            toks = [toks[0][1:], *toks[1:]]
        ctx = ref_parse(" ".join(toks), sig)
        if result is None:
            result = LinComb(ctx.arity)
        elif ctx.arity != result.arity:
            raise TermError("arity mismatch in addition")
        result.add_term(ctx, coeff)
    return result


def ref_parse_scalar(text):
    p = _Parser(text)
    try:
        v = p.expr()
    except IndexError as e:
        raise ScalarParseError(str(e)) from e
    except ZeroDivisionError:
        raise ScalarParseError("division by zero") from None
    except RecursionError:
        raise ScalarParseError("parentheses or signs nested too deeply") from None
    if p.peek() is not None:
        raise ScalarParseError(f"trailing input at token {p.pos}")
    c = v._fraction() if isinstance(v, RatFunc) else None
    return v if c is None else c


def outcome(read, *args):
    """What ``read`` gives: its value, or its exception's class and text."""
    try:
        return "value", read(*args)
    except (TermError, ScalarParseError) as e:
        return type(e), str(e)


# symbols of TERNARY and unknown names; boxes 1-9, 0 and bracketed; digits
# of other scripts, which are neither boxes nor names
TERM_TOKENS = [
    "m", "a", "t", "e", "b", "mm", "-m", "[", "]",
    *"123456789", "0", "[10]", "[12]", "[0]", "[x]", "[]", "[01]", "[１２]",
    "²", "١", "１２",
]
SCALAR_TEXTS = [
    "3/6", "007", "1/0", "0/0", "-", "q", "(1 + q)/2", "5/24", "-7/4", "3/",
    "/3", "2/3/4", "q^2", "1/(q - q)", "(q", "q)", "²", "1 2", "",
]


@st.composite
def term_texts(draw):
    """A Polish text: random tokens, or a printed monomial of TERNARY with
    a box duplicated, a token dropped, a token added, or none of these."""
    if draw(st.booleans()):
        return " ".join(draw(st.lists(st.sampled_from(TERM_TOKENS), max_size=8)))
    toks = print_term(draw(plane_words(TERNARY, 12)).word).split()
    i = draw(st.integers(0, len(toks) - 1))
    edit = draw(st.sampled_from(["none", "duplicate", "drop", "add"]))
    if edit == "duplicate":
        toks[i] = draw(st.sampled_from([t for t in toks if t not in TERNARY] or ["1"]))
    elif edit == "drop":
        del toks[i]
    elif edit == "add":
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(TERM_TOKENS)))
    return " ".join(toks)


@settings(max_examples=1500, deadline=None)
@given(term_texts())
def test_term_reader_equals_the_reference(text):
    got, want = outcome(parse, text, TERNARY), outcome(ref_parse, text, TERNARY)
    assert got == want
    if got[0] == "value":
        assert got[1].arity == want[1].arity


@st.composite
def sum_texts(draw):
    """Summands joined by + and -, each a term text, perhaps after a scalar
    text and `*`, or with a `-` glued to its first token."""
    parts = []
    for i in range(draw(st.integers(1, 4))):
        if i or draw(st.booleans()):
            parts.append(draw(st.sampled_from(["+", "-", "- -", "+ -"])))
        term = draw(term_texts())
        kind = draw(st.sampled_from(["plain", "scaled", "glued"]))
        if kind == "scaled":
            term = f"{draw(st.sampled_from(SCALAR_TEXTS))} * {term}"
        elif kind == "glued":
            term = "-" + term
        parts.append(term)
    return " ".join(parts)


def terms_of(x):
    """A sum's terms in insertion order, with each coefficient's type."""
    return [(m.word, type(c), c) for m, c in x.terms.items()]


@settings(max_examples=800, deadline=None)
@given(
    sum_texts()
    | sums().map(str)
    | st.sampled_from([
        "0", "", " 0 ", "- 0", "1/0 * m 1 2", "(1 + q)/2 * m 1 2 - q * m 2 1",
        # a zero coefficient is no term, first or later
        "0 * m 1 2 + m 2 1", "m 1 2 + 0 * m 2 1",
    ])
)
def test_sum_reader_equals_the_reference(text):
    got = outcome(parse_lincomb, text, TERNARY)
    want = outcome(ref_parse_lincomb, text, TERNARY)
    assert got == want
    if got[0] == "value":
        assert got[1].arity == want[1].arity
        assert terms_of(got[1]) == terms_of(want[1])


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(SCALAR_TEXTS)
    | st.text(st.sampled_from("0123456789/q+-*() ²"), max_size=8)
)
def test_scalar_reader_equals_the_reference(text):
    got, want = outcome(parse_scalar, text), outcome(ref_parse_scalar, text)
    assert got == want
    if got[0] == "value":
        assert type(got[1]) is type(want[1])


@st.composite
def monomials(draw):
    """Monomials of one signature, some with more than 9 boxes, with their
    boxes permuted at random."""
    sig = draw(st.sampled_from([HOM_SIGNATURE, TERNARY]) | signatures())
    out = []
    for _ in range(draw(st.integers(2, 8))):
        c = draw(plane_words(sig, 14))
        images = draw(st.permutations(range(1, c.arity + 1)))
        out.append(act(Permutation(tuple(images)), c))
    return out


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_sort_key_orders_as_word_key(monos):
    for x in monos:
        for y in monos:
            kx, ky, wx, wy = sort_key(x), sort_key(y), ref_word_key(x.word), ref_word_key(y.word)
            assert (kx < ky, kx == ky) == (wx < wy, wx == wy)
