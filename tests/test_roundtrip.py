"""Each text format reads back what it writes: a plane monomial through
``print_term`` and ``parse``, a signed sum through ``LinComb.__str__`` and
``parse_lincomb``, and a rules file through ``format_rules`` and
``read_rules``.  The ``Context`` constructor checks nothing, so every
context the library builds without reading one is read back here too."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_homalgebra import NAMES
from test_rewrite_index import plane_words
from test_scalars import ratfuncs

from homoperad.homalgebra import envelope_presentation, q_sl2
from homoperad.linear import LinComb
from homoperad.orders import GT, LEX_MA
from homoperad.rewrite import (
    RewritingSystem,
    apply_redex,
    find_redexes,
    format_rules,
    make_rule,
    parse_lincomb,
    parse_rules,
    read_rules,
)
from homoperad.scalars import RatFunc
from homoperad.terms import (
    ASS_SIGNATURE,
    HOM_SIGNATURE,
    Permutation,
    Signature,
    act,
    compose,
    enumerate_plane,
    parse,
    planarize,
    print_term,
    renumber,
)

TERNARY = Signature((("m", 2), ("a", 1), ("t", 3), ("e", 0)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([HOM_SIGNATURE, TERNARY]).flatmap(lambda s: plane_words(s, 16)))
def test_plane_monomial_reads_back(w):
    """Boxes past 9 print bracketed, as ``[12]``."""
    assert parse(print_term(w.word), w.sig) == w


PLANE = [c for k in range(3) for l in range(4) for c in enumerate_plane(k, l)]
ASS_PLANE = [parse(str(c), ASS_SIGNATURE) for c in PLANE if "a" not in c.word]
HOMASS = RewritingSystem(
    HOM_SIGNATURE, LEX_MA, parse_rules("m a 1 m 2 3 -> m m 1 2 a 3", HOM_SIGNATURE, LEX_MA)
)
ENVELOPE = envelope_presentation(q_sl2(RatFunc.q()), ["e", "f", "h"])
CONSTANTS = sorted(
    {m for r in ENVELOPE.rules for m in (r.lhs, *r.rhs.support()) if not m.arity}, key=str
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PLANE), st.data())
def test_every_context_the_library_builds_reads_back_with_its_arity(c, data):
    """What ``enumerate_plane``, ``act``, ``renumber``, ``planarize``,
    ``compose``, ``apply_redex`` and ``envelope_presentation`` build: a
    permuted plane monomial, its boxes renumbered from arbitrary ints, its
    plane form, its composite with plane inners (some over ``m`` alone) and
    with the envelope's constants, and every monomial of each redex's
    reduct under hom-associativity and under the envelope's rules."""
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, c.arity + 1)))))
    moved = act(sigma, c)
    spread = tuple(10 * t + 7 if isinstance(t, int) else t for t in moved.word)
    outer = parse(str(moved), ENVELOPE.sig)
    ground = compose(outer, [data.draw(st.sampled_from(CONSTANTS)) for _ in range(c.arity)])
    built = [
        c,
        moved,
        renumber(spread, c.sig),
        planarize(moved)[0],
        compose(moved, [data.draw(st.sampled_from(PLANE + ASS_PLANE)) for _ in range(c.arity)]),
        ground,
        *CONSTANTS,
    ]
    for t, system in ((moved, HOMASS), (ground, ENVELOPE)):
        for redex in find_redexes(t, system):
            built.extend(apply_redex(t, redex).support())
    for b in built:
        back = parse(str(b), b.sig)
        assert (back, back.arity) == (b, b.arity)


FRACTIONS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
SCALARS = FRACTIONS | ratfuncs().filter(bool)


@st.composite
def sums(draw, coeffs=SCALARS):
    """A sum of plane {m/2, a/1} monomials of grading up to (2, 3) and one
    arity, with nonzero coefficients, by default Fraction and RatFunc;
    the zero sum too."""
    m = draw(st.integers(0, 3))
    pool = [c for a in range(3) for c in enumerate_plane(a, m)]
    monos = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    return LinComb(m + 1, {c: draw(coeffs) for c in monos})


@settings(max_examples=500, deadline=None)
@given(sums())
def test_signed_sum_reads_back(x):
    """The zero sum prints as `0`, which carries no arity: it reads back as
    the zero sum of arity 0, which prints as `0` again.  ``parse_rules`` reads
    it as the rhs of a rule, whose lhs gives the arity."""
    back = parse_lincomb(str(x), HOM_SIGNATURE)
    if x:
        assert back == x
    else:
        assert (back, str(back)) == (LinComb(0), "0")


def test_signed_sum_with_each_kind_of_coefficient_reads_back():
    """Coefficients that print with a leading sign, a power, a sum and a
    quotient, the last two inside parentheses."""
    q = RatFunc.q()
    coeffs = [-1, -q, 2 * q**3, q - 3, 1 / (q + 2), (q - 1) / (q + 1)]
    x = LinComb(3, dict(zip(enumerate_plane(1, 2), coeffs)))
    assert len(x.terms) == 6
    assert parse_lincomb(str(x), HOM_SIGNATURE) == x


def test_constant_rational_function_prints_as_its_fraction():
    monos = parse("a m 1 2", HOM_SIGNATURE), parse("m 1 a 2", HOM_SIGNATURE)
    for c in (Fraction(-5, 24), RatFunc.const(Fraction(-5, 24))):
        assert str(LinComb(2, dict(zip(monos, (1, c))))) == "a m 1 2 - 5/24 * m 1 a 2"


@settings(max_examples=300, deadline=None)
@given(sums(FRACTIONS.map(RatFunc.const) | ratfuncs().filter(bool)))
def test_sum_with_rational_function_coefficients_prints_as_it_reads_back(x):
    """A constant RatFunc reads back as a Fraction, and prints as one."""
    assert str(parse_lincomb(str(x), HOM_SIGNATURE)) == str(x)


@st.composite
def signatures(draw):
    """A signature of one to three names, one of them an operation, none
    of them `m` or `a`, so that ``format_rules`` writes its `op` lines."""
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    arities = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in names[1:]]
    return Signature(tuple(zip(names, arities)))


def words(sig: Signature, ops: int):
    """Every Polish word of one term over ``sig`` with exactly ``ops``
    operations, each box the placeholder 0."""
    if ops == 0:
        return [(n,) for n, k in sig.symbols if k == 0] + [(0,)]
    out = []
    for name, k in sig.symbols:
        if k:
            out.extend((name, *w) for w in _sequences(sig, k, ops - 1))
    return out


def _sequences(sig, count, ops):
    """Every run of ``count`` words with ``ops`` operations in all."""
    if count == 0:
        return [()] if ops == 0 else []
    return [
        head + tail
        for first in range(ops + 1)
        for head in words(sig, first)
        for tail in _sequences(sig, count - 1, ops - first)
    ]


@st.composite
def rule_sets(draw):
    """A signature and up to four rules over it, each a pattern of one to
    three operations and a sum of monomials of its arity below it under
    lex_ma."""
    sig = draw(signatures())
    pool = [renumber(w, sig) for ops in range(4) for w in words(sig, ops)]
    rules = []
    for i in range(draw(st.integers(1, 4))):
        lhs = draw(st.sampled_from([c for c in pool if c.order]))
        below = [c for c in pool if c.arity == lhs.arity and LEX_MA.compare(lhs, c) == GT]
        monos = draw(st.lists(st.sampled_from(below), max_size=3, unique=True)) if below else []
        rhs = LinComb(lhs.arity, {c: draw(SCALARS) for c in monos})
        rules.append(make_rule(f"r{i + 1}", lhs, rhs, LEX_MA))
    return sig, rules


@settings(max_examples=300, deadline=None)
@given(rule_sets())
def test_rules_file_reads_back(case):
    sig, rules = case
    text = format_rules(rules, sig)
    assert text.startswith(f"{sig}\n")
    assert read_rules(text, LEX_MA) == (sig, rules)

