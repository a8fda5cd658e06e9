import random
from fractions import Fraction

import pytest

from homoperad.homalgebra import AlgebraFormatError
from homoperad.linear import IncomparableLeading, LinComb
from homoperad.orders import LEX_MA, RIGHT_COMB
from homoperad.rewrite import (
    Redex,
    RewritingSystem,
    RuleError,
    _pick_greatest,
    apply_redex,
    find_redexes,
    format_rules,
    is_irreducible,
    make_rule,
    normal_form,
    parse_lincomb,
    parse_rules,
    read_rules,
)
from homoperad.scalars import ScalarParseError
from homoperad.terms import (
    ASS_SIGNATURE, HOM_SIGNATURE, Context, Permutation, TermError, act, parse
)


def th(text):
    return parse(text, HOM_SIGNATURE)


# --- references: one step of the reduction loop that walked and copied the
# whole sum at every step, kept as it stood in ``homoperad.rewrite`` --------


def _choose(x: LinComb, redexes, order, rng):
    """The (monomial, redex) one step rewrites, or None when x is in normal
    form.  Deterministic: the order-greatest reducible monomial and its
    first redex.  With ``rng``: uniform over every redex of every monomial.
    ``redexes(mono)`` gives the sorted redex list of a monomial."""
    if rng is not None:
        choices = [(mono, red) for mono in x.support() for red in redexes(mono)]
        return choices[rng.randrange(len(choices))] if choices else None
    reducible = {}
    for mono in x.support():
        reds = redexes(mono)
        if reds:
            reducible[mono] = reds[0]
    if not reducible:
        return None
    target = _pick_greatest(list(reducible), order)
    return target, reducible[target]


def _rewrite(x: LinComb, mono: Context, red: Redex) -> LinComb:
    """x with the monomial ``mono`` replaced by its reduct at ``red``."""
    replaced = apply_redex(mono, red).scale(x.terms[mono])
    rest = LinComb(x.arity)
    rest.terms = {m: c for m, c in x.terms.items() if m != mono}
    return rest + replaced


def reduce_once(x, sys_):
    """Reference: one rewriting step at the order-greatest reducible
    monomial, first redex in Polish position order, as ``normal_form``
    steps.  Returns (result, progressed)."""
    step = _choose(x, lambda mono: find_redexes(mono, sys_), sys_.order, None)
    if step is None:
        return x, False
    return _rewrite(x, *step), True


def homass_system():
    rules = parse_rules("m a 1 m 2 3 -> m m 1 2 a 3", HOM_SIGNATURE, LEX_MA)
    return RewritingSystem(HOM_SIGNATURE, LEX_MA, rules)


def assoc_system():
    rules = parse_rules("m 1 m 2 3 -> m m 1 2 3", ASS_SIGNATURE, RIGHT_COMB)
    return RewritingSystem(ASS_SIGNATURE, RIGHT_COMB, rules)


def test_find_redexes_rule1_at_root():
    reds = find_redexes(th("m a 1 m 2 3"), homass_system())
    assert len(reds) == 1
    assert reds[0].position == 0


def test_find_redexes_none_on_irreducible():
    assert find_redexes(th("m m 1 2 a 3"), homass_system()) == []


def test_find_redexes_assoc_two_sites():
    reds = find_redexes(parse("m 1 m 2 m 3 4", ASS_SIGNATURE), assoc_system())
    assert [r.position for r in reds] == [0, 2]


def test_matching_is_input_order_blind():
    sys_ = homass_system()
    base = th("m a 1 m 2 3")
    for images in [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]:
        permuted = act(Permutation(images), base)
        assert len(find_redexes(permuted, sys_)) == len(find_redexes(base, sys_))


def test_normal_form_assoc():
    got = normal_form(
        LinComb.monomial(parse("m 1 m 2 m 3 4", ASS_SIGNATURE)), assoc_system()
    )
    assert got == LinComb.monomial(parse("m m m 1 2 3 4", ASS_SIGNATURE))


def test_normal_form_examples():
    sys_ = homass_system()
    for t, nf in [("m a 1 m 2 3", "m m 1 2 a 3"), ("m a 1 m 2 a 3", "m m 1 2 a a 3")]:
        assert normal_form(LinComb.monomial(th(t)), sys_) == LinComb.monomial(th(nf))
    irreducible = LinComb.monomial(th("a a 1"))
    assert normal_form(irreducible, sys_) == irreducible


def test_normal_form_idempotent():
    sys_ = homass_system()
    x = LinComb.monomial(th("m a a 1 m a 2 m 3 4"))
    once = normal_form(x, sys_)
    assert normal_form(once, sys_) == once


def test_is_irreducible():
    sys_ = homass_system()
    assert is_irreducible(th("m m 1 2 a 3"), sys_)
    assert not is_irreducible(th("m a 1 m 2 3"), sys_)
    assert is_irreducible(th("a a 1"), sys_)


def test_difference_to_normal_form_is_a_reduction_chain():
    # x - normal_form(x) is a sum of (reduct - redex) steps; replaying the
    # recorded steps one at a time reaches the same normal form
    sys_ = homass_system()
    x = LinComb.monomial(th("m a 1 m a 2 m 3 4"))
    nf = normal_form(x, sys_)
    steps = 0
    cur = x
    while True:
        cur, progressed = reduce_once(cur, sys_)
        if not progressed:
            break
        steps += 1
    assert cur == nf
    assert steps >= 1


def test_dsm_violation_rejected():
    with pytest.raises(RuleError):
        parse_rules("m m 1 2 a 3 -> m a 1 m 2 3", HOM_SIGNATURE, LEX_MA)
    with pytest.raises(RuleError):
        # lhs appears in its own replacement
        parse_rules("m a 1 m 2 3 -> m a 1 m 2 3", HOM_SIGNATURE, LEX_MA)


def test_each_refusal_is_a_term_error_or_a_rule_error():
    """The command line exits 2 on a TermError and 4 on a RuleError: a
    refusal of input is the one, a refusal by the term order the other,
    and no class is both."""
    for cls in (ScalarParseError, AlgebraFormatError):
        assert issubclass(cls, TermError) and not issubclass(cls, RuleError)
    assert issubclass(IncomparableLeading, RuleError)
    assert not issubclass(IncomparableLeading, TermError)
    assert not issubclass(RuleError, TermError) and not issubclass(TermError, RuleError)


def test_non_plane_lhs_is_planarized():
    rule = make_rule(
        "r1",
        th("m a 2 m 1 3"),
        LinComb.monomial(th("m m 2 1 a 3")),
        LEX_MA,
    )
    assert rule.lhs.is_plane()
    # the planarized rule still says "a over the first factor moves down"
    assert rule.lhs == th("m a 1 m 2 3")


def test_rule_file_round_trip():
    text = "m a 1 m 2 3 -> m m 1 2 a 3\nm m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4\n"
    rules = parse_rules(text, HOM_SIGNATURE, LEX_MA)
    assert format_rules(rules, HOM_SIGNATURE) == text
    again = parse_rules(format_rules(rules, HOM_SIGNATURE), HOM_SIGNATURE, LEX_MA)
    assert [(r.lhs, r.rhs) for r in again] == [(r.lhs, r.rhs) for r in rules]


def test_read_rules_reads_back_a_signature_and_its_rules():
    from homoperad.homalgebra import envelope_presentation, q_sl2
    from homoperad.scalars import RatFunc

    pres = envelope_presentation(q_sl2(RatFunc.q()), ["e", "f", "h"])
    text = format_rules(pres.rules, pres.sig)
    assert text.startswith("op m 2\nop a 1\nop e 0\n")
    sig, rules = read_rules(text, LEX_MA)
    assert sig == pres.sig
    assert format_rules(rules, sig) == text
    sig, rules = read_rules("# hom-associativity\nm a 1 m 2 3 -> m m 1 2 a 3\n", LEX_MA)
    assert sig == HOM_SIGNATURE and [str(r) for r in rules] == ["m a 1 m 2 3 -> m m 1 2 a 3"]


def test_parse_lincomb_signs_and_coefficients():
    x = parse_lincomb("2 * m 1 2 - m 2 1", HOM_SIGNATURE)
    assert x.terms[th("m 1 2")] == Fraction(2)
    assert x.terms[th("m 2 1")] == Fraction(-1)
    y = parse_lincomb("- a 1 + 1/2 * a 1", HOM_SIGNATURE)
    assert y.terms[th("a 1")] == Fraction(-1, 2)


def test_parse_lincomb_rational_function_coefficients():
    from homoperad.scalars import RatFunc, parse_scalar

    sig_text = "(1/2 + 1/2*q) * a 1"
    x = parse_lincomb(sig_text, HOM_SIGNATURE)
    assert x.terms[th("a 1")] == (1 + RatFunc.q()) / 2
    assert parse_scalar("(1+q)/2") == (1 + RatFunc.q()) / 2


def test_random_strategy_reaches_same_nf_on_complete_fragment():
    # {rule1, rule2} is complete for monomials of order <= 6
    rules = parse_rules(
        "m a 1 m 2 3 -> m m 1 2 a 3\nm m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4",
        HOM_SIGNATURE,
        LEX_MA,
    )
    sys_ = RewritingSystem(HOM_SIGNATURE, LEX_MA, rules)
    rng = random.Random(5)
    from homoperad.terms import enumerate_plane

    for k, l in [(2, 2), (3, 2), (1, 2)]:
        for c in enumerate_plane(k, l):
            x = LinComb.monomial(c)
            base = normal_form(x, sys_)
            for _ in range(5):
                assert normal_form(x, sys_, rng=rng) == base
