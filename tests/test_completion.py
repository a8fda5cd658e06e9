import pytest

from homoperad import rewrite
from homoperad.completion import complete, overlaps, refuse_inhomogeneous
from homoperad.linear import IncomparableLeading, leading_monomial
from homoperad.orders import LEX_MA, RIGHT_COMB
from homoperad.rewrite import RewritingSystem, find_redexes, is_irreducible, parse_rules
from homoperad.terms import (
    ASS_SIGNATURE,
    HOM_SIGNATURE,
    Signature,
    TermError,
    enumerate_plane,
    parse,
    print_term,
    subterm_ends,
)

HOMASS_RULE = "m a 1 m 2 3 -> m m 1 2 a 3"

RULE2 = "m m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4"
RULE3 = "m m 1 m 2 a 3 a a m 4 5 -> m m 1 m 2 m 3 4 a a a 5"


def homass_rules():
    rules = parse_rules(HOMASS_RULE, HOM_SIGNATURE, LEX_MA)
    return RewritingSystem(HOM_SIGNATURE, LEX_MA, rules)


def ass_system(text):
    rules = parse_rules(text, ASS_SIGNATURE, RIGHT_COMB)
    return RewritingSystem(ASS_SIGNATURE, RIGHT_COMB, rules)


def test_assoc_overlap_site():
    rules = parse_rules("m 1 m 2 3 -> m m 1 2 3", ASS_SIGNATURE, RIGHT_COMB)
    ambs = overlaps(rules[0], rules[0])
    assert len(ambs) == 1
    assert print_term(ambs[0].site.word) == "m 1 m 2 m 3 4"
    assert ambs[0].order == 3


def test_overlap_sites_are_over_the_rules_signature():
    """A site's signature and subterm-end table come from the rules'
    patterns, and an ambiguity prints as its site and its rule pair."""
    rule = homass_rules().rules[0]
    (amb,) = overlaps(rule, rule)
    assert amb.site.sig is HOM_SIGNATURE
    assert amb.site.ends == subterm_ends(amb.site.word, HOM_SIGNATURE)
    assert str(amb) == "m a 1 m a 2 m 3 4\tr1,r1"


def test_refuse_inhomogeneous_refuses_a_growing_rule_of_one_grading():
    """`c 1 -> b c 1` has the (a, m) grading (0, 0) on both sides but one
    more vertex on the right, so adjoining `d 1 -> c 1` would rewrite
    `c 1` forever."""
    sig = Signature.parse("op b 1\nop c 1\nop d 1")
    rules = parse_rules("c 1 -> b c 1\nd 1 -> c 1", sig, LEX_MA)
    with pytest.raises(TermError, match="rule r1 is not homogeneous"):
        refuse_inhomogeneous(rules)


def test_assoc_completion_is_immediate():
    state = complete(ass_system("m 1 m 2 3 -> m m 1 2 3"), max_order=6)
    assert state.status == "complete"
    assert state.census() == {2: 1}


def test_leibniz_completion_is_immediate():
    state = complete(
        ass_system("m 1 m 2 3 -> m m 1 2 3 - m m 1 3 2"),
        max_order=6,
        require_homogeneous=False,
    )
    assert state.status == "complete"
    assert state.census() == {2: 1}


def test_homass_census_small():
    state = complete(homass_rules(), max_order=9)
    assert state.status == "complete"
    assert state.census() == {3: 1, 5: 1, 7: 1, 8: 2, 9: 1}


def test_homass_second_and_third_rules_verbatim():
    state = complete(homass_rules(), max_order=7)
    got = {
        f"{print_term(r.lhs.word)} -> {print_term(next(iter(r.rhs.terms)).word)}"
        for r in state.system.rules
        if r.order in (5, 7)
    }
    assert got == {RULE2, RULE3}
    for r in state.system.rules:
        if r.order > 3:
            assert all(c == 1 for c in r.rhs.terms.values())
            assert len(r.rhs.terms) == 1


def test_homass_census_to_eleven():
    state = complete(homass_rules(), max_order=11)
    assert state.census() == {3: 1, 5: 1, 7: 1, 8: 2, 9: 1, 10: 4, 11: 7}


def test_homass_census_to_fourteen():
    state = complete(homass_rules(), max_order=14)
    assert state.census() == {
        3: 1, 5: 1, 7: 1, 8: 2, 9: 1, 10: 4, 11: 7, 12: 12, 13: 19, 14: 38,
    }


def test_completion_is_deterministic():
    a = complete(homass_rules(), max_order=10)
    b = complete(homass_rules(), max_order=10)
    assert [(r.id, r.lhs, r.rhs) for r in a.system.rules] == [
        (r.id, r.lhs, r.rhs) for r in b.system.rules
    ]
    assert a.log == b.log


def test_rules_are_final_by_order():
    small = complete(homass_rules(), max_order=9)
    big = complete(homass_rules(), max_order=11)
    small_rules = {(r.lhs, tuple(sorted(r.rhs.terms, key=lambda c: c.word))) for r in small.system.rules}
    big_rules = {
        (r.lhs, tuple(sorted(r.rhs.terms, key=lambda c: c.word)))
        for r in big.system.rules
        if r.order <= 9
    }
    assert small_rules == big_rules


def test_irreducible_sets_shrink_monotonically():
    s9 = complete(homass_rules(), max_order=9).system
    s11 = complete(homass_rules(), max_order=11).system
    for k, l in [(3, 2), (2, 3), (5, 2)]:
        for c in enumerate_plane(k, l):
            if is_irreducible(c, s11):
                assert is_irreducible(c, s9)


def test_rules_are_homogeneous():
    from homoperad.completion import is_homogeneous
    from homoperad.terms import grading

    state = complete(homass_rules(), max_order=10)
    for r in state.system.rules:
        assert is_homogeneous(r.lhs, r.rhs)
        g = grading(r.lhs)
        assert all(grading(c) == g for c in r.rhs.terms)


def test_budget_exhaustion_reported():
    state = complete(homass_rules(), max_order=14, budget_seconds=0.0)
    assert state.status == "budget"


def test_inter_reduction_policies_agree_on_census():
    with_ir = complete(homass_rules(), max_order=10, inter_reduce=True)
    without = complete(homass_rules(), max_order=10, inter_reduce=False)
    assert with_ir.census() == without.census()


def test_overlap_sites_share_a_vertex():
    rules = complete(homass_rules(), max_order=7).system.rules
    for r1 in rules:
        for r2 in rules:
            for amb in overlaps(r1, r2):
                assert amb.site.order <= r1.order + r2.order
                assert amb.site.order >= max(r1.order, r2.order)


def test_complete_leaves_its_input_system_unchanged():
    initial = homass_rules()
    before = initial.rules
    state = complete(initial, max_order=10)
    assert len(state.system) > len(before)
    assert initial.rules == before
    fresh = RewritingSystem(HOM_SIGNATURE, LEX_MA, before)
    for r in state.system:
        assert find_redexes(r.lhs, initial) == find_redexes(r.lhs, fresh)


def test_order_failure_under_right_comb():
    initial = RewritingSystem(
        HOM_SIGNATURE, RIGHT_COMB, parse_rules(HOMASS_RULE, HOM_SIGNATURE, RIGHT_COMB)
    )
    state = complete(initial, max_order=8)
    assert state.status == "order_failure"
    assert str(state.failure).startswith("no unique maximum:")
    assert str(state.failure.diff) == "m m 1 a 2 a m 3 4 - m m 1 m 2 3 a a 4"
    amb, outcome = state.log[-1]
    assert (str(amb.site), amb.rule1, amb.rule2, outcome) == (
        "m a 1 m a 2 m 3 4", "r1", "r1", "order_failure"
    )


# Under lex_ma, in each set a later rule reduces an earlier one, whose
# difference is adjoined again and is the one the order cannot orient: the
# first two while the input rules are adjoined, the third while an
# ambiguity's new rule inter-reduces
READJOINED_FAILURES = [
    "a a m 1 2 -> m a 1 a 2\na m 1 2 -> m a 1 2\n",
    "a m 1 m 2 3 -> m m 1 a 2 3\na m 1 2 -> m 1 a 2\n",
    "a m m 1 m 2 3 a 4 -> m 1 m a 2 m 3 a 4\nm a m 1 2 3 -> m m 1 2 a 3\n"
    "a m a 1 2 -> m a a 1 2\n",
]


@pytest.mark.parametrize(
    "text", READJOINED_FAILURES, ids=["inputs", "nested-inputs", "ambiguity"]
)
def test_an_order_failure_carries_the_difference_that_did_not_orient(text):
    initial = RewritingSystem(HOM_SIGNATURE, LEX_MA, parse_rules(text, HOM_SIGNATURE, LEX_MA))
    state = complete(initial, max_order=7)
    assert state.status == "order_failure"
    diff = state.failure.diff
    assert diff
    assert is_irreducible(diff, state.system)
    with pytest.raises(IncomparableLeading):
        leading_monomial(diff, LEX_MA)


def record_searches(monkeypatch):
    """A list that gets (system state, monomial, redexes found) for each redex
    search; the state counts the rules added and removed before it."""
    searches, state = [], [0]
    search, add, remove = rewrite.find_redexes, RewritingSystem.add, RewritingSystem.remove

    def counting_search(t, sys_, **kwargs):
        reds = search(t, sys_, **kwargs)
        searches.append((state[0], t, reds))
        return reds

    def counting_add(self, rule):
        state[0] += 1
        add(self, rule)

    def counting_remove(self, rule_id):
        state[0] += 1
        remove(self, rule_id)

    monkeypatch.setattr(rewrite, "find_redexes", counting_search)
    monkeypatch.setattr(RewritingSystem, "add", counting_add)
    monkeypatch.setattr(RewritingSystem, "remove", counting_remove)
    return searches


def test_completion_searches_each_monomial_once_per_system_state(monkeypatch):
    searches = record_searches(monkeypatch)
    complete(homass_rules(), max_order=10)
    seen = [(state, t) for state, t, _ in searches]
    assert len(seen) == len(set(seen))


def test_a_rule_added_after_a_search_rewrites_the_monomial_searched(monkeypatch):
    """The first input rule's lhs is irreducible against the empty system;
    once that rule is in, the second input rule, with the same lhs,
    normalizes through it to ``-m m 1 2 a 3``: the redex memo was cleared
    when the rule was added."""
    lhs = parse("m a 1 m 2 3", HOM_SIGNATURE)
    rules = parse_rules(HOMASS_RULE + "\nm a 1 m 2 3 -> 2 * m m 1 2 a 3", HOM_SIGNATURE, LEX_MA)
    searches = record_searches(monkeypatch)
    state = complete(RewritingSystem(HOM_SIGNATURE, LEX_MA, rules), max_order=4)
    assert [bool(reds) for _, t, reds in searches if t == lhs][:2] == [False, True]
    assert state.status == "complete"
    assert [(r.id, str(r)) for r in state.system] == [
        ("r2", "m m 1 2 a 3 -> 0"), ("r1", "m a 1 m 2 3 -> 0")
    ]
