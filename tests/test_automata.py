from pathlib import Path

import pytest

from homoperad.automata import LEAF, SINK, determinize, grammar_from_rules, minimize
from homoperad.orders import LEX_MA
from homoperad.rewrite import RewritingSystem, is_irreducible, parse_rules
from homoperad.terms import HOM_SIGNATURE, enumerate_plane

RULE1 = "m a 1 m 2 3 -> m m 1 2 a 3"
RULE2 = "m m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4"
ORDER_TEN = Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o10.rules"
SYSTEMS = [RULE1, RULE1 + "\n" + RULE2, ORDER_TEN.read_text()]


def rules(text):
    return parse_rules(text, HOM_SIGNATURE, LEX_MA)


def test_grammar_single_rule_states():
    g = grammar_from_rules(rules(RULE1))
    assert g.states == (0, 1, 2, 3)
    assert g.productions[0] == frozenset(
        {("a", 0), ("m", 0, 1), ("m", 1, 0), ("m", 2, 3)}
    )
    assert g.productions[1] == frozenset({LEAF, ("a", 1), ("m", 1, 1)})
    assert g.productions[2] == frozenset({("a", 1)})
    assert g.productions[3] == frozenset({("m", 1, 1)})


def test_grammar_two_rules_states():
    g = grammar_from_rules(rules(RULE1 + "\n" + RULE2))
    assert g.states == tuple(range(8))
    assert g.productions[4] == frozenset({("m", 1, 6)})
    assert g.productions[5] == frozenset({("a", 7)})
    assert g.productions[6] == frozenset({("a", 1)})
    assert g.productions[7] == frozenset({("m", 1, 1)})
    assert ("m", 4, 5) in g.productions[0]


def test_grammar_no_rules():
    g = grammar_from_rules([])
    assert g.states == (0, 1)
    aut = determinize(g)
    # nothing is reducible
    for k, l in [(0, 1), (1, 1), (2, 2)]:
        for c in enumerate_plane(k, l):
            assert not aut.accepts(c.word)


def test_determinize_single_rule_exact_states():
    aut = determinize(grammar_from_rules(rules(RULE1)))
    assert set(aut.states) == {(1,), (1, 2), (1, 3)}
    assert aut.leaf_state == (1,)
    assert aut.f_a[(1,)] == (1, 2)
    assert aut.f_m[((1,), (1,))] == (1, 3)
    # alpha on top of a product: the redex root is one m above, in the sink,
    # which has no stored transition in or out
    assert ((1, 2), (1, 3)) not in aut.f_m
    assert aut.run(("m", "a", 1, "m", 2, 3)) is SINK
    assert aut.run(("a", "m", "a", 1, "m", 2, 3)) is SINK
    assert aut.accepting(SINK)
    assert not aut.accepting((1, 2))


def test_order_ten_system_has_34_live_states():
    aut = determinize(grammar_from_rules(rules(ORDER_TEN.read_text())))
    assert len(aut.states) == 34
    assert not any(0 in s for s in aut.states)
    assert not any(0 in t for t in [*aut.f_a.values(), *aut.f_m.values()])


def test_automaton_language_matches_redex_search():
    for text in (RULE1, RULE1 + "\n" + RULE2):
        rs = rules(text)
        system = RewritingSystem(HOM_SIGNATURE, LEX_MA, rs)
        aut = determinize(grammar_from_rules(rs))
        for k in range(11):
            for l in range((10 - k) // 2 + 1):
                if k + 2 * l > 10:
                    continue
                for c in enumerate_plane(k, l):
                    assert aut.accepts(c.word) == (not is_irreducible(c, system))


def test_run_on_single_box():
    aut = determinize(grammar_from_rules(rules(RULE1)))
    assert aut.run((1,)) == (1,)
    assert not aut.accepts((1,))


def witnesses(aut):
    """One monomial reaching each state, built up from the box; the run
    ignores box labels, so every box is 1."""
    found = {aut.leaf_state: (1,)}
    while len(found) < len(aut.states):
        for c, b in aut.f_a.items():
            if c in found:
                found.setdefault(b, ("a", *found[c]))
        for (c, d), b in aut.f_m.items():
            if c in found and d in found:
                found.setdefault(b, ("m", *found[c], *found[d]))
    return found


@pytest.mark.parametrize("text", SYSTEMS, ids=["rule1", "rule1-rule2", "order10"])
def test_minimize_blocks_are_a_congruence(text):
    aut = determinize(grammar_from_rules(rules(text)))
    small = minimize(aut)
    # the block of a state is where the minimized automaton sends a
    # monomial reaching it; a missing transition is the sink's block
    block = {s: small.run(w) for s, w in witnesses(aut).items()}
    assert set(block.values()) == set(small.states)
    block[SINK] = SINK
    for s in aut.states:
        assert block[aut.f_a.get(s)] == small.f_a.get(block[s])
        for t in aut.states:
            assert block[aut.f_m.get((s, t))] == small.f_m.get((block[s], block[t]))
    for s in aut.states:
        for s2 in aut.states:
            if block[s] != block[s2]:
                continue
            assert block[aut.f_a.get(s)] == block[aut.f_a.get(s2)]
            for t in aut.states:
                assert block[aut.f_m.get((s, t))] == block[aut.f_m.get((s2, t))]
                assert block[aut.f_m.get((t, s))] == block[aut.f_m.get((t, s2))]


def test_minimized_automaton_accepts_what_determinize_accepts():
    # every monomial of k a-vertices and l m-vertices with k + l <= 8, and
    # the longer ones up to k + 2 l <= 10
    for text in SYSTEMS:
        aut = determinize(grammar_from_rules(rules(text)))
        small = minimize(aut)
        for k in range(11):
            for l in range(11 - k):
                if k + l > 8 and k + 2 * l > 10:
                    continue
                for c in enumerate_plane(k, l):
                    assert small.accepts(c.word) == aut.accepts(c.word)


def test_order_ten_system_has_28_classes():
    small = minimize(determinize(grammar_from_rules(rules(ORDER_TEN.read_text()))))
    assert len(small.states) == 28
    assert small.leaf_state == (1,)
