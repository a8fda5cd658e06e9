from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homoperad.automata import (
    LEAF, SINK, BottomUpAutomaton, _number, determinize, grammar_from_rules, minimize
)
from homoperad.completion import complete
from homoperad.linear import LinComb
from homoperad.orders import LEX_MA, get_order
from homoperad.rewrite import (
    RewritingSystem, is_irreducible, make_rule, parse_rules, read_rules
)
from homoperad.terms import HOM_SIGNATURE, Signature, TermError, enumerate_plane, parse

RULE1 = "m a 1 m 2 3 -> m m 1 2 a 3"
RULE2 = "m m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4"
ROOT = Path(__file__).resolve().parents[1]
ORDER_TEN = ROOT / "bench" / "data" / "homass-o10.rules"
ORDER_TWELVE = ROOT / "bench" / "data" / "homass-o12.rules"
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
    # the second rule's subpatterns `a 1` and `m 1 2` are the first rule's
    # states 2 and 3
    g = grammar_from_rules(rules(RULE1 + "\n" + RULE2))
    assert g.states == tuple(range(6))
    assert g.productions[4] == frozenset({("m", 1, 2)})
    assert g.productions[5] == frozenset({("a", 3)})
    assert ("m", 4, 5) in g.productions[0]


# every rules file in the package and in bench/data, with the order it is read under
RULES_FILES = [
    ("src/homoperad/data/homass.rules", "lex_ma"),
    ("src/homoperad/data/assoc.rules", "right_comb"),
    ("src/homoperad/data/leibniz.rules", "right_comb"),
    ("bench/data/homass-o10.rules", "lex_ma"),
    ("bench/data/homass-o12.rules", "lex_ma"),
]


def assert_one_m_production_per_state(g):
    """``determinize`` gives the m-production of each grammar state b > 0
    bit b, which needs b to have at most one."""
    for b, ps in g.productions.items():
        if b:
            assert sum(p[0] == "m" for p in ps) <= 1, (b, ps)


def assert_no_shared_production(g):
    """One state per subpattern: no production belongs to two states but
    state 1, whose a(1) and m(1, 1) are also those of `a 1` and `m 1 2`."""
    seen = {}
    for b, ps in g.productions.items():
        if b != 1:
            for p in ps:
                assert seen.setdefault(p, b) == b, (p, seen[p], b)


@pytest.mark.parametrize("path, order", RULES_FILES, ids=[p for p, _ in RULES_FILES])
def test_every_state_but_zero_has_at_most_one_m_production(path, order):
    _, rs = read_rules((ROOT / path).read_text(), get_order(order))
    assert_one_m_production_per_state(grammar_from_rules(rs))


@pytest.mark.parametrize("path, order", RULES_FILES, ids=[p for p, _ in RULES_FILES])
def test_no_two_grammar_states_share_a_production(path, order):
    _, rs = read_rules((ROOT / path).read_text(), get_order(order))
    assert_no_shared_production(grammar_from_rules(rs))


def test_grammar_refuses_a_symbol_other_than_a_and_m():
    sig = Signature((("m", 2), ("b", 1)))
    rule = make_rule(
        "r1", parse("m b 1 m 2 3", sig), LinComb.monomial(parse("m m 1 2 b 3", sig)), LEX_MA
    )
    with pytest.raises(TermError, match="'b'"):
        grammar_from_rules([rule])


def test_grammar_no_rules():
    g = grammar_from_rules([])
    assert g.states == (0, 1)
    aut = determinize(g)
    # nothing is reducible
    for k, l in [(0, 1), (1, 1), (2, 2)]:
        for c in enumerate_plane(k, l):
            assert not aut.accepts(c.word)


def witnesses(aut):
    """One monomial reaching each state, built up from the box; the run
    ignores box labels, so every box is 1."""
    found = {0: (1,)}
    while len(found) < len(aut.states):
        for c, b in enumerate(aut.f_a):
            if c in found and b != SINK:
                found.setdefault(b, ("a", *found[c]))
        for c in aut.states:
            for d in aut.states:
                b = aut.f_m(c, d)
                if c in found and d in found and b != SINK:
                    found.setdefault(b, ("m", *found[c], *found[d]))
    return found


def grammar_states(g, word):
    """The grammar states that generate the plane monomial ``word``: the
    subset of the subset construction, run on the grammar itself."""
    stack = []
    for tok in reversed(word):
        head = "leaf" if isinstance(tok, int) else tok
        kids = [stack.pop() for _ in range({"leaf": 0, "a": 1, "m": 2}[head])]
        stack.append(
            {
                b
                for b, ps in g.productions.items()
                if any(p[0] == head and all(c in k for c, k in zip(p[1:], kids)) for p in ps)
            }
        )
    (states,) = stack
    return states


def test_determinize_single_rule_exact_states():
    g = grammar_from_rules(rules(RULE1))
    aut = determinize(g)
    # state 0 is the leaf's {1}, 1 is {1, 2} = a(0), 2 is {1, 3} = m(0, 0)
    subsets = {s: grammar_states(g, w) for s, w in witnesses(aut).items()}
    assert subsets == {0: {1}, 1: {1, 2}, 2: {1, 3}}
    assert aut.states == range(3)
    assert aut.f_a == [1, 1, 1]
    # alpha on top of a product: the redex root is one m above, in the sink
    assert [[aut.f_m(c, d) for d in aut.states] for c in aut.states] == [
        [2, 2, 2], [2, 2, SINK], [2, 2, 2]
    ]
    assert aut.run(("m", "a", 1, "m", 2, 3)) == SINK
    assert aut.run(("a", "m", "a", 1, "m", 2, 3)) == SINK
    assert aut.accepts(("m", "a", 1, "m", 2, 3))
    assert not aut.accepts(("a", 1))


def test_order_ten_system_has_34_live_states():
    g = grammar_from_rules(rules(ORDER_TEN.read_text()))
    aut = determinize(g)
    assert len(aut.states) == 34
    subsets = [frozenset(grammar_states(g, w)) for w in witnesses(aut).values()]
    assert len(set(subsets)) == 34
    assert not any(0 in s for s in subsets)
    targets = {*aut.f_a, *(b for row in aut.table for b in row)}
    assert targets <= {SINK, *aut.states}
    assert all(len(row) == len(aut.table[0]) for row in aut.table)


# (rules file, live states, table rows, table columns, classes): m(c, d)
# reads only the row of c and the right-child production mask of d, so the
# table has one row per distinct row content and one column per distinct
# right mask
COMPRESSION = [
    ("bench/data/homass-o10.rules", 34, 13, 19, 28),
    ("bench/data/homass-o12.rules", 208, 39, 66, 89),
]


@pytest.mark.parametrize("path, n, n_rows, n_cols, n_classes", COMPRESSION)
def test_pair_table_has_a_row_per_distinct_row_content_and_a_column_per_right_mask(
    path, n, n_rows, n_cols, n_classes
):
    _, rs = read_rules((ROOT / path).read_text(), LEX_MA)
    aut = determinize(grammar_from_rules(rs))
    assert len(aut.states) == n
    assert (len(aut.table), len(aut.table[0])) == (n_rows, n_cols)
    assert sorted(set(aut.left)) == list(range(n_rows))
    assert sorted(set(aut.right)) == list(range(n_cols))
    assert len(minimize(aut).states) == n_classes


def test_order_fifteen_table_has_294_rows_all_distinct():
    """At order 15 some m-productions have their right child in the row's
    K, and leaving them in the key would split 35 rows off their equals."""
    system = RewritingSystem(HOM_SIGNATURE, LEX_MA, rules(RULE1))
    state = complete(system, max_order=15)
    aut = determinize(grammar_from_rules(state.system.rules))
    assert (len(aut.states), len(aut.table), len(aut.table[0])) == (8094, 294, 830)
    assert len(set(map(tuple, aut.table))) == 294
    small = minimize(aut)
    assert (len(small.states), len(small.table), len(small.table[0])) == (533, 207, 256)


def ref_determinize(g) -> BottomUpAutomaton:
    """The subset construction with one row per distinct left mask, as
    ``determinize`` once built it, so that rows of equal contents are each
    filled."""
    n = len(g.states)
    a_image = [0] * n
    l_image, r_image = [0] * n, [0] * n
    leaf, extra = 0, n
    for b, ps in g.productions.items():
        for p in ps:
            if p == LEAF:
                leaf |= 1 << b
            elif p[0] == "a":
                a_image[p[1]] |= 1 << b
            else:
                if b:
                    bit = 1 << b
                else:
                    bit, extra = 1 << extra, extra + 1
                l_image[p[1]] |= bit
                r_image[p[2]] |= bit
    own = (1 << n) - 1
    subsets, number = [leaf], {leaf: 0}
    f_a, left, right, table = [], [], [], []
    row_of, col_of = {}, {}
    lmasks, rmasks = [], []

    def state(u):
        if u & 1 or u > own:
            return SINK
        if u not in number:
            number[u] = len(subsets)
            subsets.append(u)
        return number[u]

    for s in subsets:
        a = l = r = 0
        for c in range(n):
            if s >> c & 1:
                a, l, r = a | a_image[c], l | l_image[c], r | r_image[c]
        f_a.append(state(a))
        if l not in row_of:
            row_of[l] = len(lmasks)
            lmasks.append(l)
            table.append([state(l & q) for q in rmasks])
        if r not in col_of:
            col_of[r] = len(rmasks)
            rmasks.append(r)
            for row, p in zip(table, lmasks):
                row.append(state(p & r))
        left.append(row_of[l])
        right.append(col_of[r])
    return BottomUpAutomaton(f_a, left, right, table)


@lru_cache(maxsize=None)
def order_twelve_rules():
    return tuple(rules(ORDER_TWELVE.read_text()))


@st.composite
def order_twelve_subsets(draw):
    """Some of the order-12 rules, in file order or reversed."""
    every = order_twelve_rules()
    keep = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    chosen = [r for r, k in zip(every, keep) if k]
    return chosen[::-1] if draw(st.booleans()) else chosen


@settings(max_examples=300, deadline=None)
@given(order_twelve_subsets())
def test_rows_numbered_by_content_match_the_left_mask_rows(rs):
    g = grammar_from_rules(rs)
    assert_no_shared_production(g)
    got, want = determinize(g), ref_determinize(g)
    # the same live states, numbered alike, with the same transitions
    assert got.f_a == want.f_a
    assert [[got.f_m(c, d) for d in got.states] for c in got.states] == [
        [want.f_m(c, d) for d in want.states] for c in want.states
    ]
    # and every row of the table is one distinct row content
    assert len(set(map(tuple, got.table))) == len(got.table)


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
    assert aut.run((1,)) == 0
    assert not aut.accepts((1,))


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
        assert block[aut.f_a[s]] == small.f_a[block[s]]
        for t in aut.states:
            assert block[aut.f_m(s, t)] == small.f_m(block[s], block[t])
    for s in aut.states:
        for s2 in aut.states:
            if block[s] != block[s2]:
                continue
            assert block[aut.f_a[s]] == block[aut.f_a[s2]]
            for t in aut.states:
                assert block[aut.f_m(s, t)] == block[aut.f_m(s2, t)]
                assert block[aut.f_m(t, s)] == block[aut.f_m(t, s2)]


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
    assert small.run((1,)) == 0


@pytest.mark.parametrize("text", ["", *SYSTEMS], ids=["empty", "rule1", "rule1-rule2", "order10"])
def test_minimize_sends_the_leaf_to_class_zero(text):
    aut = determinize(grammar_from_rules(rules(text)))
    small = minimize(aut)
    assert small.run((1,)) == 0
    # the classes are numbered in the order of their first states
    block = {s: small.run(w) for s, w in witnesses(aut).items()}
    assert list(dict.fromkeys(block[s] for s in aut.states)) == list(small.states)


def ref_minimize(aut: BottomUpAutomaton) -> BottomUpAutomaton:
    """Moore refinement as ``minimize`` once ran it: the equal columns
    merged and the table re-rowed before the first round, every row and
    column tuple numbered in each round, and the result's rows read back
    across the last round's column tuples."""
    fa, n = aut.f_a, len(aut.f_a)
    col, cols = _number(zip(*aut.table))
    table = list(zip(*cols))
    left, right = aut.left, [col[j] for j in aut.right]
    block = [0] * n + [SINK]
    count = 1
    while True:
        look = block.__getitem__
        row, _ = _number(tuple(map(look, r)) for r in table)
        col, cols_by_id = _number(tuple(map(look, c)) for c in cols)
        new, sigs = _number(
            (block[i], block[fa[i]], row[left[i]], col[right[i]]) for i in range(n)
        )
        block = new + [SINK]
        if len(sigs) == count:
            break
        count = len(sigs)
    reps = []
    for i in range(n):
        if block[i] == len(reps):
            reps.append(i)
    _, rows_by_id = _number(zip(*cols_by_id))
    return BottomUpAutomaton(
        [block[fa[i]] for i in reps],
        [row[left[i]] for i in reps],
        [col[right[i]] for i in reps],
        [list(r) for r in rows_by_id],
    )


def assert_minimize_matches_reference(aut):
    got, want = minimize(aut), ref_minimize(aut)
    assert (got.f_a, got.left, got.right, got.table) == (
        want.f_a, want.left, want.right, want.table
    )


@pytest.mark.parametrize("path", [ORDER_TEN, ORDER_TWELVE], ids=["order10", "order12"])
def test_minimize_matches_the_reference_on_the_completed_systems(path):
    assert_minimize_matches_reference(determinize(grammar_from_rules(rules(path.read_text()))))


@settings(max_examples=200, deadline=None)
@given(order_twelve_subsets())
def test_minimize_matches_the_reference_on_order_twelve_subsets(rs):
    assert_minimize_matches_reference(determinize(grammar_from_rules(rs)))


def test_minimize_takes_repeated_rows_and_columns():
    """Rows 0 and 2 are equal, and so are columns 0 and 2, which
    ``determinize`` never gives; states 0 and 2 read them, so they share
    a class."""
    aut = BottomUpAutomaton(
        f_a=[1, 1, 1],
        left=[0, 1, 2],
        right=[0, 1, 2],
        table=[[1, SINK, 1], [2, 0, 2], [1, SINK, 1]],
    )
    assert_minimize_matches_reference(aut)
    small = minimize(aut)
    assert (small.f_a, small.left, small.right, small.table) == (
        [1, 1], [0, 1], [0, 1], [[1, SINK], [0, 0]]
    )


@st.composite
def small_automata(draw):
    """An automaton of up to 6 states on a table of up to 4 rows and 4
    columns, whose rows and columns may repeat."""
    n = draw(st.integers(1, 6))
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    target = st.integers(SINK, n - 1)
    return BottomUpAutomaton(
        draw(st.lists(target, min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, n_cols - 1), min_size=n, max_size=n)),
        draw(st.lists(
            st.lists(target, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
        )),
    )


@settings(max_examples=300, deadline=None)
@given(small_automata())
def test_minimize_matches_the_reference_on_small_automata(aut):
    assert_minimize_matches_reference(aut)
