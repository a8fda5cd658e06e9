import math
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homoperad.automata import LEAF, SINK, BottomUpAutomaton, determinize, grammar_from_rules
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


# (rules file, live states, table rows, table columns): m(c, d) reads only
# the left mask of c and the right mask of d, so the table has one row per
# distinct left mask and one column per distinct right mask
COMPRESSION = [
    ("bench/data/homass-o10.rules", 34, 20, 19),
    ("bench/data/homass-o12.rules", 208, 120, 66),
]


@pytest.mark.parametrize("path, n, n_rows, n_cols", COMPRESSION)
def test_pair_table_has_a_row_per_left_mask_and_a_column_per_right_mask(
    path, n, n_rows, n_cols
):
    _, rs = read_rules((ROOT / path).read_text(), LEX_MA)
    aut = determinize(grammar_from_rules(rs))
    assert len(aut.states) == n
    assert len(aut.table) == n_rows
    assert all(len(row) == n_cols for row in aut.table)
    assert sorted(set(aut.left)) == list(range(n_rows))
    assert sorted(set(aut.right)) == list(range(n_cols))


def test_order_fifteen_automaton_and_its_degree_fifteen_part():
    """A count to degree 15 reads 3,186 of the 8,094 live states, on 2,223
    of the 6,152 rows and 796 of the 830 columns."""
    system = RewritingSystem(HOM_SIGNATURE, LEX_MA, rules(RULE1))
    state = complete(system, max_order=15)
    g = grammar_from_rules(state.system.rules)
    aut = determinize(g)
    assert (len(aut.states), len(aut.table), max(aut.right) + 1) == (8094, 6152, 830)
    small = determinize(g, 15)
    assert (len(small.states), len(small.table), max(small.right) + 1) == (3186, 2223, 796)


def ref_determinize(g) -> BottomUpAutomaton:
    """The subset construction over a worklist, with one row per distinct
    left mask, as ``determinize`` once built it: states, rows and columns
    are numbered in the order the worklist reaches them, not by degree."""
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


def renaming(got, want):
    """The state of ``want`` that each state of ``got`` stands for, found
    by making the same moves in both from the leaf's state."""
    to, reached = {0: 0}, [0]
    for c in reached:
        moves = [(got.f_a[c], want.f_a[to[c]])]
        for d in reached:
            moves.append((got.f_m(c, d), want.f_m(to[c], to[d])))
            moves.append((got.f_m(d, c), want.f_m(to[d], to[c])))
        for b, b2 in moves:
            if b != SINK and b not in to:
                to[b] = b2
                reached.append(b)
    return [to[c] for c in got.states]


@settings(max_examples=300, deadline=None)
@given(order_twelve_subsets())
def test_determinize_matches_the_left_mask_reference_up_to_renaming(rs):
    g = grammar_from_rules(rs)
    assert_no_shared_production(g)
    got, want = determinize(g), ref_determinize(g)
    # the same live states, numbered by least degree in place of worklist
    # order, with the same transitions
    to = renaming(got, want) + [SINK]  # to[SINK] is SINK
    assert sorted(to[:-1]) == list(want.states)
    assert [to[b] for b in got.f_a] == [want.f_a[to[c]] for c in got.states]
    assert [[to[got.f_m(c, d)] for d in got.states] for c in got.states] == [
        [want.f_m(to[c], to[d]) for d in got.states] for c in got.states
    ]
    # and the same rows and columns, every row full
    assert len(got.table) == len(want.table)
    assert {len(row) for row in got.table} == {len(want.table[0])}


def least_degrees(aut):
    """The least number of vertices of a monomial reaching each state,
    found by relaxing every transition until nothing changes."""
    deg = [0] + [math.inf] * (len(aut.states) - 1)
    changed = True
    while changed:
        changed = False
        moves = [(aut.f_a[c], deg[c] + 1) for c in aut.states]
        moves += [(aut.f_m(c, d), deg[c] + deg[d] + 1) for c in aut.states for d in aut.states]
        for b, k in moves:
            if b != SINK and k < deg[b]:
                deg[b], changed = k, True
    return deg


@lru_cache(maxsize=None)
def order_twelve():
    """The order-12 grammar, its whole automaton and its states' least degrees."""
    g = grammar_from_rules(order_twelve_rules())
    aut = determinize(g)
    return g, aut, least_degrees(aut)


def test_bounded_automaton_holds_the_states_of_at_most_D_vertices():
    g, aut, deg = order_twelve()
    sizes = [len(determinize(g, D).states) for D in range(10)]
    assert sizes == [1, 3, 9, 18, 30, 42, 55, 71, 96, 124]
    assert sizes == [sum(k <= D for k in deg) for D in range(10)]
    # the monomials themselves, to 7 vertices
    for D in range(8):
        reached = {
            aut.run(c.word) for n in range(D + 1) for i in range(n + 1)
            for c in enumerate_plane(i, n - i)
        }
        assert len(reached - {SINK}) == sizes[D]


@pytest.mark.parametrize("D", range(10))
def test_bounded_table_pairs_exactly_the_degrees_below_D(D):
    """The bounded automaton is the first states of the whole one, in
    order of least degree, with the a-moves of those below D and the table
    entries whose row and column are first reached at degrees summing to
    D - 1 or less."""
    g, aut, deg = order_twelve()
    small = determinize(g, D)
    n = len(small.states)
    assert deg[:n] == sorted(deg[:n]) and max(deg[:n]) <= D < min(deg[n:], default=math.inf)
    assert small.left == aut.left[:n] and small.right == aut.right[:n]
    assert small.f_a == aut.f_a[: sum(k < D for k in deg)]
    row_deg, col_deg = {}, {}
    for c in small.states:
        row_deg.setdefault(small.left[c], deg[c])
        col_deg.setdefault(small.right[c], deg[c])
    for i, row in enumerate(small.table):
        assert row == aut.table[i][: len(row)]
        assert len(row) == sum(row_deg[i] + k <= D - 1 for k in col_deg.values())


def test_bounded_automaton_runs_the_words_of_at_most_D_vertices_as_the_whole_one():
    for text in SYSTEMS:
        g = grammar_from_rules(rules(text))
        aut = determinize(g)
        for D in (0, 3, 7):
            small = determinize(g, D)
            for n in range(D + 1):
                for i in range(n + 1):
                    for c in enumerate_plane(i, n - i):
                        assert small.run(c.word) == aut.run(c.word)


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
