"""The subset construction by least degree and the degree-by-degree series
count, checked against the frontier-and-refill construction, the fixed-point
solve and the one-convolution-per-pair solve they replaced, which are kept
here as references.  The reference construction publishes its states as
sorted tuples of grammar states, with ``f_m`` keyed by pairs of them, and
builds every subset; the construction numbers only the live ones, without
grammar state 0, so it is compared with the references' live part through
the subset that each state number stands for."""

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from homoperad.automata import (
    LEAF,
    SINK,
    BottomUpAutomaton,
    determinize,
    grammar_from_rules,
)
from homoperad.completion import complete
from homoperad.orders import LEX_MA
from homoperad.rewrite import RewritingSystem, parse_rules
from homoperad.series import BivariateSeries, hilbert_series, solve_series
from homoperad.terms import HOM_SIGNATURE, sort_key
from test_automata import assert_one_m_production_per_state

RULE1 = "m a 1 m 2 3 -> m m 1 2 a 3"
RULE2 = "m m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4"


# --- references -------------------------------------------------------------


@dataclass(frozen=True)
class TupleAutomaton:
    """States are sorted tuples of grammar states; a transition missing
    from ``f_a`` or ``f_m`` goes to the sink."""

    states: tuple
    leaf_state: tuple
    f_a: dict  # state -> state
    f_m: dict  # (state, state) -> state


def ref_determinize(g) -> TupleAutomaton:
    a_prods, m_prods, leaf = {}, {}, set()
    for b, ps in g.productions.items():
        for p in ps:
            if p == LEAF:
                leaf.add(b)
            elif p[0] == "a":
                a_prods.setdefault(p[1], set()).add(b)
            else:
                m_prods.setdefault((p[1], p[2]), set()).add(b)

    def subset_a(s):
        out = set()
        for c in s:
            out |= a_prods.get(c, set())
        return tuple(sorted(out))

    def subset_m(s, t):
        out = set()
        for c in s:
            for d in t:
                out |= m_prods.get((c, d), set())
        return tuple(sorted(out))

    leaf_state = tuple(sorted(leaf))
    states, seen, f_a, f_m = [leaf_state], {leaf_state}, {}, {}
    frontier = [leaf_state]
    while frontier:
        new = []
        for s in frontier:
            targets = [subset_a(s)]
            for t in states:
                targets.append(subset_m(s, t))
                if t != s:
                    targets.append(subset_m(t, s))
            for u in targets:
                if u not in seen:
                    seen.add(u)
                    states.append(u)
                    new.append(u)
        for s in states:
            f_a[s] = subset_a(s)
            for t in states:
                f_m[(s, t)] = subset_m(s, t)
        frontier = new
    return TupleAutomaton(tuple(states), leaf_state, f_a, f_m)


def ref_solve_series(aut: TupleAutomaton, D: int) -> dict:
    a_into = {b: [] for b in aut.states}
    m_into = {b: [] for b in aut.states}
    for c, b in aut.f_a.items():
        a_into[b].append(c)
    for (c, d), b in aut.f_m.items():
        m_into[b].append((c, d))
    a = BivariateSeries(D, {(1, 0): 1})
    m = BivariateSeries(D, {(0, 1): 1})
    base = {b: BivariateSeries(D, {(0, 0): int(b == aut.leaf_state)}) for b in aut.states}
    g = {b: BivariateSeries(D) for b in aut.states}
    for _ in range(D + 1):
        new = {}
        for b in aut.states:
            acc = base[b]
            for c in a_into[b]:
                acc = acc + g[c] * a
            for c, d in m_into[b]:
                acc = acc + g[c] * g[d] * m
            new[b] = acc
        g = new
    return g


def ref_pair_solve(aut: BottomUpAutomaton, D: int) -> list:
    """Degree by degree, with one convolution per m-transition, over every
    state and pair of states."""
    g = [[[0] * (n + 1) for n in range(D + 1)] for _ in aut.states]
    g[0][0][0] = 1
    for n in range(1, D + 1):
        for c, b in enumerate(aut.f_a):
            if b == SINK:
                continue
            row = g[b][n]
            for i, k in enumerate(g[c][n - 1]):
                row[i + 1] += k
        for c in aut.states:
            targets = aut.table[aut.left[c]]
            for d in aut.states:
                # an automaton built with a degree bound has no entry for a
                # pair whose least degrees sum past it: it adds nothing here
                r = aut.right[d]
                b = targets[r] if r < len(targets) else SINK
                if b == SINK:
                    continue
                row = g[b][n]
                for n1 in range(n):
                    right = g[d][n - 1 - n1]
                    for i1, k1 in enumerate(g[c][n1]):
                        if k1:
                            for i2, k2 in enumerate(right):
                                row[i1 + i2] += k1 * k2
    return [
        BivariateSeries(
            D, {(i, n - i): k for n, row in enumerate(rows) for i, k in enumerate(row)}
        )
        for rows in g
    ]


# --- rule lists -------------------------------------------------------------


@lru_cache(maxsize=None)
def order_ten_rules():
    """The homass system completed to order 10, listed as `complete --out`
    writes it."""
    system = RewritingSystem(
        HOM_SIGNATURE, LEX_MA, parse_rules(RULE1, HOM_SIGNATURE, LEX_MA)
    )
    state = complete(system, max_order=10)
    assert state.status == "complete"
    return tuple(sorted(state.system, key=lambda r: (r.order, sort_key(r.lhs))))


def rule_list(name):
    if name == "order10":
        return order_ten_rules()
    return tuple(parse_rules(RULE1 + "\n" + RULE2, HOM_SIGNATURE, LEX_MA))


PREFIXES = [("rule1-rule2", k) for k in range(3)] + [("order10", k) for k in range(1, 11)]


@lru_cache(maxsize=None)
def automata(rules):
    g = grammar_from_rules(rules)
    return determinize(g), ref_determinize(g)


# --- checks -----------------------------------------------------------------


def test_order_ten_list_has_ten_rules():
    assert len(order_ten_rules()) == 10


@pytest.mark.parametrize("name,k", PREFIXES)
def test_every_state_but_zero_has_at_most_one_m_production(name, k):
    assert_one_m_production_per_state(grammar_from_rules(rule_list(name)[:k]))


def live(aut: TupleAutomaton) -> TupleAutomaton:
    """The states without grammar state 0, and the transitions among them."""
    states = tuple(s for s in aut.states if 0 not in s)
    f_a = {c: b for c, b in aut.f_a.items() if c in states and b in states}
    f_m = {
        (c, d): b
        for (c, d), b in aut.f_m.items()
        if c in states and d in states and b in states
    }
    return TupleAutomaton(states, aut.leaf_state, f_a, f_m)


def subsets(aut: BottomUpAutomaton, ref: TupleAutomaton) -> list:
    """The subset of ``ref`` that each state number of ``aut`` stands for:
    the leaf's state 0 is ``ref``'s leaf, and a transition of ``aut`` into
    a state names the subset that ``ref`` reaches from the same sources."""
    sub = {0: ref.leaf_state}
    while len(sub) < len(aut.states):
        size = len(sub)
        for c, s in list(sub.items()):
            moves = [(aut.f_a[c], ref.f_a.get(s))]
            for d, t in list(sub.items()):
                moves.append((aut.f_m(c, d), ref.f_m.get((s, t))))
                moves.append((aut.f_m(d, c), ref.f_m.get((t, s))))
            for b, u in moves:
                if b != SINK:
                    sub.setdefault(b, u)
        assert len(sub) > size, "a state that no transition reaches"
    return [sub[k] for k in aut.states]


@pytest.mark.parametrize("name,k", PREFIXES)
def test_determinize_matches_reference(name, k):
    got, ref = automata(rule_list(name)[:k])
    ref = live(ref)
    sub = subsets(got, ref)
    # the numbering is one to one onto the live subsets, leaf first
    assert len(got.states) == len(ref.states)
    assert set(sub) == set(ref.states)
    assert sub[0] == ref.leaf_state
    # and carries every transition, the sink to a missing entry
    named = sub + [None]  # named[SINK] is None
    for c in got.states:
        assert named[got.f_a[c]] == ref.f_a.get(sub[c])
        for d in got.states:
            assert named[got.f_m(c, d)] == ref.f_m.get((sub[c], sub[d]))


@pytest.mark.parametrize("name,k", PREFIXES)
def test_solve_series_matches_reference(name, k):
    aut, ref = automata(rule_list(name)[:k])
    want = ref_solve_series(ref, 9)
    assert solve_series(aut, 9) == [want[s] for s in subsets(aut, ref)]


def test_solve_series_degree_zero_is_the_leaf():
    aut = determinize(grammar_from_rules(parse_rules(RULE1, HOM_SIGNATURE, LEX_MA)))
    g = solve_series(aut, 0)
    assert g[0] == BivariateSeries(0, {(0, 0): 1})
    assert all(not g[b].coeffs for b in aut.states if b != 0)


@pytest.mark.parametrize("name,k", PREFIXES)
def test_solve_series_matches_per_pair_solve(name, k):
    aut, _ = automata(rule_list(name)[:k])
    assert solve_series(aut, 10) == ref_pair_solve(aut, 10)


def test_solve_series_matches_per_pair_solve_on_the_order_twelve_system():
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o12.rules"
    rules = parse_rules(path.read_text(), HOM_SIGNATURE, LEX_MA)
    aut = determinize(grammar_from_rules(rules))
    assert solve_series(aut, 10) == ref_pair_solve(aut, 10)


def assert_bounded_counts_match_the_state_series(rules):
    """For each D <= 10, the count on the automaton bounded by D is the sum
    of the state series of the whole automaton."""
    g = solve_series(determinize(grammar_from_rules(rules)), 10)
    for D in range(11):
        want = sum((BivariateSeries(D, x.coeffs) for x in g), BivariateSeries(D))
        assert hilbert_series(rules, D) == want


@pytest.mark.parametrize("name,k", PREFIXES)
def test_bounded_count_is_the_sum_of_the_state_series(name, k):
    assert_bounded_counts_match_the_state_series(rule_list(name)[:k])


def test_bounded_count_is_the_sum_of_the_state_series_on_the_order_twelve_system():
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o12.rules"
    assert_bounded_counts_match_the_state_series(
        parse_rules(path.read_text(), HOM_SIGNATURE, LEX_MA)
    )


# --- the solve's windows ----------------------------------------------------

ORDER_TWELVE = Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o12.rules"


@lru_cache(maxsize=None)
def order_twelve_rules():
    return tuple(parse_rules(ORDER_TWELVE.read_text(), HOM_SIGNATURE, LEX_MA))


@st.composite
def order_twelve_prefixes(draw):
    """The first rules of the order-12 system, in file order or shuffled."""
    rules = order_twelve_rules()
    if draw(st.booleans()):
        rules = tuple(draw(st.permutations(rules)))
    return rules[: draw(st.integers(1, len(rules)))]


def window_shapes(aut: BottomUpAutomaton, D: int) -> set:
    """Which of the shapes that the solve's windows treat apart occur in
    the count to degree D: a row or a column of several states, a (column,
    target) group of several rows, and a group whose column is reached
    after its first row, or before it.  Least degrees are read off the
    reference series."""
    series = ref_pair_solve(aut, D)
    reached = [c for c in aut.states if series[c].coeffs]
    row_deg, col_deg = {}, {}
    for c in reached:
        degree = min(i + j for i, j in series[c].coeffs)
        row_deg.setdefault(aut.left[c], degree)
        col_deg.setdefault(aut.right[c], degree)
    shapes = set()
    if len(row_deg) < len(reached):
        shapes.add("row of several states")
    if len(col_deg) < len(reached):
        shapes.add("column of several states")
    groups = {}
    for l, targets in enumerate(aut.table):
        for r, b in enumerate(targets):
            if b != SINK and row_deg.get(l, D) + col_deg.get(r, D) < D:
                groups.setdefault((r, b), []).append(l)
    for (r, _), rows in groups.items():
        if len(rows) > 1:
            shapes.add("group of several rows")
        if col_deg[r] > row_deg[rows[0]]:
            shapes.add("column reached after its first row")
        if col_deg[r] < row_deg[rows[0]]:
            shapes.add("first row reached after its column")
    return shapes


def test_the_order_twelve_system_has_every_window_shape():
    aut = determinize(grammar_from_rules(order_twelve_rules()), 11)
    assert window_shapes(aut, 11) == {
        "row of several states",
        "column of several states",
        "group of several rows",
        "column reached after its first row",
        "first row reached after its column",
    }


@settings(max_examples=12, deadline=None)
@given(order_twelve_prefixes())
@example(order_twelve_rules())
def test_solve_series_matches_per_pair_solve_at_every_degree(rules):
    """The solve starts each row, column and group at its least degree and
    convolves only where both factors can be nonzero; at every degree d <=
    11 it must still agree with one convolution per pair, on the automaton
    bounded at d and on the whole automaton asked at d."""
    g = grammar_from_rules(rules)
    whole = determinize(g)
    want = ref_pair_solve(whole, 11)
    for d in range(12):
        bounded = determinize(g, d)
        assert solve_series(bounded, d) == ref_pair_solve(bounded, d)
        assert solve_series(whole, d) == [BivariateSeries(d, x.coeffs) for x in want]
