"""The order-bounded superposition search, the critical pairs of the
subterm index and the order-aware inter-reduction of ``complete``, checked
against the unbounded all-pairs search they replaced, which is kept here as
the reference, and against the invariants a completed system must
satisfy."""

import itertools
import math
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homoperad import completion, rewrite, terms
from homoperad.cli import load_rules_path
from homoperad.completion import Ambiguity, complete, overlaps
from homoperad.homalgebra import envelope_presentation, q_sl2
from homoperad.orders import LEX_MA
from homoperad.rewrite import (
    RewritingSystem, Rule, find_redexes, format_rules, is_irreducible, parse_rules
)
from homoperad.scalars import RatFunc
from homoperad.terms import HOM_SIGNATURE, Context, Signature, subterm_ends

ROOT = Path(__file__).resolve().parents[1]
RULE_FILES = {
    "homass-o12": (ROOT / "bench" / "data" / "homass-o12.rules", "lex_ma"),
    "assoc": (ROOT / "src" / "homoperad" / "data" / "assoc.rules", "right_comb"),
    "leibniz": (ROOT / "src" / "homoperad" / "data" / "leibniz.rules", "right_comb"),
}


# --- reference: the unbounded search, as it was before the bound -------------


def ref_merge(a, i, b, j, sig, ends_a, ends_b):
    ta, tb = a[i], b[j]
    if isinstance(ta, int) and isinstance(tb, int):
        return [ta], i + 1, j + 1
    if isinstance(ta, int):
        end = ends_b[j]
        return b[j:end], i + 1, end
    if isinstance(tb, int):
        end = ends_a[i]
        return a[i:end], end, j + 1
    if ta != tb:
        return None
    out = [ta]
    i, j = i + 1, j + 1
    for _ in range(sig.arity(ta)):
        got = ref_merge(a, i, b, j, sig, ends_a, ends_b)
        if got is None:
            return None
        frag, i, j = got
        out.extend(frag)
    return out, i, j


def ref_renumber(tokens, sig):
    k = itertools.count(1)
    word = tuple(next(k) if isinstance(t, int) else t for t in tokens)
    return Context(word, sig, sum(1 for t in word if isinstance(t, int)))


def ref_superpositions(s1, s2, sig, ends1, ends2):
    w1 = s1.lhs.word
    for p, tok in enumerate(w1):
        if isinstance(tok, int):
            continue
        got = ref_merge(w1, p, s2.lhs.word, 0, sig, ends1, ends2)
        if got is None:
            continue
        merged, _, jend = got
        if jend != len(s2.lhs.word):
            continue
        yield ref_renumber(w1[:p] + tuple(merged) + w1[ends1[p] :], sig), p


def ref_overlaps(s1, s2, sig):
    seen = {}
    e1, e2 = subterm_ends(s1.lhs.word, sig), subterm_ends(s2.lhs.word, sig)
    for a, b, ea, eb in ((s1, s2, e1, e2), (s2, s1, e2, e1)):
        for site, p in ref_superpositions(a, b, sig, ea, eb):
            if p == 0 and a.id == b.id:
                continue
            key = (site.word, frozenset({(a.id, 0), (b.id, p)}))
            if key not in seen:
                seen[key] = Ambiguity(site, a.id, b.id, p)
    return list(seen.values())


def ref_bounded(s1, s2, max_order=math.inf):
    """The reference with the filter the completion loop applied after it,
    over the signature of the rules' patterns, as ``overlaps`` is."""
    return [x for x in ref_overlaps(s1, s2, s1.lhs.sig) if x.order <= max_order]


def ref_ambiguities(rules):
    """Every critical ambiguity of a rule list, each rule paired with itself
    and the rules after it, as ``ambiguities`` once listed them."""
    return [amb for i, r1 in enumerate(rules) for r2 in rules[i:] for amb in overlaps(r1, r2)]


# --- inputs -------------------------------------------------------------------


@lru_cache(maxsize=None)
def rule_file(name):
    path, order = RULE_FILES[name]
    return load_rules_path(str(path), order)


def homass():
    sig, order, rules = load_rules_path(str(ROOT / "src/homoperad/data/homass.rules"), "lex_ma")
    return RewritingSystem(sig, order, rules)


def envelope():
    return envelope_presentation(q_sl2(RatFunc.q()), ["e", "f", "h"])


def from_text(text):
    return RewritingSystem(HOM_SIGNATURE, LEX_MA, parse_rules(text, HOM_SIGNATURE, LEX_MA))


def duplicate_input():
    """The hom-associativity rule, given twice."""
    return from_text("m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m 2 3 -> m m 1 2 a 3")


def reducible_input():
    """The hom-associativity rule, then a rule whose lhs holds its pattern."""
    return from_text("m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m a 2 m 3 4 -> m m 1 m 2 3 a a 4")


def subterm_order(word, sig, p):
    return sum(1 for t in word[p : subterm_ends(word, sig)[p]] if not isinstance(t, int))


@st.composite
def rule_pairs(draw):
    sig, _, rules = rule_file(draw(st.sampled_from(sorted(RULE_FILES))))
    return sig, draw(st.sampled_from(rules)), draw(st.sampled_from(rules))


# --- the bounded search ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(rule_pairs(), st.integers(3, 20))
def test_bounded_overlaps_equal_filtered_reference(pair, k):
    sig, a, b = pair
    assert overlaps(a, b) == ref_overlaps(a, b, sig)
    assert overlaps(a, b, max_order=k) == ref_bounded(a, b, k)


def merges_tried(a, b, k):
    """The (word, position, word) of every ``_merge`` call that
    ``overlaps(a, b, max_order=k)`` makes, each one from the root of its
    second term."""
    tried = []
    merge = completion._merge

    def recording(x, i, y):
        tried.append((x.word, i, y.word))
        return merge(x, i, y)

    completion._merge = recording
    try:
        overlaps(a, b, max_order=k)
    finally:
        completion._merge = merge
    return tried


def assert_merges_fit(tried, sig, k):
    for x, i, y in tried:
        n_x = sum(1 for t in x if not isinstance(t, int))
        n_y = sum(1 for t in y if not isinstance(t, int))
        assert n_x - subterm_order(x, sig, i) + n_y <= k


@settings(max_examples=150, deadline=None)
@given(rule_pairs(), st.integers(3, 20))
def test_no_merge_at_a_position_that_cannot_fit(pair, k):
    """Each merge of lhs(b) into lhs(a) is tried only at a position p of
    lhs(a) where order(a) - order(a|p) + order(b) <= k."""
    sig, a, b = pair
    assert_merges_fit(merges_tried(a, b, k), sig, k)


def test_merges_are_recorded():
    """The recorder above sees the merges: the hom-associativity rule
    against itself at k = 20 is tried at its inner ``m`` (position 3)."""
    system = homass()
    r = system.rules[0]
    tried = merges_tried(r, r, 20)
    assert 3 in [i for _, i, _ in tried]
    assert_merges_fit(tried, system.sig, 20)


def test_context_tables_are_subterm_ends_and_vertex_counts():
    for name in RULE_FILES:
        sig, _, rules = rule_file(name)
        for r in rules:
            word = r.lhs.word
            assert r.lhs.ends == subterm_ends(word, sig)
            assert r.lhs.sizes == [subterm_order(word, sig, p) for p in range(len(word))]


# --- complete with the bound ------------------------------------------------------


def rule_list(state):
    return [(r.id, r.lhs, r.rhs) for r in state.system]


@pytest.mark.parametrize(
    "make, max_order, homogeneous",
    [(homass, 13, True), (homass, 13, False), (envelope, 6, False)],
    ids=["homass-13", "homass-13-inhomogeneous-allowed", "envelope-6"],
)
def test_complete_equals_the_reference_search(monkeypatch, make, max_order, homogeneous):
    got = complete(make(), max_order, require_homogeneous=homogeneous)
    monkeypatch.setattr(completion, "overlaps", ref_bounded)
    want = complete(make(), max_order, require_homogeneous=homogeneous)
    assert got.status == want.status
    assert got.log == want.log
    assert rule_list(got) == rule_list(want)


@pytest.mark.parametrize(
    "make, max_order, homogeneous",
    [
        (homass, 13, True),
        (envelope, 6, False),
        (duplicate_input, 6, True),
        (reducible_input, 6, True),
    ],
    ids=["homass-13", "envelope-6", "duplicate-input-6", "reducible-input-6"],
)
def test_completed_system_is_inter_reduced(make, max_order, homogeneous):
    """Every lhs is irreducible modulo the other rules and every rhs modulo
    all of them, so the order-aware skip missed no reduction."""
    state = complete(make(), max_order, require_homogeneous=homogeneous)
    rules = state.system.rules
    for r in rules:
        others = RewritingSystem(state.system.sig, state.system.order,
                                 [s for s in rules if s.id != r.id])
        assert not find_redexes(r.lhs, others), r.id
        assert is_irreducible(r.rhs, state.system), r.id


def completed_text(system, max_order):
    """The completed rules as ``complete --out`` writes them."""
    rules = complete(system, max_order).system
    return format_rules(sorted(rules, key=lambda r: (r.order, terms.sort_key(r.lhs))), system.sig)


@st.composite
def shuffled_order_12_rules(draw):
    """The order-12 homass rules with up to five of them given twice, in
    any order."""
    lines = RULE_FILES["homass-o12"][0].read_text().splitlines()
    copies = draw(st.lists(st.sampled_from(lines), max_size=5))
    return "\n".join(draw(st.permutations(lines + copies)))


@settings(max_examples=30, deadline=None)
@given(shuffled_order_12_rules())
def test_shuffled_and_repeated_input_completes_as_homass(text):
    """Each input rule is adjoined as a derived one is, so neither the
    order of the input rules nor a repeated one changes what completes."""
    assert completed_text(from_text(text), 12) == completed_text(homass(), 12)


def test_complete_mints_every_rule_id():
    """An input rule keeps no id of its own: one named ``r2``, the first id
    minted for a derived rule, no longer clashes, and an envelope's named
    rules are numbered too."""
    (rule,) = homass().rules
    named_r2 = RewritingSystem(HOM_SIGNATURE, LEX_MA, [Rule("r2", rule.lhs, rule.rhs)])
    state = complete(named_r2, 9)
    assert state.status == "complete"
    assert rule_list(state) == rule_list(complete(homass(), 9))
    state = complete(envelope(), 3, require_homogeneous=False)
    assert [r.id for r in state.system] == [f"r{k}" for k in range(1, 8)]


def test_inter_reduction_renormalizes_an_rhs_of_equal_order():
    """String rewriting over unary symbols: the ambiguity d d d gives
    c b b -> b b d, whose lhs has the order of r1's rhs c b b, so r1's rhs
    is re-normalized and r1 moves to the end of the system."""
    sig = Signature.parse("op b 1\nop c 1\nop d 1")
    rules = parse_rules(
        "d b b 1 -> c b b 1\nd d 1 -> b b 1\nc d c 1 -> b d b 1", sig, LEX_MA
    )
    state = complete(RewritingSystem(sig, LEX_MA, rules), max_order=3)
    assert [f"{r.id}: {r}" for r in state.system] == [
        "r2: d d 1 -> b b 1",
        "r3: c d c 1 -> b d b 1",
        "r4: c b b 1 -> b b d 1",
        "r1: d b b 1 -> b b d 1",
    ]


def test_complete_builds_few_contexts(monkeypatch):
    """Sites over the bound are never renumbered into a Context: about 800
    Contexts to order 13, where building every site and filtering after
    made about 7,700."""
    built = 0
    init = terms.Context.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    system = homass()
    monkeypatch.setattr(terms.Context, "__init__", counting)
    state = complete(system, max_order=13)
    assert state.census() == {
        3: 1, 5: 1, 7: 1, 8: 2, 9: 1, 10: 4, 11: 7, 12: 12, 13: 19,
    }
    assert built <= 1000


def test_complete_builds_few_end_tables(end_tables_built):
    """Each term keeps its end table, so inter-reduction does not rebuild
    the tables of the old lhs and rhs terms for every new rule: 633 tables
    to order 13, where rebuilding them made 1,304."""
    complete(homass(), max_order=13)
    assert len(end_tables_built) <= 700


# --- the subterm index: partners and inter-reduction targets ----------------------


def pair_bound(rules):
    """The bound ``ambiguities`` passes: two patterns share a vertex, so no
    site of two rules reaches twice the largest pattern."""
    return 2 * max((r.order for r in rules), default=0)


def systems_with_prefixes():
    """(system, max_order) over a prefix of the order-12 homass system, at a
    bound of 8 to 16 or at the bound ``ambiguities`` passes."""
    sig, order, rules = rule_file("homass-o12")
    return st.builds(
        lambda n, k: (RewritingSystem(sig, order, rules[:n]), k or pair_bound(rules[:n])),
        st.integers(1, len(rules)),
        st.integers(8, 16) | st.none(),
    )


def index_over(system):
    """A subterm index that holds the rules of ``system``, added in turn."""
    index = completion._SubtermIndex(system.sig, system.order)
    for rule in system:
        index.add(rule)
    return index


def assert_index_is_exact(system, max_order):
    """For every rule as the newest: the partners are the rules with a
    nonempty ``overlaps`` and the rule itself, and the instance hits are
    the rules that one-rule ``find_redexes`` finds in an lhs or else in an
    rhs monomial."""
    sig = system.sig
    index = index_over(system)
    for new in system:
        want = {o.id for o in system if overlaps(new, o, max_order)} | {new.id}
        assert index.partners(new, max_order - new.order) == want
        one = RewritingSystem(sig, system.order, [new])
        in_lhs = {o.id: bool(find_redexes(o.lhs, one)) for o in system}
        in_rhs = {o.id: any(find_redexes(m, one) for m in o.rhs.support()) for o in system}
        want = {rid: hit for rid, hit in in_lhs.items() if hit or in_rhs[rid]}
        assert index.instances(new.lhs) == want


@settings(max_examples=40, deadline=None)
@given(systems_with_prefixes())
def test_index_is_exact_on_homass_prefixes(case):
    assert_index_is_exact(*case)


@pytest.mark.parametrize("name", ["assoc", "leibniz", "envelope"])
@pytest.mark.parametrize("max_order", [3, 5, 8, "pair-bound"])
def test_index_is_exact_on_other_signatures(name, max_order):
    """Non-hom signatures, and the constants of an envelope, whose terms
    end without a box."""
    if name == "envelope":
        system = envelope()
    else:
        sig, order, rules = rule_file(name)
        system = RewritingSystem(sig, order, rules)
    if max_order == "pair-bound":
        max_order = pair_bound(system)
    assert_index_is_exact(system, max_order)


def test_instances_use_all_the_room_the_largest_monomial_leaves():
    """``m a 1 2`` occurs in ``m a 1 m 2 3`` only at its root, where its
    second box binds the one vertex of ``m 2 3``: all the room that the
    largest monomial held, of three vertices, leaves the two-vertex
    pattern.  A removed rule does not lower that room."""
    sig = HOM_SIGNATURE
    old, new = parse_rules("m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 2 -> 0", sig, LEX_MA)
    system = RewritingSystem(sig, LEX_MA, [old, new])
    index = index_over(system)
    assert index.largest == 3
    assert index.instances(new.lhs) == {old.id: True, new.id: True}
    index.remove(old)
    assert index.largest == 3
    assert index.instances(new.lhs) == {new.id: True}


def index_entries(trie, sig):
    """(path, rule id, outside) of every leaf entry of a subterm trie."""
    out = set()
    stack = [(trie, (), 1)]
    while stack:
        node, path, need = stack.pop()
        if not need:
            out.update((path, rid, outside) for rid, outside in node.items())
            continue
        for key, child in node.items():
            left = need - 1 if key == rewrite._WILD else need + sig.arity(key) - 1
            stack.append((child, path + (key,), left))
    return out


def test_index_remove_and_add_leave_the_index_of_the_rules_present():
    sig, order, rules = rule_file("homass-o12")
    system = RewritingSystem(sig, order, rules)
    index = index_over(system)
    for r in rules[::2]:
        index.remove(r)
    fresh = index_over(RewritingSystem(sig, order, rules[1::2]))
    assert index_entries(index.trie, sig) == index_entries(fresh.trie, sig)
    for r in rules[::2]:
        index.add(r)
    fresh = index_over(RewritingSystem(sig, order, rules))
    assert index_entries(index.trie, sig) == index_entries(fresh.trie, sig)
    assert index_entries(index.trie, sig)


# --- critical pairs: one enumerator for complete and ambiguities -------------------


@st.composite
def rule_systems(draw):
    """A prefix of the order-12 homass rules in file order or shuffled, or
    the assoc, leibniz or qsl2 envelope rules, as a system."""
    name = draw(st.sampled_from(["homass-o12", "assoc", "leibniz", "envelope"]))
    if name == "envelope":
        return envelope()
    sig, order, rules = rule_file(name)
    if name == "homass-o12":
        rules = rules[: draw(st.integers(1, len(rules)))]
        if draw(st.booleans()):
            rules = draw(st.permutations(rules))
    return RewritingSystem(sig, order, rules)


def amb_keys(ambs):
    return Counter((a.site.word, a.rule1, a.rule2, a.pos2) for a in ambs)


@settings(max_examples=60, deadline=None)
@given(rule_systems())
def test_critical_pairs_at_the_pair_bound_equal_all_pairs(system):
    """At the bound ``ambiguities`` passes, the index finds every
    ambiguity of the reference, and a root site of two rules names the
    earlier one first."""
    got = [amb for amb, _ in completion.ambiguities(system)]
    assert amb_keys(got) == amb_keys(ref_ambiguities(system.rules))


def test_the_order_12_system_resolves_every_ambiguity_of_order_12():
    """A confluence re-check: of the 2,401 ambiguities of the completed
    order-12 homass rules, the 68 of order <= 12 all resolve."""
    listed = list(completion.ambiguities(RewritingSystem(*rule_file("homass-o12"))))
    diffs = [diff for amb, diff in listed if amb.order <= 12]
    assert (len(listed), len(diffs), any(diffs)) == (2401, 68, False)


@settings(max_examples=60, deadline=None)
@given(rule_systems(), st.integers(8, 16))
def test_bounded_critical_pairs_equal_the_cut_reference(system, max_order):
    index = completion._SubtermIndex(system.sig, system.order)
    got = []
    for r in reversed(system.rules):  # each rule pairs with those after it, itself included
        index.add(r)
        got += index.critical_pairs(r, max_order)
    want = [a for a in ref_ambiguities(system.rules) if a.order <= max_order]
    assert amb_keys(got) == amb_keys(want)


@pytest.mark.parametrize("name", ["homass-o12", "assoc", "leibniz"])
def test_bounded_ambiguities_are_the_unbounded_listing_cut_at_the_bound(name):
    """``ambiguities(S, N)`` lists the ambiguities of order <= N of the
    unbounded listing, in its order and with its differences."""
    system = RewritingSystem(*rule_file(name))
    listed = list(completion.ambiguities(system))
    for max_order in range(14):
        cut = [(amb, diff) for amb, diff in listed if amb.order <= max_order]
        assert list(completion.ambiguities(system, max_order)) == cut
