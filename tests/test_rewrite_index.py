"""The trie-indexed redex search and the memoized normal form, checked
against the by-root scan and the reduction loop they replaced, which are
kept here as references; and the system edited in place, checked against
one built afresh from the same rules."""

import importlib.resources
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from homoperad import rewrite, terms
from homoperad.completion import complete
from homoperad.homalgebra import envelope_presentation, q_sl2
from homoperad.linear import LinComb
from homoperad.orders import GT, LEX_MA, RIGHT_COMB
from homoperad.rewrite import (
    Redex,
    Rule,
    RuleError,
    RewritingSystem,
    _pick_greatest,
    apply_redex,
    find_redexes,
    normal_form,
    parse_rules,
    read_rules,
)
from homoperad.scalars import RatFunc
from homoperad.terms import (
    Context,
    HOM_SIGNATURE,
    Permutation,
    Signature,
    TermError,
    act,
    enumerate_plane,
    renumber,
)


# --- references -------------------------------------------------------------


def ref_subterm_end(t: Context, start: int) -> int:
    need, i = 1, start
    while need:
        tok = t.word[i]
        need += (0 if isinstance(tok, int) else t.sig.arity(tok)) - 1
        i += 1
    return i


def ref_match_at(lhs: Context, t: Context, pos: int):
    bindings = [None] * lhs.arity
    j = pos
    for tok in lhs.word:
        if isinstance(tok, int):
            end = ref_subterm_end(t, j)
            bindings[tok - 1] = t.word[j:end]
            j = end
        else:
            if j >= len(t.word) or t.word[j] != tok:
                return None
            j += 1
    return pos, j, tuple(bindings)


def ref_find_redexes(t: Context, sys: RewritingSystem) -> list[Redex]:
    by_root = {}
    for r in sys.rules:
        by_root.setdefault(r.lhs.word[0], []).append(r)
    out = []
    for pos, tok in enumerate(t.word):
        if isinstance(tok, int):
            continue
        for r in by_root.get(tok, ()):
            if ref_match_at(r.lhs, t, pos) is not None:
                out.append(Redex(r, pos))
    out.sort(key=lambda rd: (rd.position, rd.rule.id))
    return out


def ref_reduct(t: Context, rule: Rule, pos: int) -> LinComb:
    """The rule's replacement spliced into t at pos, with the fragments
    that ``ref_match_at`` binds to its boxes."""
    _, end, bindings = ref_match_at(rule.lhs, t, pos)
    out = LinComb(t.arity)
    for mono, coeff in rule.rhs.terms.items():
        mid = []
        for tok in mono.word:
            mid.extend(bindings[tok - 1] if isinstance(tok, int) else (tok,))
        out.add_term(Context(t.word[:pos] + tuple(mid) + t.word[end:], t.sig, t.arity), coeff)
    return out


def ref_word_key(word):
    return tuple((0, t, "") if isinstance(t, int) else (1, 0, t) for t in word)


def ref_pick_greatest(monos, order):
    maximal = [
        m
        for m in monos
        if not any(order.compare(o, m) == GT for o in monos if o is not m)
    ]
    if len(maximal) == 1:
        return maximal[0]
    return min(maximal, key=lambda m: ref_word_key(m.word))


def ref_normal_form(x: LinComb, sys: RewritingSystem, rng=None):
    """One fresh redex search per monomial per step, as before the memo."""
    while True:
        if rng is None:
            reducible = {}
            for mono in x.support():
                reds = ref_find_redexes(mono, sys)
                if reds:
                    reducible[mono] = reds[0]
            if not reducible:
                return x
            mono = ref_pick_greatest(list(reducible), sys.order)
            red = reducible[mono]
        else:
            choices = [(m, r) for m in x.support() for r in ref_find_redexes(m, sys)]
            if not choices:
                return x
            mono, red = choices[rng.randrange(len(choices))]
        replaced = apply_redex(mono, red).scale(x.terms[mono])
        rest = LinComb(x.arity)
        rest.terms = {m: c for m, c in x.terms.items() if m != mono}
        x = rest + replaced


# --- systems ----------------------------------------------------------------


def data_text(name):
    return importlib.resources.files("homoperad").joinpath("data", name).read_text()


def rules_file_system(name, order):
    sig, rules = read_rules(data_text(name), order)
    return RewritingSystem(sig, order, rules)


@lru_cache(maxsize=None)
def homass12():
    state = complete(rules_file_system("homass.rules", LEX_MA), 12)
    assert state.status == "complete"
    return state.system


@lru_cache(maxsize=None)
def assoc():
    return rules_file_system("assoc.rules", RIGHT_COMB)


@lru_cache(maxsize=None)
def leibniz():
    return rules_file_system("leibniz.rules", RIGHT_COMB)


@lru_cache(maxsize=None)
def envelope():
    return envelope_presentation(q_sl2(RatFunc.q()), ["e", "f", "h"])


SYSTEMS = {"homass12": homass12, "assoc": assoc, "leibniz": leibniz, "envelope": envelope}


# --- random plane monomials ---------------------------------------------------


@st.composite
def plane_words(draw, sig: Signature, max_ops: int, boxes: bool = True):
    """A plane Polish word over ``sig``: a top-down fill of open slots,
    each an operation while the budget lasts, else a leaf (a constant or
    the next box)."""
    ops = [n for n, a in sig.symbols if a > 0]
    consts = [n for n, a in sig.symbols if a == 0]
    leaves = consts + ([0] if boxes else [])
    budget = draw(st.integers(1, max_ops))
    word, need = [], 1
    while need:
        if budget and draw(st.integers(0, 3)):
            sym = draw(st.sampled_from(ops))
            budget -= 1
            need += sig.arity(sym) - 1
        else:
            sym = draw(st.sampled_from(leaves))
            need -= 1
        word.append(sym)
    k = iter(range(1, len(word) + 1))
    return Context(tuple(next(k) if t == 0 else t for t in word), sig, word.count(0))


@st.composite
def with_embedded_lhs(draw, name: str, max_ops: int):
    """A random monomial with a random lhs of the system grafted into one
    of its boxes, so that deep patterns match often."""
    sys_ = SYSTEMS[name]()
    host = draw(plane_words(sys_.sig, max_ops))
    lhs = draw(st.sampled_from(sys_.rules)).lhs
    if not host.arity:
        return host
    slot = draw(st.integers(1, host.arity))
    word = []
    for t in host.word:
        if t == slot:
            word.extend(lhs.word)
        else:
            word.append(t)
    return renumber(word, sys_.sig)


def monomials(name, max_ops):
    return st.deferred(
        lambda: st.one_of(
            plane_words(SYSTEMS[name]().sig, max_ops), with_embedded_lhs(name, max_ops)
        )
    )


# --- find_redexes -------------------------------------------------------------


def check_search(t, sys_):
    """The trie search equals the by-root scan; with ``first`` it returns
    the head run of that list, the redexes at its least position."""
    full = find_redexes(t, sys_)
    assert full == ref_find_redexes(t, sys_)
    first = [red for red in full if red.position == full[0].position]
    assert find_redexes(t, sys_, first=True) == first


@settings(max_examples=150, deadline=None)
@given(monomials("homass12", 16))
def test_trie_equals_scan_homass12(t):
    check_search(t, homass12())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 29), monomials("homass12", 16))
def test_trie_equals_scan_on_homass12_prefixes(n, t):
    full = homass12()
    check_search(t, RewritingSystem(full.sig, full.order, full.rules[:n]))


@settings(max_examples=100, deadline=None)
@given(monomials("assoc", 8))
def test_trie_equals_scan_assoc(t):
    check_search(t, assoc())


@settings(max_examples=100, deadline=None)
@given(monomials("leibniz", 8))
def test_trie_equals_scan_leibniz(t):
    check_search(t, leibniz())


@settings(max_examples=150, deadline=None)
@given(monomials("envelope", 10))
def test_trie_equals_scan_envelope(t):
    check_search(t, envelope())


def test_trie_equals_scan_on_every_small_plane_monomial():
    sys_ = homass12()
    seen = 0
    for total in range(1, 8):
        for k in range(total + 1):
            for t in enumerate_plane(k, total - k):
                reds = find_redexes(t, sys_)
                assert reds == ref_find_redexes(t, sys_)
                seen += bool(reds)
    assert seen > 100


def test_every_lhs_matches_itself_at_the_root():
    for name, make in SYSTEMS.items():
        sys_ = make()
        for r in sys_.rules:
            reds = find_redexes(r.lhs, sys_)
            assert any(red.rule is r and red.position == 0 for red in reds), (name, r.id)


# --- apply_redex ---------------------------------------------------------------


def check_reducts(name, t):
    sys_ = SYSTEMS[name]()
    for red in find_redexes(t, sys_):
        assert apply_redex(t, red) == ref_reduct(t, red.rule, red.position)


@settings(max_examples=100, deadline=None)
@given(monomials("homass12", 16))
def test_apply_redex_equals_reference_splice_homass12(t):
    check_reducts("homass12", t)


@settings(max_examples=60, deadline=None)
@given(monomials("leibniz", 8))
def test_apply_redex_equals_reference_splice_leibniz(t):
    check_reducts("leibniz", t)


@settings(max_examples=100, deadline=None)
@given(monomials("envelope", 10))
def test_apply_redex_equals_reference_splice_envelope(t):
    check_reducts("envelope", t)


def test_a_redex_that_does_not_match_raises():
    (rule,) = rules_file_system("homass.rules", LEX_MA)  # m a 1 m 2 3 -> m m 1 2 a 3
    for text, pos in (("a m 1 2", 0), ("m 1 m 2 3", 0), ("a m a 1 a 2", 1)):
        with pytest.raises(TermError):
            apply_redex(terms.parse(text, HOM_SIGNATURE), Redex(rule, pos))


def test_identical_patterns_both_match_in_id_order():
    sig = HOM_SIGNATURE
    rules = parse_rules(
        "m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m 2 3 -> m m 1 a 2 3\na a m 1 2 -> a m 1 2",
        sig,
        LEX_MA,
    )
    rules = [rules[1], rules[2], rules[0]]
    sys_ = RewritingSystem(sig, LEX_MA, rules)
    from homoperad.terms import parse

    t = parse("a a m a 1 m 2 3", sig)
    got = find_redexes(t, sys_)
    assert [(r.position, r.rule.id) for r in got] == [(0, "r3"), (2, "r1"), (2, "r2")]
    assert got == ref_find_redexes(t, sys_)


def test_a_term_builds_its_end_table_once(end_tables_built):
    sys_ = homass12()  # completes, building tables, on its first call
    end_tables_built.clear()
    t = terms.parse("m a m a 1 m 2 3 m 4 5", HOM_SIGNATURE)
    first = find_redexes(t, sys_)
    assert find_redexes(t, sys_) == first == ref_find_redexes(t, sys_)
    assert len(end_tables_built) == 1


# --- the system edited in place ----------------------------------------------


def edited_homass12(seed):
    """A system that the rules of homass12, and a copy of each under another
    id with the same lhs, enter and leave in a seeded order; with the rules
    a dict would hold after the same steps, in its order."""
    base = homass12()
    pool = list(base.rules) + [Rule("x" + r.id, r.lhs, r.rhs) for r in base.rules]
    rng = random.Random(seed)
    sys_ = RewritingSystem(base.sig, base.order, [])
    model = {}
    for _ in range(3 * len(pool)):
        r = rng.choice(pool)
        if r.id in sys_:
            sys_.remove(r.id)
            del model[r.id]
        else:
            sys_.add(r)
            model[r.id] = r
    return sys_, list(model.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.lists(monomials("homass12", 16), min_size=1, max_size=4))
def test_edited_system_matches_a_fresh_one(seed, ts):
    sys_, rules = edited_homass12(seed)
    assert list(sys_) == rules and len(sys_) == len(rules)
    fresh = RewritingSystem(sys_.sig, sys_.order, rules)
    for t in ts:
        assert find_redexes(t, sys_) == find_redexes(t, fresh)
        assert find_redexes(t, sys_, first=True) == find_redexes(t, fresh, first=True)


def test_adding_a_present_id_is_an_error():
    """A refusal of input, exit 2 at the command line, not of the order."""
    base = homass12()
    sys_ = RewritingSystem(base.sig, base.order, base.rules[:2])
    first, second = base.rules[:2]
    with pytest.raises(TermError, match=f"^duplicate rule id {first.id}$") as e:
        sys_.add(first)
    assert not isinstance(e.value, RuleError)
    with pytest.raises(TermError):
        sys_.add(Rule(first.id, second.lhs, second.rhs))
    with pytest.raises(TermError):
        RewritingSystem(base.sig, base.order, [first, second, first])
    assert sys_.rules == (first, second)
    assert find_redexes(second.lhs, sys_) == ref_find_redexes(second.lhs, sys_)


# --- normal_form --------------------------------------------------------------


def coefficients():
    return st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@st.composite
def graded_word(draw, sig: Signature, k: int, l: int):
    """A plane monomial with k unary and l binary vertices, grown top-down."""

    def grow(k, l):
        if k == 0 and l == 0:
            return [0]
        if k and (not l or draw(st.booleans())):
            return ["a"] + grow(k - 1, l)
        k1, l1 = draw(st.integers(0, k)), draw(st.integers(0, l - 1))
        return ["m"] + grow(k1, l1) + grow(k - k1, l - 1 - l1)

    boxes = iter(range(1, k + 2 * l + 2))
    return Context(tuple(next(boxes) if t == 0 else t for t in grow(k, l)), sig, l + 1)


@st.composite
def graded_sums(draw, name: str, max_a: int, max_m: int, max_terms: int):
    """A signed sum of plane monomials of one grading (k a's, l m's)."""
    sig = SYSTEMS[name]().sig
    k, l = draw(st.integers(0, max_a)), draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_terms))
    terms = {draw(graded_word(sig, k, l)): draw(coefficients()) for _ in range(n)}
    return LinComb(l + 1, terms)


@st.composite
def ground_sums(draw, name: str, max_ops: int, max_terms: int):
    """A signed sum of box-free plane monomials."""
    sig = SYSTEMS[name]().sig
    n = draw(st.integers(1, max_terms))
    terms = {draw(plane_words(sig, max_ops, boxes=False)): draw(coefficients()) for _ in range(n)}
    return LinComb(0, terms)


def check_normal_form(name, x, seed):
    """Both strategies equal the reference, term order included."""
    sys_ = SYSTEMS[name]()
    want = ref_normal_form(x, sys_)
    got = normal_form(x, sys_)
    assert got == want and list(got.terms) == list(want.terms)
    got = normal_form(x, sys_, rng=random.Random(seed))
    want = ref_normal_form(x, sys_, rng=random.Random(seed))
    assert got == want and list(got.terms) == list(want.terms)


@settings(max_examples=40, deadline=None)
@given(graded_sums("homass12", 4, 6, 6), st.integers(0, 10**6))
def test_normal_form_equals_reference_homass12(x, seed):
    check_normal_form("homass12", x, seed)


@settings(max_examples=30, deadline=None)
@given(graded_sums("leibniz", 0, 5, 4), st.integers(0, 10**6))
def test_normal_form_equals_reference_leibniz(x, seed):
    check_normal_form("leibniz", x, seed)


@settings(max_examples=30, deadline=None)
@given(ground_sums("envelope", 5, 4), st.integers(0, 10**6))
def test_normal_form_equals_reference_envelope(x, seed):
    check_normal_form("envelope", x, seed)


@st.composite
def permuted_words(draw, k: int, l: int):
    """A hom monomial with k unary and l binary vertices, plane or with
    its boxes permuted."""
    t = draw(graded_word(HOM_SIGNATURE, k, l))
    images = draw(st.permutations(range(1, t.arity + 1)))
    return act(Permutation(tuple(images)), t) if draw(st.booleans()) else t


@st.composite
def one_arity_sets(draw):
    """A set of distinct monomials of one arity class: hom monomials of one
    grading, or ground terms over the envelope signature, with its
    constants."""
    if draw(st.booleans()):
        k, l = draw(st.integers(0, 4)), draw(st.integers(1, 5))
        words = permuted_words(k, l)
    else:
        words = plane_words(envelope().sig, 6, boxes=False)
    return list(dict.fromkeys(draw(st.lists(words, min_size=1, max_size=12))))


@settings(max_examples=300, deadline=None)
@given(one_arity_sets())
def test_lex_ma_key_maximum_is_the_antichain_pick(monos):
    assert max(monos, key=LEX_MA.key) == _pick_greatest(monos, LEX_MA)


def random_monomial(rng, k, l):
    def grow(k, l):
        if k == 0 and l == 0:
            return [0]
        if k and (not l or rng.random() < k / (k + l)):
            return ["a"] + grow(k - 1, l)
        k1, l1 = rng.randint(0, k), rng.randint(0, l - 1)
        return ["m"] + grow(k1, l1) + grow(k - k1, l - 1 - l1)

    boxes = iter(range(1, k + 2 * l + 2))
    word = tuple(next(boxes) if t == 0 else t for t in grow(k, l))
    return Context(word, HOM_SIGNATURE, l + 1)


def thirty_term_sum(seed):
    rng = random.Random(seed)
    terms = {}
    while len(terms) < 30:
        terms[random_monomial(rng, 5, 7)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
    return LinComb(8, terms)


def test_normal_form_of_a_thirty_term_sum_equals_reference():
    x = thirty_term_sum(7)
    assert normal_form(x, homass12()) == ref_normal_form(x, homass12())


def test_normal_form_searches_each_distinct_monomial_once(monkeypatch):
    searched = []
    original = rewrite.find_redexes

    def counting(t, sys_, **kwargs):
        searched.append(t)
        return original(t, sys_, **kwargs)

    monkeypatch.setattr(rewrite, "find_redexes", counting)
    for strategy in (None, random.Random(3)):
        searched.clear()
        x = thirty_term_sum(11)
        nf = normal_form(x, homass12(), rng=strategy)
        assert nf
        assert len(searched) == len(set(searched))
        assert len(searched) > len(x.terms)  # reducts were searched too
