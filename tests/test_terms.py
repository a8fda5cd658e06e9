import random

import pytest
from hypothesis import given, strategies as st

from homoperad.terms import (
    ASS_SIGNATURE,
    HOM_SIGNATURE,
    Permutation,
    Signature,
    TermError,
    act,
    compose,
    enumerate_plane,
    grading,
    parse,
    plane_count,
    planarize,
    print_term,
    subterm_ends,
)


def t(text):
    return parse(text, HOM_SIGNATURE)


def test_signature_parse_and_str():
    sig = Signature.parse("# comment\nop m 2\nop a 1\nop e 0\n")
    assert sig.arity("m") == 2
    assert sig.arity("e") == 0
    assert "a" in sig
    assert str(sig) == "op m 2\nop a 1\nop e 0"


def test_signature_rejects_bad_names():
    with pytest.raises(TermError):
        Signature((("m1", 2),))
    with pytest.raises(TermError):
        Signature((("m", 2), ("m", 1)))
    with pytest.raises(TermError):
        Signature((("", 1),))


def test_parse_examples():
    c = t("m 1 m 2 3")
    assert c.arity == 3
    assert c.order == 2
    assert t("1").arity == 1
    assert t("1").order == 0
    assert not t("m 2 1").is_plane()


def test_parse_bracketed_boxes():
    word = "m " * 10 + " ".join(str(i) if i < 10 else f"[{i}]" for i in range(1, 12))
    c = t(word)
    assert c.arity == 11
    assert print_term(c.word) == " ".join(word.split())


def test_parse_rejects_malformed():
    for bad in ["m 1", "m 1 2 3", "m 1 1", "m 0 1", "q 1"]:
        with pytest.raises(TermError):
            t(bad)


def test_print_parse_round_trip():
    for text in ["m a 1 m 2 3", "a a 1", "m m 1 2 a 3", "m 2 1"]:
        assert print_term(t(text).word) == text


def test_compose_examples():
    ident = t("1")
    m = t("m 1 2")
    assert compose(m, [ident, m]) == t("m 1 m 2 3")
    assert compose(m, [m, ident]) == t("m m 1 2 3")
    assert compose(t("a 1"), [t("m 2 1")]) == t("a m 2 1")


def test_compose_arity_mismatch():
    with pytest.raises(TermError):
        compose(t("m 1 2"), [t("1")])


def test_compose_refuses_an_inner_symbol_the_outer_signature_lacks():
    inner = parse("m x 1", Signature((("m", 2), ("x", 0))))
    with pytest.raises(TermError, match="unknown symbol 'x'"):
        compose(t("a 1"), [inner])


def test_compose_takes_an_inner_over_a_signature_the_outer_contains():
    c = compose(t("m 1 a 2"), [parse("m 2 m 1 3", ASS_SIGNATURE), t("a 1")])
    assert (c, c.arity, c.sig) == (t("m m 2 m 1 3 a a 4"), 4, HOM_SIGNATURE)


def test_act_examples():
    swap = Permutation((2, 1))
    assert act(swap, t("m 1 2")) == t("m 2 1")
    c = t("m 1 m 2 3")
    assert act(Permutation.identity(3), c) == c
    cyc = Permutation((2, 3, 1))  # 1->2->3->1
    assert act(cyc, c) == t("m 3 m 1 2")


def test_act_is_right_action():
    rng = random.Random(7)
    for _ in range(50):
        c = rng.choice(enumerate_plane(2, 2))
        images = list(range(1, c.arity + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        rng.shuffle(images)
        tau = Permutation(tuple(images))
        sigma_after_tau = Permutation(tuple(sigma(tau(i)) for i in range(1, c.arity + 1)))
        assert act(tau, act(sigma, c)) == act(sigma_after_tau, c)


def test_planarize():
    p, s = planarize(t("m 2 1"))
    assert p == t("m 1 2")
    assert s == Permutation((2, 1))
    c = t("m m 3 1 2")
    p, s = planarize(c)
    assert p == t("m m 1 2 3")
    assert act(s, p) == c


def test_planarize_recovers_plane_rep_for_every_sigma():
    import itertools

    plane = t("m a 1 m 2 3")
    for images in itertools.permutations(range(1, 4)):
        c = act(Permutation(images), plane)
        p, s = planarize(c)
        assert p == plane
        assert act(s, p) == c


def test_grading():
    assert grading(t("m a 1 m 2 3")) == (1, 2)
    assert grading(t("1")) == (0, 0)
    assert grading(t("m m 1 a 2 a m 3 4")) == (2, 3)


def test_enumerate_plane_small_cases():
    got = {print_term(c.word) for c in enumerate_plane(1, 1)}
    assert got == {"a m 1 2", "m a 1 2", "m 1 a 2"}
    got = {print_term(c.word) for c in enumerate_plane(0, 2)}
    assert got == {"m 1 m 2 3", "m m 1 2 3"}
    assert [print_term(c.word) for c in enumerate_plane(2, 0)] == ["a a 1"]
    with pytest.raises(TermError, match="^order 21 exceeds limit 20$"):
        enumerate_plane(11, 10)


def test_enumerate_plane_counts_match_closed_form():
    for k in range(13):
        for l in range((12 - k) // 2 + 1):
            if k + 2 * l > 12:
                continue
            assert len(enumerate_plane(k, l)) == plane_count(k, l)


def test_compose_operad_associativity():
    rng = random.Random(3)
    pool = enumerate_plane(1, 1) + enumerate_plane(0, 1) + [parse("1", HOM_SIGNATURE)]
    for _ in range(40):
        outer = rng.choice(pool)
        mids = [rng.choice(pool) for _ in range(outer.arity)]
        inners = [
            [rng.choice(pool) for _ in range(m.arity)] for m in mids
        ]
        one_shot = compose(compose(outer, mids), [c for row in inners for c in row])
        nested = compose(outer, [compose(m, row) for m, row in zip(mids, inners)])
        assert one_shot == nested


def test_compose_equivariance():
    # act(sigma, outer) composed with sigma-permuted inners equals the
    # permuted composition of the unpermuted pieces
    rng = random.Random(11)
    pool = enumerate_plane(1, 1) + enumerate_plane(2, 0)
    for _ in range(40):
        outer = rng.choice([c for c in pool if c.arity >= 2])
        inners = [rng.choice(pool) for _ in range(outer.arity)]
        images = list(range(1, outer.arity + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        left = compose(act(sigma, outer), [inners[sigma.inverse()(i) - 1] for i in range(1, outer.arity + 1)])
        right = compose(outer, inners)
        assert planarize(left)[0] == planarize(right)[0]


@given(st.integers(0, 4), st.integers(0, 3))
def test_plane_words_are_plane_and_graded(k, l):
    for c in enumerate_plane(k, l):
        assert c.is_plane()
        assert grading(c) == (k, l)


def test_ass_signature_has_no_a():
    assert "a" not in ASS_SIGNATURE
    assert ASS_SIGNATURE.arity("m") == 2


@given(st.integers(0, 4), st.integers(0, 3))
def test_subterm_ends_match_a_left_to_right_walk(k, l):
    for c in enumerate_plane(k, l):
        ends = subterm_ends(c.word, c.sig)
        for start in range(len(c.word)):
            need, i = 1, start
            while need:
                tok = c.word[i]
                need += (0 if isinstance(tok, int) else c.sig.arity(tok)) - 1
                i += 1
            assert ends[start] == i
        assert ends[0] == len(c.word)
