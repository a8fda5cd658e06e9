import random

import pytest

from homoperad.orders import (
    EQ,
    GT,
    INC,
    LT,
    _h_vector,
    get_order,
    lex_ma_compare,
    right_comb_compare,
)
from homoperad.terms import ASS_SIGNATURE, HOM_SIGNATURE, Context, Signature, TermError, parse


def th(text):
    return parse(text, HOM_SIGNATURE)


def ta(text):
    return parse(text, ASS_SIGNATURE)


def test_lex_orientation_of_first_rule():
    assert lex_ma_compare(th("m a 1 m 2 3"), th("m m 1 2 a 3")) == GT


def test_lex_eq():
    x = th("m a 1 m 2 3")
    assert lex_ma_compare(x, x) == EQ


def test_lex_orientation_of_second_rule():
    assert lex_ma_compare(th("m m 1 a 2 a m 3 4"), th("m m 1 m 2 3 a a 4")) == GT


def test_lex_boxes_unrelated():
    assert lex_ma_compare(th("m 1 m 2 3"), th("m m 1 2 3")) == INC
    assert lex_ma_compare(th("m 1 2"), th("m 2 1")) == INC


def test_lex_symmetry():
    assert lex_ma_compare(th("m m 1 2 a 3"), th("m a 1 m 2 3")) == LT


def test_lex_constants_rank_below_operations():
    sig = Signature((("m", 2), ("a", 1), ("e", 0), ("f", 0)))
    ae = parse("a e", sig)
    e = parse("e", sig)
    assert lex_ma_compare(ae, e) == GT
    assert lex_ma_compare(parse("m f e", sig), parse("m e f", sig)) == GT
    assert lex_ma_compare(parse("m e f", sig), parse("f", sig)) == GT


def test_lex_arity_mismatch():
    with pytest.raises(TermError):
        lex_ma_compare(th("m 1 2"), th("a 1"))


def test_right_comb_ass_rule():
    # h-vectors (0,1,2) vs (0,1,1)
    assert right_comb_compare(ta("m 1 m 2 3"), ta("m m 1 2 3")) == GT
    assert right_comb_compare(ta("m m 1 2 3"), ta("m 1 m 2 3")) == LT


def test_right_comb_eq_and_inc():
    x = ta("m 1 m 2 3")
    assert right_comb_compare(x, x) == EQ
    # h-vectors (0,1,1,2) vs (0,1,2,1): incomparable
    assert right_comb_compare(th("m m 1 a 2 a m 3 4"), th("m m 1 m 2 3 a a 4")) == INC


def test_right_comb_handles_non_plane():
    # m m 1 3 2 has the same h multiset but per-input values differ
    assert right_comb_compare(ta("m 1 m 2 3"), ta("m m 1 3 2")) == GT


def test_get_order():
    assert get_order("lex_ma").name == "lex_ma"
    assert get_order("right_comb").name == "right_comb"
    with pytest.raises(TermError):
        get_order("nope")


def test_orders_are_irreflexive_and_antisymmetric_on_samples():
    from homoperad.terms import enumerate_plane

    pool = enumerate_plane(1, 2)
    for order_name in ("lex_ma", "right_comb"):
        cmp = get_order(order_name).compare
        for x in pool:
            assert cmp(x, x) == EQ
            for y in pool:
                a, b = cmp(x, y), cmp(y, x)
                if a == GT:
                    assert b == LT
                if a == LT:
                    assert b == GT
                if a == INC:
                    assert b == INC


def _ref_symbol_rank(sig, name):
    """The rank as computed on every call before the per-signature table."""
    arity = sig.arity(name)
    decl = [n for n, _ in sig.symbols]
    if arity == 0:
        return (0, decl.index(name))
    if name == "m":
        return (1, 0)
    if name == "a":
        return (1, 1)
    return (1, 2 + decl.index(name))


def _rank_signatures():
    import importlib.resources

    from homoperad.homalgebra import envelope_presentation, q_sl2
    from homoperad.rewrite import read_rules
    from homoperad.scalars import RatFunc

    text = importlib.resources.files("homoperad").joinpath("data", "leibniz.rules").read_text()
    leibniz, _ = read_rules(text, get_order("right_comb"))
    envelope = envelope_presentation(q_sl2(RatFunc.q()), ["e", "f", "h"]).sig
    return {"hom": HOM_SIGNATURE, "ass": ASS_SIGNATURE, "leibniz": leibniz, "envelope": envelope}


def _words(sig, ops, arity):
    """Every plane Polish word over ``sig`` with exactly ``ops`` operation
    vertices and ``arity`` boxes, leaves being boxes or constants."""
    consts = [n for n, a in sig.symbols if a == 0]
    operations = [(n, a) for n, a in sig.symbols if a > 0]

    def fill(need, ops, boxes):
        if need == 0:
            if ops == 0 and boxes == 0:
                yield ()
            return
        for c in consts:
            for rest in fill(need - 1, ops, boxes):
                yield (c,) + rest
        if boxes:
            for rest in fill(need - 1, ops, boxes - 1):
                yield (0,) + rest
        if ops:
            for n, a in operations:
                for rest in fill(need - 1 + a, ops - 1, boxes):
                    yield (n,) + rest

    for w in fill(1, ops, arity):
        k = iter(range(1, arity + 1))
        yield tuple(next(k) if t == 0 else t for t in w)


@pytest.mark.parametrize("name", ["hom", "ass", "leibniz", "envelope"])
def test_rank_table_matches_per_call_ranks(name):
    from homoperad.orders import _key_table
    from homoperad.terms import Context

    sig = _rank_signatures()[name]
    names = [n for n, _ in sig.symbols]
    for arity in range(3):
        table = _key_table(sig, arity)
        # one value per symbol, ordered as the reference ranks, boxes above
        assert sorted(names, key=table.__getitem__) == sorted(
            names, key=lambda n: _ref_symbol_rank(sig, n)
        )
        assert len(set(table.values())) == len(table) == len(names) + arity
        assert all(table[i] > max(table[n] for n in names) for i in range(1, arity + 1))

    def ref_compare(x, y):
        for tx, ty in zip(x.word, y.word):
            if tx == ty:
                continue
            if isinstance(tx, int) or isinstance(ty, int):
                return INC
            rx, ry = _ref_symbol_rank(x.sig, tx), _ref_symbol_rank(y.sig, ty)
            if rx == ry:
                return INC
            return GT if rx > ry else LT
        if len(x.word) == len(y.word):
            return EQ
        return GT if len(x.word) > len(y.word) else LT

    pairs = set()
    for arity in range(3):
        contexts = [
            Context(w, sig, arity) for ops in range(3) for w in _words(sig, ops, arity)
        ]
        for x in contexts:
            for y in contexts:
                assert lex_ma_compare(x, y) == ref_compare(x, y)
                for tx, ty in zip(x.word, y.word):
                    if tx != ty:
                        pairs.add((tx, ty))
                        break
    # every ordered pair of distinct symbols decided a comparison above
    assert {(x, y) for x in names for y in names if x != y} <= pairs


def _ref_h_vector(c):
    """h_i by a recursive walk down the tree: the reference for the
    end-table pass of ``_h_vector``."""
    h = [0] * c.arity

    def walk(i, depth):
        t = c.word[i]
        if isinstance(t, int):
            h[t - 1] = depth
            return i + 1
        n = c.sig.arity(t)
        i += 1
        for j in range(n):
            i = walk(i, depth + (1 if n == 2 and j == 1 else 0))
        return i

    walk(0, 0)
    return tuple(h)


def _random_context(rng, sig, ops):
    """A random context over ``sig`` with ``ops`` operation vertices, whose
    leaves are constants (one in four, when ``sig`` has any) or boxes, the
    boxes numbered in a shuffled order."""
    operations = [(n, a) for n, a in sig.symbols if a > 0]
    consts = [n for n, a in sig.symbols if a == 0]

    def grow(ops):
        if ops == 0:
            return [rng.choice(consts)] if consts and rng.random() < 0.25 else [0]
        name, n = rng.choice(operations)
        cuts = sorted(rng.randint(0, ops - 1) for _ in range(n - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, ops - 1])]
        return [name] + [t for size in sizes for t in grow(size)]

    word = grow(ops)
    boxes = list(range(1, word.count(0) + 1))
    rng.shuffle(boxes)
    k = iter(boxes)
    return Context(tuple(next(k) if t == 0 else t for t in word), sig, len(boxes))


@pytest.mark.parametrize("sig", [
    HOM_SIGNATURE,
    Signature((("t", 3), ("m", 2), ("a", 1), ("e", 0))),
], ids=["hom", "ternary-and-constant"])
def test_h_vector_matches_the_recursive_walk(sig):
    rng = random.Random(18)
    for _ in range(3000):
        c = _random_context(rng, sig, rng.randint(0, 8))
        assert _h_vector(c) == _ref_h_vector(c)


def test_h_vector_of_a_deep_context_does_not_recurse():
    c = th("a " * 5000 + "m 1 m 2 3")
    assert _h_vector(c) == (0, 1, 2)
    assert right_comb_compare(c, th("a " * 5000 + "m m 1 2 3")) == GT
