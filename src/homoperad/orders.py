"""Term orders used to orient rewriting rules.

Both orders are strict partial orders on each arity class; comparisons
return one of the strings LT, GT, EQ, INC.  ``lex_ma``'s comparison and its
sort key read one symbol precedence table, ``_key_table``.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import Context, Signature, TermError

LT, GT, EQ, INC = "LT", "GT", "EQ", "INC"


@lru_cache(maxsize=None)
def _key_table(sig: Signature, arity: int) -> dict:
    """The one symbol precedence of both ``lex_ma`` and its key, as token
    values on one arity class: constants lowest (in declaration order),
    then m below a, then any remaining symbols in declaration order; then
    the boxes, Box_1 highest."""
    consts = [name for name, n in sig.symbols if n == 0]
    ops = [name for name, n in sig.symbols if n]
    ranked = consts + sorted(ops, key=lambda name: {"m": 0, "a": 1}.get(name, 2))
    table = {name: p for p, name in enumerate(ranked)}
    table.update((i, len(ranked) + arity - i) for i in range(1, arity + 1))
    return table


def lex_ma_compare(x: Context, y: Context) -> str:
    """Word-lexicographic comparison of Polish words with m < a and boxes
    unrelated to everything else.  Distinct symbols have distinct ranks,
    and no complete word is a proper prefix of another, so the first
    differing token decides."""
    if x.arity != y.arity:
        raise TermError("cannot compare contexts of different arities")
    table = _key_table(x.sig, x.arity)
    for tx, ty in zip(x.word, y.word):
        if tx == ty:
            continue
        if isinstance(tx, int) or isinstance(ty, int):
            return INC
        return GT if table[tx] > table[ty] else LT
    return EQ


def lex_ma_key(c: Context) -> tuple:
    """A total sort key on each arity class that refines ``lex_ma``.  At the
    first token where two words differ, a higher symbol wins as in
    ``lex_ma``; where ``lex_ma`` finds them incomparable, a box beats any
    symbol and a lower box index beats a higher one, the word that
    ``terms.sort_key`` sorts first.  So the key-greatest of a set is its
    ``sort_key``-least ``lex_ma``-maximal element."""
    return tuple(map(_key_table(c.sig, c.arity).__getitem__, c.word))


def _h_vector(c: Context) -> tuple[int, ...]:
    """h_i = number of binary vertices entered from the right on the path
    from Box_i up to the root.  One left-to-right pass gives each token the
    count of right turns above it: a child inherits its parent's count, the
    second child of a binary symbol adds 1, and each child after the first
    starts where ``ends`` says its elder sibling stops."""
    word, ends, sig = c.word, c.ends, c.sig
    h = [0] * c.arity
    turns = [0] * len(word)
    for i, t in enumerate(word):
        if isinstance(t, int):
            h[t - 1] = turns[i]
            continue
        n, j = sig.arity(t), i + 1
        for k in range(n):
            turns[j] = turns[i] + (n == 2 and k == 1)
            j = ends[j]
    return tuple(h)


def right_comb_compare(x: Context, y: Context) -> str:
    """Partial order restricting the quasi-order 'h_i(x) >= h_i(y) for all
    i'; ties between distinct contexts are incomparable."""
    if x.arity != y.arity:
        raise TermError("cannot compare contexts of different arities")
    if x.word == y.word:
        return EQ
    hx, hy = _h_vector(x), _h_vector(y)
    ge = all(a >= b for a, b in zip(hx, hy))
    le = all(a <= b for a, b in zip(hx, hy))
    if ge and not le:
        return GT
    if le and not ge:
        return LT
    return INC


class TermOrder:
    """A named comparison procedure on same-arity contexts.  ``key``, when
    the order has one, is a total sort key that refines it, as
    ``lex_ma_key`` does; ``right_comb``'s incomparability is not
    transitive, so no key reproduces its tie-break."""

    def __init__(self, name: str, compare_fn, key=None):
        self.name = name
        self._compare = compare_fn
        self.key = key

    def compare(self, x: Context, y: Context) -> str:
        return self._compare(x, y)

    def __repr__(self):
        return f"TermOrder({self.name})"


LEX_MA = TermOrder("lex_ma", lex_ma_compare, lex_ma_key)
RIGHT_COMB = TermOrder("right_comb", right_comb_compare)

ORDERS = {"lex_ma": LEX_MA, "right_comb": RIGHT_COMB}


def get_order(name: str) -> TermOrder:
    try:
        return ORDERS[name]
    except KeyError:
        raise TermError(f"unknown term order {name!r}") from None
