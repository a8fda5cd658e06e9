"""Term orders used to orient rewriting rules.

Both orders are strict partial orders on each arity class; comparisons
return one of the strings LT, GT, EQ, INC.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import Context, Signature, TermError

LT, GT, EQ, INC = "LT", "GT", "EQ", "INC"


@lru_cache(maxsize=None)
def _symbol_ranks(sig: Signature) -> dict:
    """Precedence for lex comparison: constants lowest (in declaration
    order), then m below a, then any remaining symbols in declaration order."""
    ranks = {}
    for i, (name, arity) in enumerate(sig.symbols):
        if arity == 0:
            ranks[name] = (0, i)
        elif name == "m":
            ranks[name] = (1, 0)
        elif name == "a":
            ranks[name] = (1, 1)
        else:
            ranks[name] = (1, 2 + i)
    return ranks


def lex_ma_compare(x: Context, y: Context) -> str:
    """Word-lexicographic comparison of Polish words with m < a and boxes
    unrelated to everything else."""
    if x.arity != y.arity:
        raise TermError("cannot compare contexts of different arities")
    for tx, ty in zip(x.word, y.word):
        if tx == ty:
            continue
        if isinstance(tx, int) or isinstance(ty, int):
            return INC
        rx, ry = _symbol_ranks(x.sig)[tx], _symbol_ranks(y.sig)[ty]
        if rx == ry:
            return INC
        return GT if rx > ry else LT
    if len(x.word) == len(y.word):
        return EQ
    return GT if len(x.word) > len(y.word) else LT


def _h_vector(c: Context) -> tuple[int, ...]:
    """h_i = number of binary vertices entered from the right on the path
    from Box_i up to the root."""
    word, sig = c.word, c.sig
    h = [0] * c.arity

    def walk(i: int, depth: int) -> int:
        t = word[i]
        if isinstance(t, int):
            h[t - 1] = depth
            return i + 1
        n = sig.arity(t)
        i += 1
        for j in range(n):
            i = walk(i, depth + (1 if n == 2 and j == 1 else 0))
        return i

    walk(0, 0)
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
    """A named comparison procedure on same-arity contexts."""

    def __init__(self, name: str, compare_fn):
        self.name = name
        self._compare = compare_fn

    def compare(self, x: Context, y: Context) -> str:
        return self._compare(x, y)

    def __repr__(self):
        return f"TermOrder({self.name})"


LEX_MA = TermOrder("lex_ma", lex_ma_compare)
RIGHT_COMB = TermOrder("right_comb", right_comb_compare)

ORDERS = {"lex_ma": LEX_MA, "right_comb": RIGHT_COMB}


def get_order(name: str) -> TermOrder:
    try:
        return ORDERS[name]
    except KeyError:
        raise TermError(f"unknown term order {name!r}") from None
