"""Linear combinations of same-arity monomials: the free linear operad."""

from __future__ import annotations

from fractions import Fraction

from .orders import GT, LT
from .scalars import RatFunc, format_scalar
from .terms import Context, Permutation, TermError, act, compose, print_term, sort_key


class RuleError(ValueError):
    """A refusal by the term order, which the command line exits 4 on: a
    rule whose replacement is not strictly below its pattern, or whose
    pattern occurs in its own replacement, and a sum without a unique
    leading monomial.  A refusal of input is a ``TermError``."""


class IncomparableLeading(RuleError):
    """The active term order cannot single out a leading monomial of ``diff``."""

    def __init__(self, message: str, diff: "LinComb"):
        super().__init__(message)
        self.diff = diff


class LinComb:
    """A finite Context -> scalar map of one arity; zero coefficients are
    never stored.  The constructor trusts its caller to keep both rules, as
    every builder in the library does, and stores the dict it is given;
    ``parse_lincomb`` checks a sum read from text, and ``make_rule`` the
    two sides of a rule against each other."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        self.terms = {} if terms is None else terms

    @staticmethod
    def monomial(ctx: Context, coeff=Fraction(1)) -> "LinComb":
        return LinComb(ctx.arity, {ctx: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LinComb)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other: "LinComb") -> "LinComb":
        if self.arity != other.arity:
            raise TermError("arity mismatch in addition")
        out = LinComb(self.arity, dict(self.terms))  # add_term edits it
        for ctx, c in other.terms.items():
            out.add_term(ctx, c)
        return out

    def add_term(self, ctx: Context, c):
        """Add c to the coefficient of ctx in place, dropping it at zero."""
        s = self.terms.get(ctx, 0) + c
        if s:
            self.terms[ctx] = s
        else:
            self.terms.pop(ctx, None)

    def __neg__(self):
        return LinComb(self.arity, {ctx: -c for ctx, c in self.terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        if not c:
            return LinComb(self.arity)
        return LinComb(self.arity, {ctx: c * v for ctx, v in self.terms.items()})

    def act(self, sigma: Permutation) -> "LinComb":
        return LinComb(self.arity, {act(sigma, ctx): c for ctx, c in self.terms.items()})

    def support(self):
        return self.terms.keys()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))
        out = []
        for i, (ctx, c) in enumerate(parts):
            if c.__class__ is RatFunc and (f := c._fraction()) is not None:
                c = f  # a constant prints as the Fraction it equals
            sign = "-" if _is_negative(c) else "+"
            mag = -c if sign == "-" else c
            coeff = "" if mag == 1 else f"{_fmt(mag)} * "
            if i == 0:
                out.append(("-" if sign == "-" else "") + coeff + print_term(ctx.word))
            else:
                out.append(f"{sign} {coeff}{print_term(ctx.word)}")
        return " ".join(out)

    __repr__ = __str__


def _is_negative(c) -> bool:
    if isinstance(c, Fraction):
        return c < 0
    return False  # a non-constant rational function prints its sign inside


def _fmt(c) -> str:
    s = format_scalar(c)
    return f"({s})" if any(op in s for op in " +-/") and not s.lstrip("-").replace("/", "").isdigit() else s


def compose_linear(outer: LinComb, inners: list[LinComb]) -> LinComb:
    """Multilinear extension of monomial composition."""
    if len(inners) != outer.arity:
        raise TermError(f"need {outer.arity} inners, got {len(inners)}")
    result_arity = sum(x.arity for x in inners)
    out = LinComb(result_arity)
    for octx, oc in outer.terms.items():
        stack = [(oc, [])]
        for inner in inners:
            stack = [
                (c * ic, picked + [ictx])
                for c, picked in stack
                for ictx, ic in inner.terms.items()
            ]
        for c, picked in stack:
            out.add_term(compose(octx, picked), c)
    return out


def maximal(monos, order) -> list:
    """The order-maximal elements of ``monos``, in the order given.

    A running antichain: each new element is compared once with each
    element kept so far.  The order is a strict partial order, so an
    element dominated by one dropped later is dominated by a kept one."""
    top = []
    for m in monos:
        rels = [order.compare(m, t) for t in top]
        if LT not in rels:
            top = [t for t, rel in zip(top, rels) if rel != GT] + [m]
    return top


def leading_monomial(x: LinComb, order) -> tuple[Context, object]:
    """The unique order-maximum of the support, or IncomparableLeading."""
    if not x.terms:
        raise ValueError("empty linear combination has no leading monomial")
    top = maximal(x.terms, order)
    if len(top) > 1:
        raise IncomparableLeading(
            f"no unique maximum: {' vs '.join(map(str, top))} under {order.name}", x
        )
    return top[0], x.terms[top[0]]
