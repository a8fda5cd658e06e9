"""Exact scalars: arbitrary-precision rationals and rational functions in q.

Rationals are ``fractions.Fraction``.  Rational functions are kept in a
canonical form (fraction reduced, denominator monic) so that equality is
syntactic.  Mixed arithmetic promotes rationals into constant functions.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = "Fraction | RatFunc"


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(tuple(out))


def _poly_neg(p):
    return tuple(-c for c in p)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(tuple(out))


def _poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(p) - len(q), -1, -1):
        c = rem[i + len(q) - 1] / lead
        if c:
            quo[i] = c
            for j, b in enumerate(q):
                rem[i + j] -= c * b
    return _trim(tuple(quo)), _trim(tuple(rem))


def _poly_gcd(p, q):
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    if p:
        p = tuple(c / p[-1] for c in p)  # monic
    return p


class RatFunc:
    """A rational function in one indeterminate q over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = _trim(tuple(Fraction(c) for c in num))
        den = _trim(tuple(Fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _poly_gcd(num, den)
        if g and g != (Fraction(1),):
            num = _poly_divmod(num, g)[0]
            den = _poly_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc((Fraction(c),))

    @staticmethod
    def q() -> "RatFunc":
        return RatFunc((Fraction(0), Fraction(1)))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        return o is not None and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(
            _poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
            _poly_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_poly_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.const(1) / self ** (-n)
        out = RatFunc.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def subs(self, value):
        """Evaluate at a rational value of q."""
        num = sum((c * value**i for i, c in enumerate(self.num)), Fraction(0))
        den = sum((c * value**i for i, c in enumerate(self.den)), Fraction(0))
        return num / den

    def _poly_str(self, p):
        if not p:
            return "0"
        parts = []
        for i, c in enumerate(p):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "q" if i == 1 else f"q^{i}"
                parts.append(var if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        n = self._poly_str(self.num)
        if self.den == (Fraction(1),):
            return n
        return f"({n})/({self._poly_str(self.den)})"


class ScalarParseError(ValueError):
    pass


class _Parser:
    """Recursive-descent parser for `+ - * / ^ ( ) q <int>` expressions."""

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        toks, i = [], 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()q":
                toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(int(text[i:j]))
                i = j
            else:
                raise ScalarParseError(f"unexpected character {ch!r}")
        return toks

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        v = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self):
        v = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, int):
                raise ScalarParseError("exponent must be an integer literal")
            v = v**e
        return v

    def atom(self):
        t = self.take()
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise ScalarParseError("missing closing parenthesis")
            return v
        if t == "q":
            return RatFunc.q()
        if t == "-":
            return -self.atom()
        if isinstance(t, int):
            return Fraction(t)
        raise ScalarParseError(f"unexpected token {t!r}")


def parse_scalar(text: str):
    """Parse a scalar: plain `p/q` rationals, or polynomial expressions in q.

    Returns a Fraction when the value is constant, a RatFunc otherwise.
    """
    p = _Parser(text)
    try:
        v = p.expr()
    except (IndexError, ZeroDivisionError) as e:
        raise ScalarParseError(str(e)) from e
    if p.peek() is not None:
        raise ScalarParseError(f"trailing input at token {p.pos}")
    if isinstance(v, RatFunc) and len(v.num) <= 1 and v.den == (Fraction(1),):
        return v.num[0] if v.num else Fraction(0)
    return v


def format_scalar(c) -> str:
    if isinstance(c, RatFunc):
        return repr(c)
    return str(c)
