"""Exact scalars: arbitrary-precision rationals and rational functions in q.

Rationals are ``fractions.Fraction``.  A rational function is stored as a
pair of integer-coefficient polynomials N/D (int tuples, constant term
first) in a canonical form, so that equality is syntactic:

- gcd(N, D) = 1 over Q[q];
- the integer content of N and D together is 1;
- the leading coefficient of D is positive.

When D is a constant, as it is for every polynomial in q, the form costs
one integer gcd; only a non-constant D and N run the primitive polynomial
remainder sequence (pseudo-division; Knuth, TAOCP vol. 2, 4.6.1).
``Fraction`` appears only at the edges: the ``num``/``den`` views (monic
denominator), ``const``, ``subs`` and printing.  Mixed arithmetic reads an
int or a ``Fraction`` p/r as the canonical tuples (p,) and (r,), and builds
no constant function for it.

The ``RatFunc`` constructor trusts its caller to pass trimmed int tuples,
as every operation here does; a scalar text from outside is checked where
it enters, by ``parse_scalar``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .terms import TermError


# --- integer polynomials: int tuples, constant term first, no trailing 0 ----


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = [a + b for a, b in zip(p, q)]
    out += p[len(q) :]
    return _trim(out)


def _poly_neg(p):
    return tuple(-c for c in p)


def _poly_scale(p, c):
    return p if c == 1 else tuple(c * a for a in p)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    if len(q) == 1:
        return _poly_scale(p, q[0])
    if len(p) == 1:
        return _poly_scale(q, p[0])
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)


def _poly_pow(p, n):
    out = (1,)
    while n:
        if n & 1:
            out = _poly_mul(out, p)
        n >>= 1
        if n:
            p = _poly_mul(p, p)
    return out


def _primitive(p):
    """p divided by its integer content."""
    g = math.gcd(*p)
    return p if g == 1 else tuple(c // g for c in p)


def _pseudo_rem(a, b):
    """The remainder of lc(b)^k * a by b for some k >= 0: each step scales
    the running remainder by lc(b) so that it cancels in the integers."""
    r, n, lead = list(a), len(b), b[-1]
    while len(r) >= n:
        c, s = r[-1], len(r) - n
        r = [x * lead for x in r]
        for i, y in enumerate(b, s):
            r[i] -= c * y
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _poly_gcd(a, b):
    """A primitive gcd, unique up to sign, of two non-zero integer
    polynomials, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r) if r else ()
    return a


def _exact_div(a, b):
    """a / b in Z[q], for a primitive b that divides a over Q[q]; by Gauss's
    lemma the quotient is integral, so each step divides exactly."""
    r, n, lead = list(a), len(b), b[-1]
    quo = [0] * (len(a) - n + 1)
    for s in range(len(quo) - 1, -1, -1):
        c = quo[s] = r[s + n - 1] // lead
        if c:
            for i, y in enumerate(b, s):
                r[i] -= c * y
    return tuple(quo)


def _horner(p, value):
    out = Fraction(0)
    for c in reversed(p):
        out = out * value + c
    return out


def _poly_str(p):
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


class RatFunc:
    """A rational function in one indeterminate q over the rationals.  The
    constructor checks nothing but a zero denominator; ``parse_scalar``
    checks a scalar from outside."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=(1,)):
        """``num``/``den`` are trimmed int tuples, constant term first, and
        are trusted as such: only the reduction to canonical form runs."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = (1,)
        elif den != (1,):
            if len(num) > 1 and len(den) > 1:
                g = _poly_gcd(num, den)
                if len(g) > 1:
                    num, den = _exact_div(num, g), _exact_div(den, g)
            g = math.gcd(*num, *den)
            if den[-1] < 0:
                g = -g
            if g != 1:
                num = tuple(c // g for c in num)
                den = tuple(c // g for c in den)
        self._n = num
        self._d = den

    @property
    def num(self) -> tuple:
        """Numerator coefficients as Fractions, over the monic denominator."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._n)

    @property
    def den(self) -> tuple:
        """Monic denominator coefficients as Fractions."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return RatFunc((c.numerator,) if c else (), (c.denominator,))

    @staticmethod
    def q() -> "RatFunc":
        return RatFunc((0, 1))

    @staticmethod
    def _parts(x):
        """The canonical numerator and denominator tuples of x, or None when
        x is not a scalar.  An int or a Fraction p/q is already canonical as
        ((p,), (q,)), so mixed arithmetic builds no RatFunc for it."""
        if isinstance(x, RatFunc):
            return x._n, x._d
        if isinstance(x, int):
            return ((x,) if x else ()), (1,)
        if isinstance(x, Fraction):
            return ((x.numerator,) if x else ()), (x.denominator,)
        return None

    def _fraction(self):
        """The value as a Fraction when it is constant, else None."""
        if len(self._d) == 1 and len(self._n) <= 1:
            return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)
        return None

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        o = self._parts(other)
        return o is not None and self._n == o[0] and self._d == o[1]

    def __hash__(self):
        # a constant hashes as the Fraction it equals
        c = self._fraction()
        return hash((self._n, self._d)) if c is None else hash(c)

    @staticmethod
    def _sum(n1, d1, n2, d2):
        """n1/d1 + n2/d2, for trimmed int tuples."""
        if d1 == d2:  # a common denominator, 1 for every polynomial
            return RatFunc(_poly_add(n1, n2), d1)
        num = _poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1))
        return RatFunc(num, _poly_mul(d1, d2))

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        if not o[0]:
            return self
        if not self._n and isinstance(other, RatFunc):
            return other
        return self._sum(self._n, self._d, *o)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_poly_neg(self._n), self._d)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        if not o[0]:
            return self
        return self._sum(self._n, self._d, _poly_neg(o[0]), o[1])

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._sum(*o, _poly_neg(self._n), self._d)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        if not self._n or not o[0]:
            return _ZERO
        return RatFunc(_poly_mul(self._n, o[0]), _poly_mul(self._d, o[1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        if not o[0]:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_poly_mul(self._n, o[1]), _poly_mul(self._d, o[0]))

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        if not self._n:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_poly_mul(o[0], self._d), _poly_mul(o[1], self._n))

    def __pow__(self, n: int):
        num, den = self._n, self._d
        if n < 0:
            if not num:
                raise ZeroDivisionError("division by zero rational function")
            num, den, n = den, num, -n
        return RatFunc(_poly_pow(num, n), _poly_pow(den, n))

    def subs(self, value):
        """Evaluate at a rational value of q."""
        return _horner(self._n, value) / _horner(self._d, value)

    def __repr__(self):
        n = _poly_str(self.num)
        if len(self._d) == 1:
            return n
        return f"({n})/({_poly_str(self.den)})"


_ZERO = RatFunc(())


class ScalarParseError(TermError):
    """A scalar text that does not parse, or that divides by zero."""


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
            elif "0" <= ch <= "9":
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
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
        if t is None:
            raise ScalarParseError("scalar ends early")
        raise ScalarParseError(f"unexpected token {t!r}")


def parse_scalar(text: str):
    """Parse a scalar: plain `p/q` rationals, or polynomial expressions in q.

    Returns a Fraction when the value is constant, a RatFunc otherwise.  A
    plain ASCII literal `p` or `p/q` is read directly.
    """
    num, slash, den = text.partition("/")
    if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
        n, d = int(num), int(den) if slash else 1
        if not d:
            raise ScalarParseError("division by zero")
        return Fraction(n, d)
    p = _Parser(text)
    try:
        v = p.expr()
    except IndexError as e:
        raise ScalarParseError(str(e)) from e
    except ZeroDivisionError:  # Fraction's and RatFunc's own texts differ
        raise ScalarParseError("division by zero") from None
    except RecursionError:
        raise ScalarParseError("parentheses or signs nested too deeply") from None
    if p.peek() is not None:
        raise ScalarParseError(f"trailing input at token {p.pos}")
    c = v._fraction() if isinstance(v, RatFunc) else None
    return v if c is None else c


def format_scalar(c) -> str:
    if isinstance(c, RatFunc):
        return repr(c)
    return str(c)
