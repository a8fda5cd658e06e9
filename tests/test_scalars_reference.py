"""RatFunc against the rational function class it replaced: polynomials
with Fraction coefficients, a Euclidean gcd over Q[q] and a monic
denominator.  Random chains of arithmetic must give the same num, den,
truth, equality and printed form at every step."""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from homoperad.scalars import RatFunc, format_scalar


def _trim(coeffs):
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


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(tuple(out))


def _poly_divmod(p, q):
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
        p = tuple(c / p[-1] for c in p)
    return p


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


class RefRatFunc:
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
    def _coerce(x):
        if isinstance(x, RefRatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RefRatFunc((Fraction(x),))
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        return o is not None and self.num == o.num and self.den == o.den

    def __add__(self, other):
        o = self._coerce(other)
        return RefRatFunc(
            _poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
            _poly_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RefRatFunc(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        return RefRatFunc(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RefRatFunc(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return RefRatFunc((Fraction(1),)) / self ** (-n)
        out = RefRatFunc((Fraction(1),))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        n = _poly_str(self.num)
        if self.den == (Fraction(1),):
            return n
        return f"({n})/({_poly_str(self.den)})"


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "r+": lambda x, y: y + x,
    "r-": lambda x, y: y - x,
    "r*": lambda x, y: y * x,
    "r/": lambda x, y: y / x,
}

# trimmed int tuples, as RatFunc takes them: every polynomial over Q is a
# rational multiple of one
polys = st.lists(st.integers(-24, 24), max_size=3).map(lambda cs: _trim(tuple(cs)))
fractions = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)
# a rational function as (num, den): coefficient tuples, constant term first
ratfuncs = st.tuples(polys, polys.filter(any))
steps = st.one_of(
    st.tuples(st.sampled_from(sorted(OPS)), st.one_of(fractions, ratfuncs)),
    st.tuples(st.just("**"), st.integers(-2, 2)),
)
MAX_TERMS = 14  # a chain stops once num and den together have more coefficients


def both(operand):
    if isinstance(operand, tuple):
        return RatFunc(*operand), RefRatFunc(*operand)
    return operand, operand


def assert_same(got, want):
    assert type(got) is RatFunc
    assert got.num == want.num and got.den == want.den
    assert all(type(c) is Fraction for c in got.num + got.den)
    assert bool(got) == bool(want)
    assert format_scalar(got) == repr(want)


@given(ratfuncs, st.lists(steps, max_size=6))
# (q^2 - 1)/(2q - 2): a non-constant common factor and content 2
@example(((-1, 0, 1), (-2, 2)), [("/", ((2, 2), (3,))), ("**", -2)])
# a negative leading denominator coefficient and a non-monic one
@example(((1,), (1, -3)), [("+", ((0, 1), (2, 0, 5))), ("r-", Fraction(1, 2))])
# zero on both sides, and division by zero
@example(((), (1, 1)), [("*", ((1, 1), (1,))), ("r/", 3), ("/", 0), ("**", -1)])
# a value that returns to a constant
@example(((0, 4), (0, 6)), [("-", Fraction(2, 3)), ("r+", ((1, 0, 1), (1, 0, 1)))])
def test_chains_agree_with_the_fraction_reference(start, chain):
    got, want = both(start)
    assert_same(got, want)
    seen = [(got, want)]
    for op, operand in chain:
        if op == "**":
            y, z = operand, operand
            apply = pow
        else:
            y, z = both(operand)
            apply = OPS[op]
        try:
            want = apply(seen[-1][1], z)
        except ZeroDivisionError:
            try:
                apply(seen[-1][0], y)
            except ZeroDivisionError:
                continue
            raise AssertionError(f"{op} {operand} did not raise ZeroDivisionError")
        got = apply(seen[-1][0], y)
        assert_same(got, want)
        if op != "**":
            assert (got == y) == (want == z)
        for g, w in seen:
            assert (got == g) == (want == w)
        seen.append((got, want))
        if len(want.num) + len(want.den) > MAX_TERMS:
            break
