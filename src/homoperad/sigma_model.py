"""Jackson-derivation model on a truncated polynomial ring.

Elements of K[t]/(t^N) are coefficient vectors (t^0 .. t^{N-1}).  The
endomorphism sigma scales t^n by q^n and the q-derivation D_q sends t^n
to [n]_q t^{n-1}.  The bracket on A.D_q is sigma(a) D_q(b) - sigma(b)
D_q(a).  Truncation is a surrogate for the full polynomial ring, so any
product that would spill past degree N-1 raises instead of silently
dropping terms.

An output entry is a ``RatFunc`` exactly when a rational function took
part in it, and a ``Fraction`` otherwise (``Fraction(0)`` where nothing
did).  ``sigma`` multiplies every entry, zeros included, so under a
symbolic q its entries are all rational functions; products and ``delta``
skip zero entries, a zero ``RatFunc`` too, which so take part in nothing.
Mixed operations put the rational function on the left, where it answers
without ``Fraction``'s failed dispatch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate


class TruncationOverflow(ValueError):
    """A product exceeded the degree bound of the truncated model."""


class SigmaDerivationModel:
    """K[t]/(t^N), sigma and D_q; the constructor trusts that N >= 1."""

    def __init__(self, N: int, q):
        self.N = N
        self.q = q
        self.q_powers = [q**n for n in range(N)]
        # [n]_q = 1 + q + ... + q^{n-1} for n = 1 .. N-1, stored at n - 1
        self.q_numbers = list(accumulate(self.q_powers[:-1]))

    def zero(self):
        return [Fraction(0)] * self.N

    def monomial(self, n: int, coeff=Fraction(1)):
        if not 0 <= n < self.N:
            raise TruncationOverflow(f"t^{n} outside K[t]/(t^{self.N})")
        v = self.zero()
        v[n] = coeff
        return v

    def _terms(self, x, y):
        """The products x_i y_j of nonzero entries as (i + j, x_i y_j),
        after checking that the product of x and y fits."""
        xs = [(i, a) for i, a in enumerate(x) if a]
        ys = [(j, b) for j, b in enumerate(y) if b]
        if xs and ys and xs[-1][0] + ys[-1][0] >= self.N:
            raise TruncationOverflow(
                f"degree {xs[-1][0]} * degree {ys[-1][0]} product exceeds"
                f" t^{self.N - 1}"
            )
        return [(i + j, a * b) for i, a in xs for j, b in ys]

    def multiply(self, x, y):
        out = self.zero()
        for k, v in self._terms(x, y):
            out[k] = v + out[k]
        return out

    def sigma(self, vec):
        """The algebra endomorphism t^n -> q^n t^n."""
        return [p * c for c, p in zip(vec, self.q_powers)]

    def delta(self, vec):
        """The Jackson derivation: D_q(t^n) = (1 + q + ... + q^{n-1}) t^{n-1}."""
        out = self.zero()
        for n, (b, c) in enumerate(zip(self.q_numbers, vec[1:])):
            if c:
                out[n] = b * c
        return out


def _bracket(model: SigmaDerivationModel, sa, da, sb, db):
    """sigma(a) D_q(b) - sigma(b) D_q(a), given sigma and D_q of a and b."""
    out = model.multiply(sa, db)
    for k, v in model._terms(sb, da):
        out[k] = out[k] - v
    return out


def sigma_bracket(model: SigmaDerivationModel, a, b):
    """[a.D, b.D] = (sigma(a) D_q(b) - sigma(b) D_q(a)).D as a vector."""
    sigma, delta = model.sigma, model.delta
    return _bracket(model, sigma(a), delta(a), sigma(b), delta(b))


def check_six_term_jacobi(model: SigmaDerivationModel, a, b, c):
    """Defect of the deformed six-term Jacobi identity with delta = q:
    the cyclic sum of [sigma(x).D, [y.D, z.D]] + q [x.D, [y.D, z.D]].
    sigma and D_q of a, b, c, and of each cycle's inner bracket, are
    computed once."""
    q, sigma, delta = model.q, model.sigma, model.delta
    ta, tb, tc = ((sigma(x), delta(x)) for x in (a, b, c))
    out = model.zero()
    for (sx, dx), (sy, dy), (sz, dz) in ((ta, tb, tc), (tb, tc, ta), (tc, ta, tb)):
        inner = _bracket(model, sy, dy, sz, dz)
        si, di = sigma(inner), delta(inner)
        term = _bracket(model, sigma(sx), delta(sx), si, di)
        extra = _bracket(model, sx, dx, si, di)
        out = [q * t + s + p for p, s, t in zip(out, term, extra)]
    return out
