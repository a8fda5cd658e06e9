"""Jackson-derivation model on a truncated polynomial ring.

Elements of K[t]/(t^N) are coefficient vectors (t^0 .. t^{N-1}).  The
endomorphism sigma scales t^n by q^n and the q-derivation D_q sends t^n
to [n]_q t^{n-1}.  The bracket on A.D_q is sigma(a) D_q(b) - sigma(b)
D_q(a).  Truncation is a surrogate for the full polynomial ring, so any
product that would spill past degree N-1 raises instead of silently
dropping terms.
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

    def degree(self, vec) -> int:
        d = -1
        for n, c in enumerate(vec):
            if c:
                d = n
        return d

    def multiply(self, x, y):
        dx, dy = self.degree(x), self.degree(y)
        if dx >= 0 and dy >= 0 and dx + dy > self.N - 1:
            raise TruncationOverflow(
                f"degree {dx} * degree {dy} product exceeds t^{self.N - 1}"
            )
        out = self.zero()
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if b:
                    out[i + j] = out[i + j] + a * b
        return out

    def sigma(self, vec):
        """The algebra endomorphism t^n -> q^n t^n."""
        return [c * p for c, p in zip(vec, self.q_powers)]

    def delta(self, vec):
        """The Jackson derivation: D_q(t^n) = (1 + q + ... + q^{n-1}) t^{n-1}."""
        out = self.zero()
        for n, (b, c) in enumerate(zip(self.q_numbers, vec[1:])):
            if c:
                out[n] = b * c
        return out


def sigma_bracket(model: SigmaDerivationModel, a, b):
    """[a.D, b.D] = (sigma(a) D_q(b) - sigma(b) D_q(a)).D as a vector."""
    return [
        x - y
        for x, y in zip(
            model.multiply(model.sigma(a), model.delta(b)),
            model.multiply(model.sigma(b), model.delta(a)),
        )
    ]


def check_six_term_jacobi(model: SigmaDerivationModel, a, b, c):
    """Defect of the deformed six-term Jacobi identity with delta = q:
    the cyclic sum of [sigma(x).D, [y.D, z.D]] + q [x.D, [y.D, z.D]]."""
    q = model.q
    out = model.zero()
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = sigma_bracket(model, y, z)
        term = sigma_bracket(model, model.sigma(x), inner)
        extra = [q * v for v in sigma_bracket(model, x, inner)]
        out = [p + s + t for p, s, t in zip(out, term, extra)]
    return out
