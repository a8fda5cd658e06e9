from fractions import Fraction

import pytest

from homoperad.scalars import RatFunc
from homoperad.sigma_model import (
    SigmaDerivationModel,
    TruncationOverflow,
    check_six_term_jacobi,
    sigma_bracket,
)


def test_sigma_and_delta_on_monomials():
    M = SigmaDerivationModel(5, Fraction(3))
    t2 = M.monomial(2)
    assert M.sigma(t2) == M.monomial(2, Fraction(9))
    # D_q(t^2) = (1 + q) t
    assert M.delta(t2) == M.monomial(1, Fraction(4))
    assert M.delta(M.monomial(0)) == M.zero()


def test_bracket_t_t2():
    q = RatFunc.q()
    M = SigmaDerivationModel(6, q)
    got = sigma_bracket(M, M.monomial(1), M.monomial(2))
    assert got == M.monomial(2, q)


def test_bracket_is_alternating():
    M = SigmaDerivationModel(8, Fraction(2))
    for n in range(4):
        v = M.monomial(n)
        assert sigma_bracket(M, v, v) == M.zero()
    a, b = M.monomial(1), M.monomial(3)
    lhs = sigma_bracket(M, a, b)
    rhs = sigma_bracket(M, b, a)
    assert [x + y for x, y in zip(lhs, rhs)] == M.zero()


def test_bracket_constant_with_t():
    M = SigmaDerivationModel(4, Fraction(5))
    got = sigma_bracket(M, M.monomial(0), M.monomial(1))
    assert got == M.monomial(0)


def test_six_term_jacobi_numeric():
    for q in (Fraction(2), Fraction(1, 3)):
        M = SigmaDerivationModel(12, q)
        for i in range(12):
            for j in range(i, 12):
                for k in range(j, 12):
                    if i + j + k > M.N + 1 or j + k > M.N:
                        continue
                    d = check_six_term_jacobi(
                        M, M.monomial(i), M.monomial(j), M.monomial(k)
                    )
                    assert d == M.zero(), (q, i, j, k)


def test_six_term_jacobi_symbolic():
    M = SigmaDerivationModel(8, RatFunc.q())
    for i in range(8):
        for j in range(i, 8):
            for k in range(j, 8):
                if i + j + k > M.N + 1 or j + k > M.N:
                    continue
                d = check_six_term_jacobi(
                    M, M.monomial(i), M.monomial(j), M.monomial(k)
                )
                assert d == M.zero(), (i, j, k)


def test_truncation_overflow():
    M = SigmaDerivationModel(4, Fraction(2))
    with pytest.raises(TruncationOverflow):
        M.multiply(M.monomial(2), M.monomial(2))
    with pytest.raises(TruncationOverflow):
        M.monomial(4)
    with pytest.raises(TruncationOverflow):
        sigma_bracket(M, M.monomial(3), M.monomial(2))


def test_multiplying_by_zero_never_overflows():
    M = SigmaDerivationModel(3, Fraction(2))
    assert M.multiply(M.zero(), M.monomial(2)) == M.zero()


def test_bracket_of_monomials_has_its_closed_form():
    """[t^i, t^j] = (q^i [j]_q - q^j [i]_q) t^(i+j-1) for i + j <= N, with
    the right side built as an integer polynomial in q."""
    N = 8
    M = SigmaDerivationModel(N, RatFunc.q())
    for i in range(N):
        for j in range(min(N - i + 1, N)):
            coeffs = [0] * N
            for n in range(i, i + j):  # q^i [j]_q = q^i + ... + q^(i+j-1)
                coeffs[n] += 1
            for n in range(j, j + i):
                coeffs[n] -= 1
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            got = sigma_bracket(M, M.monomial(i), M.monomial(j))
            for n, c in enumerate(got):
                if n != i + j - 1 or not coeffs:
                    assert not c, (i, j, n)
                else:
                    assert c.den == (Fraction(1),), (i, j)
                    assert c.num == tuple(map(Fraction, coeffs)), (i, j)
