from fractions import Fraction

import pytest

from homoperad.automata import determinize, grammar_from_rules
from homoperad.completion import complete
from homoperad.orders import LEX_MA
from homoperad.rewrite import RewritingSystem, parse_rules
from homoperad.series import (
    BivariateSeries,
    format_series,
    free_series,
    hilbert_series,
    solve_series,
)
from homoperad.terms import HOM_SIGNATURE, plane_count

HOMASS_RULE = "m a 1 m 2 3 -> m m 1 2 a 3"

# coefficient of a^i m^j in the Hilbert series of the quotient, computed
# with the rewriting system completed through order 8
HILBERT_8 = {
    (0, 0): 1, (0, 1): 1, (1, 0): 1,
    (0, 2): 2, (1, 1): 3, (2, 0): 1,
    (0, 3): 5, (1, 2): 9, (2, 1): 6, (3, 0): 1,
    (0, 4): 14, (1, 3): 30, (2, 2): 26, (3, 1): 10, (4, 0): 1,
    (0, 5): 42, (1, 4): 105, (2, 3): 110, (3, 2): 60, (4, 1): 15, (5, 0): 1,
    (0, 6): 132, (1, 5): 378, (2, 4): 465, (3, 3): 315, (4, 2): 120,
    (5, 1): 21, (6, 0): 1,
    (0, 7): 429, (1, 6): 1386, (2, 5): 1960, (3, 4): 1575, (4, 3): 770,
    (5, 2): 217, (6, 1): 28, (7, 0): 1,
    (0, 8): 1430, (1, 7): 5148, (2, 6): 8232, (3, 5): 7644, (4, 4): 4494,
    (5, 3): 1680, (6, 2): 364, (7, 1): 36, (8, 0): 1,
}

# free count minus Hilbert coefficient, where they differ within degree 8
DIFFERENCE_8 = {
    (1, 2): 1, (2, 2): 4, (3, 2): 10, (4, 2): 20, (5, 2): 35, (6, 2): 56,
    (1, 3): 5, (2, 3): 30, (3, 3): 105, (4, 3): 280, (5, 3): 630,
    (1, 4): 21, (2, 4): 165, (3, 4): 735, (4, 4): 2436,
    (1, 5): 84, (2, 5): 812, (3, 5): 4368,
    (1, 6): 330, (2, 6): 3780,
    (1, 7): 1287,
}


def scale(x, c):
    """Reference: c times the series x."""
    out = BivariateSeries(x.D)
    if c:
        out.coeffs = {k: c * v for k, v in x.coeffs.items()}
    return out


def sub(x, y):
    """Reference: the series x - y, truncated at the lower degree."""
    return x + scale(y, -1)


def completed_rules(max_order):
    rules = parse_rules(HOMASS_RULE, HOM_SIGNATURE, LEX_MA)
    system = RewritingSystem(HOM_SIGNATURE, LEX_MA, rules)
    state = complete(system, max_order=max_order)
    assert state.status == "complete"
    return state.system.rules


def test_series_arithmetic():
    x = BivariateSeries(3, {(0, 0): 1, (1, 0): 2})
    y = BivariateSeries(3, {(1, 0): -2, (0, 1): 1})
    assert (x + y).coeffs == {(0, 0): Fraction(1), (0, 1): Fraction(1)}
    assert (x * y).coefficient(1, 1) == 2
    assert sub(x, x) == BivariateSeries(3)
    assert sub(x, y).coeffs == {(0, 0): 1, (1, 0): 4, (0, 1): -1}


# at degree 40 the counts pass 2^64, and the largest fills its packed slot
# but for the one spare bit
@pytest.mark.parametrize("D", [12, 40])
def test_free_series_matches_enumeration(D):
    f = free_series(D)
    for k in range(D + 1):
        for l in range(D + 1 - k):
            assert f.coefficient(k, l) == plane_count(k, l)


def test_free_series_matches_empty_automaton_fixed_point():
    aut = determinize(grammar_from_rules([]))
    total = sum(solve_series(aut, 12), BivariateSeries(12))
    assert total == free_series(12)


def test_catalan_column():
    h = hilbert_series(completed_rules(8), 8)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for l, c in enumerate(catalan):
        assert h.coefficient(0, l) == c


def test_hilbert_degree_eight_coefficients():
    h = hilbert_series(completed_rules(8), 8)
    for total in range(9):
        for i in range(total + 1):
            j = total - i
            assert h.coefficient(i, j) == HILBERT_8[(i, j)], (i, j)


def test_difference_from_free_series():
    h = hilbert_series(completed_rules(8), 8)
    f = free_series(8)
    diff = sub(f, h)
    for total in range(9):
        for i in range(total + 1):
            j = total - i
            assert diff.coefficient(i, j) == DIFFERENCE_8.get((i, j), 0), (i, j)


def test_refining_rules_never_raises_coefficients():
    h5 = hilbert_series(completed_rules(5), 9)
    h8 = hilbert_series(completed_rules(8), 9)
    for total in range(10):
        for i in range(total + 1):
            assert h8.coefficient(i, total - i) <= h5.coefficient(i, total - i)


def test_format_series_layout():
    x = BivariateSeries(1, {(0, 1): 3})
    assert format_series(x) == "a^0 m^0\t0\na^0 m^1\t3\na^1 m^0\t0\n"
