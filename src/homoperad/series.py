"""Truncated bivariate power series and Hilbert-series computation.

The counting variables are a (unary-vertex degree) and m (binary-vertex
degree); the coefficients are integer counts.  Series are computed over
plane monomials directly, so the coefficients are the plane counts.  The
free series is the count of the empty rule set, by the same automaton.
"""

from __future__ import annotations

from operator import mul

from .automata import SINK, BottomUpAutomaton, determinize, grammar_from_rules
from .terms import plane_count


class BivariateSeries:
    """Coefficients for total degree <= D; zero coefficients not stored."""

    __slots__ = ("D", "coeffs")

    def __init__(self, D: int, coeffs: dict | None = None):
        self.D = D
        self.coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i + j <= D and c:
                    self.coeffs[(i, j)] = c

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self.D == other.D
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        D = min(self.D, other.D)
        out = BivariateSeries(D)
        for key in set(self.coeffs) | set(other.coeffs):
            if key[0] + key[1] > D:
                continue
            c = self.coeffs.get(key, 0) + other.coeffs.get(key, 0)
            if c:
                out.coeffs[key] = c
        return out

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        D = min(self.D, other.D)
        out = BivariateSeries(D)
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > D:
                    continue
                key = (i, j)
                s = out.coeffs.get(key, 0) + c1 * c2
                if s:
                    out.coeffs[key] = s
                else:
                    out.coeffs.pop(key, None)
        return out


def format_series(x: BivariateSeries) -> str:
    """One line `a^i m^j<TAB>n` per coefficient with i+j <= D, in graded
    lexicographic order; zero coefficients are included for completeness."""
    lines = []
    for total in range(x.D + 1):
        for i in range(total + 1):
            j = total - i
            lines.append(f"a^{i} m^{j}\t{x.coefficient(i, j)}")
    return "\n".join(lines) + "\n"


def free_series(D: int) -> BivariateSeries:
    """The count of all plane monomials over {m/2, a/1}: the Hilbert series
    of the empty rewriting system, every monomial of which is irreducible."""
    return hilbert_series((), D)


def solve_series(aut: BottomUpAutomaton, D: int) -> list:
    """Truncated at total degree D, the series G_b counting the plane
    monomials that the automaton sends to state b, listed by state:
    G_b = [b = 0] + a * sum_{f_a(c)=b} G_c + m * sum_{f_m(c,d)=b} G_c G_d,
    state 0 being the leaf's.  An automaton built with a degree bound
    gives them only up to that degree."""
    g, W = _packed_series(aut, D)
    return [_unpack(xs, D, W) for xs in g]


def _packed_series(aut: BottomUpAutomaton, D: int) -> tuple[list, int]:
    """The series G_b of ``solve_series``, packed, and the slot width W:
    ``g[b][n]`` holds the counts of G_b of total degree n.  Every
    production raises the total degree by exactly one, so the counts of
    degree n follow from those below it: one pass, degree by degree.
    Since f_m(c, d) reads only the row of c and the column of d in the
    table, the m-term of b is a sum over the entries of the table that hold
    b of a product of two series: the sum of the series of the entry's
    row's states, and the same for its column.  The entries of one column
    with one target share one product, with the sum of their rows' series.

    The counts of one state at degree n are packed into one int, the count
    with i a-vertices at bit W * i (Kronecker substitution), so an a-move
    is a shift by W and the product of two packed ints is the convolution
    of their counts.  Every partial sum is nonnegative and counts distinct
    monomials of one grading, since each monomial reaches one state or the
    sink, so it is at most the plane count of that grading; W has one bit
    more than the largest plane count of total degree <= D, so no slot
    ever carries into the next."""
    largest = max(plane_count(i, j) for j in range(D + 1) for i in range(D + 1 - j))
    W = 1 + largest.bit_length()
    g = [[0] * (D + 1) for _ in aut.states]
    g[0][0] = 1
    a_moves = [(g[c], g[b]) for c, b in enumerate(aut.f_a) if b != SINK]
    in_row = [[] for _ in aut.table]
    in_col = [[] for _ in range(max(aut.right) + 1)]
    for c in aut.states:
        in_row[aut.left[c]].append(g[c])
        in_col[aut.right[c]].append(g[c])
    # at degree n, the sums of a row's states by degree 0..n-1, and of a
    # column's by degree n-1..0, so that one map pairs the degrees to n - 1
    row_sums = [[] for _ in in_row]
    col_sums = [[] for _ in in_col]
    # one m-move per column and target: the rows whose entries in that
    # column are the target, and the sums of their series by degree
    groups = {}
    for l, targets in enumerate(aut.table):
        for r, b in enumerate(targets):
            if b != SINK:
                groups.setdefault((r, b), []).append(row_sums[l])
    m_moves = [(rows, [], col_sums[r], g[b]) for (r, b), rows in groups.items()]

    for n in range(1, D + 1):
        for sums, states in zip(row_sums, in_row):
            sums.append(sum(x[n - 1] for x in states))
        for sums, states in zip(col_sums, in_col):
            sums.insert(0, sum(x[n - 1] for x in states))
        for x, y in a_moves:
            y[n] += x[n - 1] << W
        for rows, sums, ys, z in m_moves:
            sums.append(sum(xs[n - 1] for xs in rows))
            z[n] += sum(map(mul, sums, ys))
    return g, W


def _unpack(xs, D: int, W: int) -> BivariateSeries:
    """The series whose counts of total degree n are packed in ``xs[n]``,
    the count with i a-vertices at bit W * i."""
    mask = (1 << W) - 1
    return BivariateSeries(
        D, {(i, n - i): x >> W * i & mask for n, x in enumerate(xs) for i in range(n + 1)}
    )


def hilbert_series(rules, D: int) -> BivariateSeries:
    """Count of irreducible plane monomials by grading: the sum of G_b over
    the live states b of the automaton bounded by D, which holds every
    state and transition that a monomial of <= D vertices reaches.  A
    pattern of more than D vertices fits no monomial counted, so only the
    rules of order <= D build the automaton.  The packed counts of the
    states are summed degree by degree and unpacked once: a sum counts
    distinct monomials of each grading, so it fits the slots as each
    state's counts do."""
    rules = [r for r in rules if r.order <= D]
    g, W = _packed_series(determinize(grammar_from_rules(rules), D), D)
    return _unpack(list(map(sum, zip(*g))), D, W)
