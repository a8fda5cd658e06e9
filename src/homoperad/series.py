"""Truncated bivariate power series and Hilbert-series computation.

The counting variables are a (unary-vertex degree) and m (binary-vertex
degree); the coefficients are integer counts.  Series are computed over
plane monomials directly, so the coefficients are the plane counts.  The
free series is the count of the empty rule set, by the same automaton.
"""

from __future__ import annotations

from .automata import SINK, BottomUpAutomaton, determinize, grammar_from_rules, minimize


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
    state 0 being the leaf's.  Every production raises the total degree by
    exactly one, so the counts of degree n follow from those below it: one
    pass, degree by degree."""
    # g[b][n][i]: monomials in state b with i a-vertices and n - i m-vertices
    g = [[[0] * (n + 1) for n in range(D + 1)] for _ in aut.states]
    g[0][0][0] = 1
    a_moves = [(c, b) for c, b in enumerate(aut.f_a) if b != SINK]
    # The m-transitions into b with left state c share one convolution with
    # the sum over their right states d of g[d]; sums[n] is its degree n.
    rights = {}
    for c, row in enumerate(aut.f_m):
        for d, b in enumerate(row):
            if b != SINK:
                rights.setdefault((b, c), []).append(d)
    groups = [(b, c, ds, []) for (b, c), ds in rights.items()]

    for n in range(1, D + 1):
        for _, _, ds, sums in groups:
            sums.append(list(map(sum, zip(*(g[d][n - 1] for d in ds)))))
        for c, b in a_moves:
            row = g[b][n]
            for i, k in enumerate(g[c][n - 1]):
                row[i + 1] += k
        for b, c, _, sums in groups:
            row, lefts = g[b][n], g[c]
            for n1 in range(n):
                left, right = lefts[n1], sums[n - 1 - n1]
                if not any(left):
                    continue
                for i1, k1 in enumerate(left):
                    if k1:
                        for i2, k2 in enumerate(right):
                            row[i1 + i2] += k1 * k2
    return [
        BivariateSeries(
            D, {(i, n - i): k for n, row in enumerate(rows) for i, k in enumerate(row)}
        )
        for rows in g
    ]


def hilbert_series(rules, D: int) -> BivariateSeries:
    """Count of irreducible plane monomials by grading: the sum of G_B over
    the classes B of the minimized automaton.  Every live state is in one
    class, and the series of a class is the sum of its states' series,
    because the transitions respect the classes.  A pattern of more than D
    vertices fits no monomial counted, so only the rules of order <= D
    build the automaton."""
    rules = [r for r in rules if r.order <= D]
    g = solve_series(minimize(determinize(grammar_from_rules(rules))), D)
    return sum(g, BivariateSeries(D))


def unstable_degrees(rules, stable_gradings, D: int) -> list[tuple[int, int]]:
    """Degrees (i, j) with i+j <= D not guaranteed stable by any processed
    grading (k, l) via i <= k and j <= l.  An empty ``stable_gradings``
    means nothing was declared and every degree is suspect, except the
    a-free ones when every rule pattern holds an a: those stay free counts."""
    every_pattern_has_a = all("a" in r.lhs.word for r in rules)
    out = []
    for total in range(D + 1):
        for i in range(total + 1):
            j = total - i
            if i == 0 and every_pattern_has_a:
                continue
            if not any(i <= k and j <= l for k, l in stable_gradings):
                out.append((i, j))
    return out
