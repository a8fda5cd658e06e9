"""Truncated bivariate power series and Hilbert-series computation.

The counting variables are a (unary-vertex degree) and m (binary-vertex
degree); the coefficients are integer counts.  Series are computed over
plane monomials directly, so the coefficients are the plane counts.  The
free series is the count of the empty rule set, by the same automaton.
"""

from __future__ import annotations

from bisect import bisect_left
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
    gives them only up to that degree.  The states must be numbered by
    least degree, as ``determinize`` numbers them."""
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

    The pass works only where a count can be nonzero.  ``determinize``
    numbers the states by least degree, so the states first reached at
    degree n are the next ones in number order, those whose count of
    degree n is their first nonzero one; rows and columns, numbered as
    their first states appear, come in the same order.  A row or column is
    summed from its least degree on, and one of a single state reads that
    state's counts.  The group of a column of least degree k whose first
    row has least degree lo is zero below degree lo + k + 1: it starts
    there, and at degree n pairs only the row degrees lo..n-1-k with the
    column's, filling the sum of its rows up to degree n-1-k as it goes,
    each row from its own least degree on (a group of one row reads that
    row's sums).  States that degree D does not reach keep a zero series.

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
    in_row = [[] for _ in aut.table]
    in_col = [[] for _ in range(max(aut.right) + 1)]
    for x, l, r in zip(g, aut.left, aut.right):
        in_row[l].append(x)
        in_col[r].append(x)
    # the counts of a row's or a column's states summed by degree; only a
    # row or column of several states keeps its list of states to sum
    row_sums = [xs[0] if len(xs) == 1 else [0] * (D + 1) for xs in in_row]
    col_sums = [xs[0] if len(xs) == 1 else [0] * (D + 1) for xs in in_col]
    in_row = [xs if len(xs) > 1 else None for xs in in_row]
    in_col = [xs if len(xs) > 1 else None for xs in in_col]
    # one m-move per column and target, keyed by target * cols + column:
    # the rows whose entries in that column are the target; the table is
    # read by rows, so each group's rows, and the groups by their first
    # rows, come in row order
    cols = len(in_col)
    groups = {}
    for l, targets in enumerate(aut.table):
        for r, b in enumerate(targets):
            if b != SINK:
                groups.setdefault(b * cols + r, []).append(l)
    keys = list(groups)
    firsts = [rows[0] for rows in groups.values()]
    several = [rows if len(rows) > 1 else () for rows in groups.values()]
    del groups
    by_col = [[] for _ in range(cols)]  # the groups of each column, in order
    for j, key in enumerate(keys):
        by_col[key % cols].append(j)

    row_deg, col_deg = [], []  # the least degree of each row, column reached
    summed = []  # (sums, states) of each row and column reached of several states
    a_from, a_to = [], []
    starts = [[] for _ in range(D + 1)]  # [n]: the groups that start at degree n
    # the m-moves started, one list per field, which keeps the garbage
    # collector's work to a few large lists: the sums of the rows by degree,
    # the rows when there are several, the column's sums, the target, the
    # first row's least degree lo and the column's k
    hists, rowss, yss, zs, los, ks = [], [], [], [], [], []
    rows_at = [0]  # [j]: the number of rows of least degree below j

    reached = i = 0  # the states reached; the first group not started by its row
    for n in range(1, D + 1):
        # the states first reached at degree n - 1, their rows and columns,
        # and the groups whose first row and column both are now reached
        d, old_cols = n - 1, len(col_deg)
        while reached < len(g) and g[reached][d]:
            c, x = reached, g[reached]
            reached += 1
            l, r = aut.left[c], aut.right[c]
            if l == len(row_deg):
                row_deg.append(d)
                if in_row[l]:
                    summed.append((row_sums[l], in_row[l]))
            if r == len(col_deg):
                col_deg.append(d)
                if in_col[r]:
                    summed.append((col_sums[r], in_col[r]))
            if c < len(aut.f_a) and aut.f_a[c] != SINK:
                a_from.append(x)
                a_to.append(g[aut.f_a[c]])
        rows_at.append(len(row_deg))
        while i < len(firsts) and firsts[i] < len(row_deg):
            r = keys[i] % cols
            if r < len(col_deg) and d + col_deg[r] < D:
                starts[d + col_deg[r] + 1].append(i)
            i += 1
        for r in range(old_cols, len(col_deg)):
            for j in by_col[r]:
                if firsts[j] >= rows_at[d]:
                    break
                if row_deg[firsts[j]] + d < D:
                    starts[row_deg[firsts[j]] + d + 1].append(j)

        for sums, xs in summed:
            sums[d] = sum(x[d] for x in xs)
        for x, y in zip(a_from, a_to):
            y[n] += x[d] << W
        for j in starts[n]:
            (b, r), l, rows = divmod(keys[j], cols), firsts[j], several[j]
            lo = row_deg[l]
            hists.append([0] * lo if rows else row_sums[l])
            rowss.append(rows)
            yss.append(col_sums[r])
            zs.append(g[b])
            los.append(lo)
            ks.append(col_deg[r])
        for hist, rows, ys, z, lo, k in zip(hists, rowss, yss, zs, los, ks):
            if rows:
                # only the rows of least degree <= d - k add to degree d - k
                live = rows[: bisect_left(rows, rows_at[n - k])]
                hist.append(sum(row_sums[l][d - k] for l in live))
            z[n] += sum(map(mul, hist[lo : n - k], reversed(ys[k : n - lo])))
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
