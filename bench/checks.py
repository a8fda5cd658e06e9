"""Checks made apart from homoperad: the paper's numbers, closed forms, a
term parser and redex matcher of the benchmark's own, and an evaluator in
a hom-associative algebra.

Nothing here imports homoperad.  Words are tuples of Polish tokens over
{m/2, a/1}: operation names are strings and input boxes are ints.  Every
check returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ARITY = {"m": 2, "a": 1}

# The paper's hom-associative rule census through order 14.
PAPER_CENSUS = {3: 1, 5: 1, 7: 1, 8: 2, 9: 1, 10: 4, 11: 7, 12: 12, 13: 19, 14: 38}

# The paper's derived rules of orders 5 and 7, verbatim.
PAPER_RULES = {
    5: "m m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4",
    7: "m m 1 m 2 a 3 a a m 4 5 -> m m 1 m 2 m 3 4 a a a 5",
}

# The paper's Hilbert series of the hom-associative operad through total
# degree 8: (a-degree, m-degree) -> number of irreducible plane monomials.
PAPER_HILBERT_8 = {
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


# --- words ------------------------------------------------------------------


def parse_word(text: str) -> tuple:
    """Polish tokens; `1`..`9` and `[n]` are boxes, anything else a symbol."""
    out = []
    for tok in text.split():
        if tok.isdigit():
            out.append(int(tok))
        elif tok.startswith("[") and tok.endswith("]"):
            out.append(int(tok[1:-1]))
        else:
            out.append(tok)
    return tuple(out)


def format_word(word) -> str:
    return " ".join(
        (str(t) if t <= 9 else f"[{t}]") if isinstance(t, int) else t for t in word
    )


def parse_sum(text: str) -> dict:
    """A signed sum `[-][c *] word {(+|-) [c *] word}` as {word: Fraction}."""
    tokens = text.split()
    if tokens == ["0"]:
        return {}
    if tokens and tokens[0].startswith("-") and len(tokens[0]) > 1:
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    out = {}
    sign, current = 1, []

    def flush():
        if not current:
            return
        if "*" in current:
            cut = current.index("*")
            coeff = Fraction(" ".join(current[:cut]))
            word = parse_word(" ".join(current[cut + 1 :]))
        else:
            coeff, word = Fraction(1), parse_word(" ".join(current))
        s = out.get(word, 0) + sign * coeff
        if s:
            out[word] = s
        else:
            out.pop(word, None)

    for tok in tokens:
        if tok in ("+", "-"):
            flush()
            sign = 1 if tok == "+" else -1
            current = []
        else:
            current.append(tok)
    flush()
    return out


def format_sum(terms: dict) -> str:
    """Inverse of parse_sum, for building `normalize --term` arguments."""
    parts = []
    for word, c in terms.items():
        sep = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        coeff = "" if mag == 1 else f"{mag} * "
        parts.append(f"{sep} {coeff}{format_word(word)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def parse_rules_text(text: str) -> list[tuple[tuple, dict]]:
    """`lhs -> rhs` lines as (lhs word, rhs sum)."""
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, right = line.split("->", 1)
        rules.append((parse_word(left), parse_sum(right)))
    return rules


def subterm_end(word, i: int) -> int:
    """Index one past the subterm rooted at ``i``."""
    need = 1
    while need:
        t = word[i]
        need += (0 if isinstance(t, int) else ARITY[t]) - 1
        i += 1
    return i


def match_at(pattern, word, pos: int) -> bool:
    """Does the linear pattern match the subterm of ``word`` rooted at
    ``pos``?  Pattern boxes match any whole subterm."""
    j = pos
    for tok in pattern:
        if isinstance(tok, int):
            j = subterm_end(word, j)
        elif j >= len(word) or word[j] != tok:
            return False
        else:
            j += 1
    return True


def redex_positions(word, patterns) -> list[tuple[int, int]]:
    """All (position, pattern index) pairs where a pattern matches."""
    return [
        (pos, k)
        for pos, tok in enumerate(word)
        if not isinstance(tok, int)
        for k, p in enumerate(patterns)
        if p[0] == tok and match_at(p, word, pos)
    ]


def grading(word) -> tuple[int, int]:
    return sum(1 for t in word if t == "a"), sum(1 for t in word if t == "m")


def arity(word) -> int:
    return sum(1 for t in word if isinstance(t, int))


def free_count(k: int, l: int) -> int:
    """Plane monomials with k unary and l binary vertices."""
    return factorial(k + 2 * l) // (factorial(k) * factorial(l) ** 2 * (l + 1))


# --- a hom-associative algebra ---------------------------------------------
#
# The Yau twist of the associative algebra of 3x3 integer matrices by the
# conjugation beta(X) = P X P^-1: m(x, y) = beta(xy) and alpha = beta.  P is
# unipotent, so beta has infinite order and integer entries throughout.

P = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
P_INV = ((1, -1, 1), (0, 1, -1), (0, 0, 1))


def mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def beta(x):
    return mat_mul(mat_mul(P, x), P_INV)


def evaluate(word, args):
    """Value of a monomial with Box_i bound to ``args[i-1]``."""
    stack = []
    for tok in reversed(word):
        if isinstance(tok, int):
            stack.append(args[tok - 1])
        elif tok == "a":
            stack.append(beta(stack.pop()))
        else:
            left, right = stack.pop(), stack.pop()
            stack.append(beta(mat_mul(left, right)))
    (value,) = stack
    return value


def evaluate_sum(terms: dict, args):
    n = len(P)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for word, c in terms.items():
        v = evaluate(word, args)
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * v[i][j]
    return tuple(tuple(row) for row in acc)


def random_args(rng, count: int):
    n = len(P)
    return [
        tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        for _ in range(count)
    ]


# --- q-polynomials ---------------------------------------------------------
#
# Integer polynomials in q as coefficient tuples, constant term first, with
# no trailing zeros.


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_sub(p, r):
    n = max(len(p), len(r))
    return poly_trim(
        (p[i] if i < len(p) else 0) - (r[i] if i < len(r) else 0) for i in range(n)
    )


def q_power_times_qint(i: int, j: int):
    """q^i [j]_q = q^i + q^(i+1) + ... + q^(i+j-1)."""
    return poly_trim([0] * i + [1] * j)


def sigma_bracket_closed_form(i: int, j: int):
    """Coefficient of t^(i+j-1) in [t^i, t^j] = sigma(t^i) D_q(t^j) -
    sigma(t^j) D_q(t^i): q^i [j]_q - q^j [i]_q."""
    return poly_sub(q_power_times_qint(i, j), q_power_times_qint(j, i))


# --- checks -----------------------------------------------------------------


def check_census(census: dict, upto: int = 14) -> list[str]:
    got = {o: n for o, n in census.items() if o <= upto}
    want = {o: n for o, n in PAPER_CENSUS.items() if o <= upto}
    return [] if got == want else [f"census through {upto}: {got} != paper {want}"]


def check_paper_rules(rules_text: str) -> list[str]:
    lines = {line.strip() for line in rules_text.splitlines()}
    return [f"paper rule missing: {r}" for r in PAPER_RULES.values() if r not in lines]


def check_reduced(rules) -> list[str]:
    """Each lhs has no redex of another rule; rhs monomials have none."""
    problems = []
    lhss = [lhs for lhs, _ in rules]
    for idx, (lhs, rhs) in enumerate(rules):
        others = lhss[:idx] + lhss[idx + 1 :]
        if redex_positions(lhs, others):
            problems.append(f"lhs {format_word(lhs)} is reducible by another rule")
        for mono in rhs:
            if redex_positions(mono, lhss):
                problems.append(f"rhs monomial {format_word(mono)} is reducible")
    return problems


def check_homogeneous(rules) -> list[str]:
    return [
        f"rule {format_word(lhs)} is not grading-homogeneous"
        for lhs, rhs in rules
        if any(grading(m) != grading(lhs) for m in rhs)
    ]


def check_sums_equal(left: dict, right: dict, rng, trials: int = 2) -> list[str]:
    """Both sums evaluate to the same matrix at seeded random arguments."""
    n = max((arity(w) for w in list(left) + list(right)), default=0)
    for _ in range(trials):
        args = random_args(rng, n)
        if evaluate_sum(left, args) != evaluate_sum(right, args):
            return [f"{format_sum(left)} and {format_sum(right)} evaluate apart"]
    return []


def check_rules_hold(rules, rng) -> list[str]:
    problems = []
    for lhs, rhs in rules:
        problems += check_sums_equal({lhs: Fraction(1)}, rhs, rng)
    return problems


def check_irreducible(terms: dict, patterns) -> list[str]:
    return [
        f"normal form keeps a redex in {format_word(w)}"
        for w in terms
        if redex_positions(w, patterns)
    ]


def check_hilbert(coeffs: dict, degree: int, brute: dict) -> list[str]:
    """Paper table through degree 8, brute-force counts above it, and the
    free count as an upper bound everywhere."""
    problems = []
    for total in range(degree + 1):
        for k in range(total + 1):
            key = (k, total - k)
            got = coeffs.get(key)
            if got is None:
                problems.append(f"coefficient a^{k} m^{total - k} missing")
                continue
            want = PAPER_HILBERT_8.get(key) if total <= 8 else brute.get(key)
            if want is None:
                problems.append(f"no reference count for a^{k} m^{total - k}")
            elif got != want:
                problems.append(f"a^{k} m^{total - k}: {got} != {want}")
            if got > free_count(*key):
                problems.append(f"a^{k} m^{total - k}: {got} exceeds the free count")
    return problems


def check_verdicts(stdout: str, identities) -> list[str]:
    want = [f"{name}\tPASS" for name in identities]
    got = stdout.splitlines()
    return [] if got == want else [f"verdicts {got} != {want}"]


def check_zero(vector, what: str) -> list[str]:
    return [] if not any(vector) else [f"{what}: non-zero defect {vector}"]


def check_bracket(vector, i: int, j: int, to_poly) -> list[str]:
    """``vector`` is [t^i, t^j]; ``to_poly`` turns an entry into a q-poly."""
    want = [()] * len(vector)
    if i + j >= 1:
        want[i + j - 1] = sigma_bracket_closed_form(i, j)
    got = [to_poly(c) for c in vector]
    return [] if got == want else [f"[t^{i}, t^{j}] = {got}, closed form {want}"]


# --- brute force ------------------------------------------------------------


def irreducible_counts(patterns, degree: int) -> dict:
    """Count plane monomials with no redex, grading by grading, for total
    degree <= ``degree``, by building them from irreducible subterms.  Boxes
    are all written 1: plane words match linear patterns the same way."""
    words = {(0, 0): [(1,)]}
    counts = {(0, 0): 1}
    by_root = {}
    for p in patterns:
        by_root.setdefault(p[0], []).append(p)

    def root_redex(w):
        return any(match_at(p, w, 0) for p in by_root.get(w[0], ()))

    for total in range(1, degree + 1):
        for k in range(total, -1, -1):
            l = total - k
            found = []
            if k:
                found += [("a",) + w for w in words[(k - 1, l)]]
            for k1 in range(k + 1):
                for l1 in range(l):
                    rights = words[(k - k1, l - 1 - l1)]
                    found += [("m",) + w1 + w2 for w1 in words[(k1, l1)] for w2 in rights]
            found = [w for w in found if not root_redex(w)]
            n = len(found)
            counts[(k, l)] = n
            if total < degree:
                words[(k, l)] = found
    return counts
