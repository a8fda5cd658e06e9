"""Finite-dimensional hom-algebras: identity checkers, twists, q-deformed
sl2, and emission of enveloping presentations as ground rewriting rules.

Vectors are lists of scalars in the basis e_1..e_n.  The structure
constants satisfy m(e_i, e_j) = mult[i][j] (a vector), and alpha is a
matrix acting by alpha(e_j) = sum_i alpha[i][j] e_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .linear import LinComb
from .orders import LEX_MA, TermOrder
from .rewrite import Rule, format_rules, make_rule, orient
from .scalars import format_scalar, parse_scalar
from .terms import Context, Signature


def _zeros(n):
    return [Fraction(0)] * n


def vec_add(x, y):
    return [a + b for a, b in zip(x, y)]


def vec_sub(x, y):
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


def vec_is_zero(x):
    return all(not a for a in x)


class FiniteHomAlgebra:
    """A triplet (A, m, alpha) given by structure constants over an exact
    scalar field.  ``bracket`` marks tables meant as a bracket product."""

    def __init__(self, dim: int, mult, alpha, bracket: bool = False):
        self.dim = dim
        if len(mult) != dim or any(
            len(row) != dim or any(len(v) != dim for v in row) for row in mult
        ):
            raise ValueError("structure constant array has wrong shape")
        if len(alpha) != dim or any(len(row) != dim for row in alpha):
            raise ValueError("alpha matrix has wrong shape")
        self.mult = [[list(mult[i][j]) for j in range(dim)] for i in range(dim)]
        self.alpha = [list(row) for row in alpha]
        self.bracket = bracket
        # the nonzero structure constants (k, c) of m(e_i, e_j)
        self._terms = [[[(k, c) for k, c in enumerate(v) if c] for v in row]
                       for row in self.mult]

    def basis(self, i):
        v = _zeros(self.dim)
        v[i] = Fraction(1)
        return v

    def multiply(self, x, y):
        out = _zeros(self.dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                s = xi * yj
                for k, c in self._terms[i][j]:
                    out[k] = out[k] + s * c
        return out

    def map_alpha(self, x):
        return self.apply_matrix(self.alpha, x)

    def apply_matrix(self, mat, x):
        out = _zeros(self.dim)
        for j, xj in enumerate(x):
            if not xj:
                continue
            for i, row in enumerate(mat):
                if row[j]:
                    out[i] = out[i] + row[j] * xj
        return out

    @staticmethod
    def bracket_from_pairs(dim: int, pairs: dict, alpha) -> "FiniteHomAlgebra":
        """Build a skew table from brackets [e_i, e_j] for i < j only; the
        diagonal is forced to zero and j > i entries are the negatives."""
        mult = [[_zeros(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in pairs.items():
            if not i < j:
                raise ValueError(f"bracket pairs must have i < j, got ({i},{j})")
            mult[i][j] = list(v)
            mult[j][i] = vec_scale(Fraction(-1), v)
        return FiniteHomAlgebra(dim, mult, alpha, bracket=True)


Violation = tuple  # (basis index tuple, defect vector)


def _walk(A: FiniteHomAlgebra, indices, defect) -> list[Violation]:
    """The nonzero defects over basis index tuples, in the order of
    ``indices``.  ``defect`` takes the basis vectors at a tuple's indices,
    one shared vector per index, and returns a vector."""
    basis = [A.basis(i) for i in range(A.dim)]
    out = []
    for idx in indices:
        d = defect(*(basis[i] for i in idx))
        if not vec_is_zero(d):
            out.append((idx, d))
    return out


def check_hom_associative(A: FiniteHomAlgebra) -> list[Violation]:
    def defect(x, y, z):
        return vec_sub(
            A.multiply(A.map_alpha(x), A.multiply(y, z)),
            A.multiply(A.multiply(x, y), A.map_alpha(z)),
        )

    return _walk(A, product(range(A.dim), repeat=3), defect)


def check_hom_jacobi(A: FiniteHomAlgebra) -> list[Violation]:
    def defect(x, y, z):
        cyclic = ((x, y, z), (y, z, x), (z, x, y))
        terms = [A.multiply(A.map_alpha(p), A.multiply(q, r)) for p, q, r in cyclic]
        return [a + b + c for a, b, c in zip(*terms)]

    return _walk(A, product(range(A.dim), repeat=3), defect)


def check_skew(A: FiniteHomAlgebra) -> list[Violation]:
    """m(x, y) + m(y, x) on pairs i < j, and m(x, x) on the diagonal."""

    def defect(x, y):
        if x is y:
            return A.multiply(x, x)
        return vec_add(A.multiply(x, y), A.multiply(y, x))

    return _walk(A, combinations_with_replacement(range(A.dim), 2), defect)


def check_multiplicative(A: FiniteHomAlgebra) -> list[Violation]:
    """Defects of alpha(m(x,y)) = m(alpha(x), alpha(y)) on basis pairs."""
    return weak_morphism_violations(A, A.alpha)


def associator(A: FiniteHomAlgebra, x, y, z):
    """m(m(x,y),z) - m(x,m(y,z)): the plain (untwisted) associativity defect."""
    return vec_sub(
        A.multiply(A.multiply(x, y), z), A.multiply(x, A.multiply(y, z))
    )


def weak_morphism_violations(A: FiniteHomAlgebra, beta) -> list[Violation]:
    """Defects of beta(m(x,y)) = m(beta(x), beta(y)) on basis pairs."""

    def defect(x, y):
        return vec_sub(
            A.multiply(A.apply_matrix(beta, x), A.apply_matrix(beta, y)),
            A.apply_matrix(beta, A.multiply(x, y)),
        )

    return _walk(A, product(range(A.dim), repeat=2), defect)


def yau_twist(A: FiniteHomAlgebra, beta) -> FiniteHomAlgebra:
    """The twisted algebra (A, beta.m, beta.alpha).  The weak-morphism
    precondition is reported by weak_morphism_violations, not enforced."""
    n = A.dim
    mult = [
        [A.apply_matrix(beta, A.mult[i][j]) for j in range(n)] for i in range(n)
    ]
    alpha = [
        [
            sum((beta[i][k] * A.alpha[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return FiniteHomAlgebra(n, mult, alpha, bracket=A.bracket)


def commutator_algebra(A: FiniteHomAlgebra) -> FiniteHomAlgebra:
    """A^- = (A, m(x,y) - m(y,x), alpha).  Input must be a plain algebra
    table, not one already marked as a bracket."""
    if A.bracket:
        raise TypeError("commutator of a bracket table is not defined")
    n = A.dim
    mult = [
        [vec_sub(A.mult[i][j], A.mult[j][i]) for j in range(n)] for i in range(n)
    ]
    return FiniteHomAlgebra(n, mult, A.alpha, bracket=True)


def centroid_violations(A: FiniteHomAlgebra, gamma) -> list[Violation]:
    """Defects of gamma(m(x,y)) = m(gamma(x), y) = m(x, gamma(y))."""
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis(i), A.basis(j)
            gm = A.apply_matrix(gamma, A.multiply(ei, ej))
            d1 = vec_sub(gm, A.multiply(A.apply_matrix(gamma, ei), ej))
            d2 = vec_sub(gm, A.multiply(ei, A.apply_matrix(gamma, ej)))
            if not vec_is_zero(d1):
                out.append(((i, j, "left"), d1))
            if not vec_is_zero(d2):
                out.append(((i, j, "right"), d2))
    return out


def is_unit(A: FiniteHomAlgebra, u) -> bool:
    return all(
        A.multiply(u, A.basis(i)) == A.basis(i)
        and A.multiply(A.basis(i), u) == A.basis(i)
        for i in range(A.dim)
    )


def q_sl2(q) -> FiniteHomAlgebra:
    """The q-deformation of sl2 on the basis (e, f, h):
    [h,f] = -2q f, [h,e] = 2e, [e,f] = (1+q)/2 h,
    alpha(e) = q e, alpha(f) = q^2 f, alpha(h) = q h."""
    half = Fraction(1, 2)
    zero = Fraction(0)
    pairs = {
        (0, 1): [zero, zero, half * (1 + q)],  # [e,f]
        (0, 2): [Fraction(-2), zero, zero],  # [e,h] = -[h,e] = -2e
        (1, 2): [zero, 2 * q, zero],  # [f,h] = -[h,f] = 2q f
    }
    alpha = [
        [q, zero, zero],
        [zero, q * q, zero],
        [zero, zero, q],
    ]
    return FiniteHomAlgebra.bracket_from_pairs(3, pairs, alpha)


def example1(a, b) -> FiniteHomAlgebra:
    """The 3-dimensional hom-associative family with parameters (a, b):
    products of basis elements land on a e_1, a e_2 or b e_3 and
    alpha = diag(a, a, b).  Not associative when a != b and b != 0."""
    zero = Fraction(0)
    z3 = [zero, zero, zero]
    e1 = [a, zero, zero]
    e2 = [zero, a, zero]
    e3b = [zero, zero, b]
    mult = [
        [e1, e2, e3b],
        [e2, e2, e3b],
        [e3b, z3, z3],
    ]
    alpha = [[a, zero, zero], [zero, a, zero], [zero, zero, b]]
    return FiniteHomAlgebra(3, mult, alpha)


# --- JSON file interface ----------------------------------------------------


def algebra_from_dict(doc: dict) -> FiniteHomAlgebra:
    n = doc["dim"]
    mult = [
        [[parse_scalar(s) for s in doc["mult"][i][j]] for j in range(n)]
        for i in range(n)
    ]
    alpha = [[parse_scalar(s) for s in row] for row in doc["alpha"]]
    return FiniteHomAlgebra(n, mult, alpha, bracket=bool(doc.get("bracket", False)))


class AlgebraFormatError(ValueError):
    """An algebra document that is not JSON or lacks a well-formed field."""


def load_algebra(text: str) -> FiniteHomAlgebra:
    try:
        return algebra_from_dict(json.loads(text))
    except KeyError as e:
        raise AlgebraFormatError(f"algebra document has no field {e}") from None
    except (IndexError, TypeError, ValueError) as e:
        raise AlgebraFormatError(f"malformed algebra document: {e}") from None


def algebra_to_dict(A: FiniteHomAlgebra) -> dict:
    doc = {
        "dim": A.dim,
        "mult": [
            [[format_scalar(c) for c in A.mult[i][j]] for j in range(A.dim)]
            for i in range(A.dim)
        ],
        "alpha": [[format_scalar(c) for c in row] for row in A.alpha],
    }
    if A.bracket:
        doc["bracket"] = True
    return doc


def dump_algebra(A: FiniteHomAlgebra) -> str:
    return json.dumps(algebra_to_dict(A), indent=2) + "\n"


# --- enveloping presentation ------------------------------------------------


@dataclass(frozen=True)
class EnvelopePresentation:
    signature: Signature
    rules: tuple[Rule, ...]
    order: TermOrder

    def to_text(self) -> str:
        return format_rules(self.rules, self.signature)


def envelope_presentation(
    L: FiniteHomAlgebra, names, order: TermOrder = LEX_MA
) -> EnvelopePresentation:
    """Ground presentation of the enveloping hom-associative algebra of a
    hom-Lie algebra: alpha-action rules, oriented commutator rules, and the
    hom-associativity rule over the signature {m/2, a/1} plus one constant
    per basis element."""
    if not L.bracket:
        raise TypeError("enveloping presentation expects a bracket table")
    if check_skew(L):
        raise ValueError("bracket table is not skew-symmetric")
    if len(names) != L.dim:
        raise ValueError("need one constant name per basis element")
    sig = Signature((("m", 2), ("a", 1)) + tuple((x, 0) for x in names))

    def const(i):
        return Context((names[i],), sig)

    rules = []
    for i in range(L.dim):
        lhs = Context(("a", names[i]), sig)
        rhs = LinComb(0)
        for j in range(L.dim):
            c = L.alpha[j][i]
            if c:
                rhs = rhs + LinComb.monomial(const(j), c)
        rules.append(make_rule(f"alpha_{names[i]}", lhs, rhs, order))

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            d = LinComb.monomial(Context(("m", names[i], names[j]), sig)) - (
                LinComb.monomial(Context(("m", names[j], names[i]), sig))
            )
            for k in range(L.dim):
                c = L.mult[i][j][k]
                if c:
                    d = d - LinComb.monomial(const(k), c)
            rules.append(orient(f"comm_{names[i]}_{names[j]}", d, order))

    from .terms import parse as parse_term

    homass = make_rule(
        "hom_assoc",
        parse_term("m a 1 m 2 3", sig),
        LinComb.monomial(parse_term("m m 1 2 a 3", sig)),
        order,
    )
    rules.append(homass)
    return EnvelopePresentation(sig, tuple(rules), order)
