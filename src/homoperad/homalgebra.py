"""Finite-dimensional hom-algebras: identity checkers, twists, q-deformed
sl2, and emission of enveloping presentations as ground rewriting rules.

Vectors are lists of scalars in the basis e_1..e_n.  The structure
constants satisfy m(e_i, e_j) = mult[i][j] (a vector), and alpha is a
matrix acting by alpha(e_j) = sum_i alpha[i][j] e_i.

The identity checks evaluate each defect on a tuple of basis indices,
reading m(e_i, e_j) and the columns alpha(e_j) from the tables as sparse
(index, coeff) lists, so that a zero structure constant costs nothing; a
defect becomes a dense vector only when some term of it is non-zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .linear import LinComb
from .orders import LEX_MA, TermOrder
from .rewrite import RewritingSystem, make_rule, orient
from .scalars import ScalarParseError, format_scalar, parse_scalar
from .terms import Context, Signature, TermError, parse


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


def _columns(mat):
    """The nonzero entries (i, mat[i][j]) of each column j of a square
    matrix: the sparse images of the basis vectors."""
    n = len(mat)
    return [[(i, mat[i][j]) for i in range(n) if mat[i][j]] for j in range(n)]


def _sparse(x):
    """The nonzero entries (i, x[i]) of a dense vector."""
    return [(i, c) for i, c in enumerate(x) if c]


def _dense(n, x):
    """The dense vector of length n with the sparse entries x."""
    x = dict(x)
    return [x.get(k, Fraction(0)) for k in range(n)]


def _product(terms, x, y):
    """m(x, y) for sparse x and y, given the table's nonzero structure
    constants ``terms``; sparse, with cancelled entries dropped."""
    out = {}
    for i, a in x:
        row = terms[i]
        for j, b in y:
            s = a * b
            for k, c in row[j]:
                out[k] = out[k] + s * c if k in out else s * c
    return [(k, c) for k, c in out.items() if c]


def _apply(cols, x):
    """The matrix with sparse columns ``cols`` applied to sparse x."""
    out = {}
    for j, a in x:
        for i, c in cols[j]:
            out[i] = out[i] + c * a if i in out else c * a
    return [(i, c) for i, c in out.items() if c]


class FiniteHomAlgebra:
    """A triplet (A, m, alpha) given by structure constants over an exact
    scalar field.  ``bracket`` marks tables meant as a bracket product.
    The constructor trusts its caller and stores the dim x dim lists it is
    given, unchecked and uncopied; ``_parse_table`` checks outside input."""

    def __init__(self, dim: int, mult, alpha, bracket: bool = False):
        self.dim = dim
        self.mult = mult
        self.alpha = alpha
        self.bracket = bracket
        # the nonzero structure constants (k, c) of m(e_i, e_j)
        self._terms = [[[(k, c) for k, c in enumerate(v) if c] for v in row]
                       for row in self.mult]
        # the nonzero entries (i, c) of alpha(e_j)
        self._alpha_cols = _columns(self.alpha)

    def basis(self, i):
        v = _zeros(self.dim)
        v[i] = Fraction(1)
        return v

    def multiply(self, x, y):
        """m(x, y) of dense vectors, through the sparse ``_product``."""
        return _dense(self.dim, _product(self._terms, _sparse(x), _sparse(y)))

    def map_alpha(self, x):
        """alpha(x) of a dense vector, through the sparse ``_apply``."""
        return _dense(self.dim, _apply(self._alpha_cols, _sparse(x)))

    def apply_matrix(self, mat, x):
        """mat applied to a dense vector, through the sparse ``_apply``."""
        return _dense(self.dim, _apply(_columns(mat), _sparse(x)))

    @staticmethod
    def bracket_from_pairs(dim: int, pairs: dict, alpha) -> "FiniteHomAlgebra":
        """Build a skew table from brackets [e_i, e_j], trusted to be given
        for i < j only; the diagonal is zero and [e_j, e_i] = -[e_i, e_j]."""
        mult = [[_zeros(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in pairs.items():
            mult[i][j] = v
            mult[j][i] = vec_scale(Fraction(-1), v)
        return FiniteHomAlgebra(dim, mult, alpha, bracket=True)


Violation = tuple  # (basis index tuple, defect vector)


def _violations(n, defects) -> list[Violation]:
    """The nonzero defects, as dense vectors, in the order of ``defects``:
    triples (index tuple, plus, minus), where the defect is the sum of the
    sparse vectors in ``plus`` minus the sum of those in ``minus``."""
    out = []
    for idx, plus, minus in defects:
        if not any(plus) and not any(minus):
            continue
        d = _zeros(n)
        for v in plus:
            for k, c in v:
                d[k] = d[k] + c
        for v in minus:
            for k, c in v:
                d[k] = d[k] - c
        if not vec_is_zero(d):
            out.append((idx, d))
    return out


def _twisted_terms(A: FiniteHomAlgebra) -> dict:
    """m(alpha e_i, m(e_j, e_k)) for every ordered basis triple (i, j, k),
    in lexicographic order."""
    terms, cols = A._terms, A._alpha_cols
    return {
        (i, j, k): _product(terms, cols[i], terms[j][k])
        for i, j, k in product(range(A.dim), repeat=3)
    }


def check_hom_associative(A: FiniteHomAlgebra) -> list[Violation]:
    """m(alpha e_i, m(e_j, e_k)) - m(m(e_i, e_j), alpha e_k) on every
    ordered basis triple."""
    terms, cols = A._terms, A._alpha_cols
    return _violations(A.dim, (
        ((i, j, k), [t], [_product(terms, terms[i][j], cols[k])])
        for (i, j, k), t in _twisted_terms(A).items()
    ))


def check_hom_jacobi(A: FiniteHomAlgebra) -> list[Violation]:
    """The cyclic sum of m(alpha e_i, m(e_j, e_k)) on every ordered basis
    triple; each of the n^3 terms is computed once and read three times."""
    T = _twisted_terms(A)
    return _violations(A.dim, (
        ((i, j, k), [T[i, j, k], T[j, k, i], T[k, i, j]], ())
        for i, j, k in T
    ))


def check_skew(A: FiniteHomAlgebra) -> list[Violation]:
    """m(e_i, e_j) + m(e_j, e_i) on pairs i < j, and m(e_i, e_i) on the
    diagonal, read from the table."""
    terms = A._terms
    return _violations(A.dim, (
        ((i, j), [terms[i][i]] if i == j else [terms[i][j], terms[j][i]], ())
        for i, j in combinations_with_replacement(range(A.dim), 2)
    ))


def check_multiplicative(A: FiniteHomAlgebra) -> list[Violation]:
    """Defects of alpha(m(x,y)) = m(alpha(x), alpha(y)) on basis pairs."""
    return weak_morphism_violations(A, A.alpha)


def associator(A: FiniteHomAlgebra, x, y, z):
    """m(m(x,y),z) - m(x,m(y,z)): the plain (untwisted) associativity defect."""
    return vec_sub(
        A.multiply(A.multiply(x, y), z), A.multiply(x, A.multiply(y, z))
    )


def weak_morphism_violations(A: FiniteHomAlgebra, beta) -> list[Violation]:
    """Defects m(beta e_i, beta e_j) - beta(m(e_i, e_j)) of
    beta(m(x,y)) = m(beta(x), beta(y)) on ordered basis pairs."""
    terms, cols = A._terms, _columns(beta)
    return _violations(A.dim, (
        ((i, j), [_product(terms, cols[i], cols[j])], [_apply(cols, terms[i][j])])
        for i, j in product(range(A.dim), repeat=2)
    ))


def yau_twist(A: FiniteHomAlgebra, beta) -> FiniteHomAlgebra:
    """The twisted algebra (A, beta.m, beta.alpha), both products through
    ``apply_matrix``: column j of beta.alpha is beta applied to column j of
    alpha.  The weak-morphism precondition is reported by
    weak_morphism_violations, not enforced."""
    n = A.dim
    mult = [
        [A.apply_matrix(beta, A.mult[i][j]) for j in range(n)] for i in range(n)
    ]
    cols = [A.apply_matrix(beta, [row[j] for row in A.alpha]) for j in range(n)]
    return FiniteHomAlgebra(n, mult, [list(r) for r in zip(*cols)], bracket=A.bracket)


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
    """Defects of gamma(m(x,y)) = m(gamma(x), y) = m(x, gamma(y)) on
    ordered basis pairs: gamma(m(e_i, e_j)) - m(gamma e_i, e_j) at
    (i, j, "left") and gamma(m(e_i, e_j)) - m(e_i, gamma e_j) at
    (i, j, "right")."""
    terms, cols, one = A._terms, _columns(gamma), Fraction(1)

    def defects():
        for i, j in product(range(A.dim), repeat=2):
            gm = [_apply(cols, terms[i][j])]
            yield (i, j, "left"), gm, [_product(terms, cols[i], [(j, one)])]
            yield (i, j, "right"), gm, [_product(terms, [(i, one)], cols[j])]

    return _violations(A.dim, defects())


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


def _parse_table(x, field: str, depth: int, dim: int):
    """The scalars of ``field``: JSON arrays of ``dim`` entries, nested
    ``depth`` deep around one JSON string per scalar.  The one check of a
    table from outside; an error names the first entry that is wrong."""
    if depth == 0:
        if not isinstance(x, str):
            raise TypeError(f"{field} is not a string")
        try:
            return parse_scalar(x)
        except ScalarParseError as e:
            raise ValueError(f"{field}: {e}") from None
    if not isinstance(x, list):
        raise TypeError(f"{field} is not an array")
    if len(x) != dim:
        raise ValueError(f"{field} has length {len(x)}, not dim {dim}")
    return [_parse_table(v, f"{field}[{i}]", depth - 1, dim) for i, v in enumerate(x)]


def algebra_from_dict(doc: dict) -> FiniteHomAlgebra:
    if not isinstance(doc, dict):
        raise TypeError("the document is not an object")
    n = doc["dim"]
    if type(n) is not int:
        raise TypeError("dim is not an integer")
    mult = _parse_table(doc["mult"], "mult", 3, n)
    alpha = _parse_table(doc["alpha"], "alpha", 2, n)
    bracket = doc.get("bracket", False)
    if type(bracket) is not bool:
        raise TypeError("bracket is not a boolean")
    return FiniteHomAlgebra(n, mult, alpha, bracket=bracket)


class AlgebraFormatError(TermError):
    """An algebra document that is not JSON or lacks a well-formed field."""


def load_algebra(text: str) -> FiniteHomAlgebra:
    try:
        return algebra_from_dict(json.loads(text))
    except KeyError as e:
        raise AlgebraFormatError(f"algebra document has no field {e}") from None
    except (TypeError, ValueError) as e:
        raise AlgebraFormatError(f"malformed algebra document: {e}") from None
    except RecursionError:
        raise AlgebraFormatError("malformed algebra document: nested too deeply") from None


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


def envelope_presentation(
    L: FiniteHomAlgebra, names, order: TermOrder = LEX_MA
) -> RewritingSystem:
    """Ground presentation of the enveloping hom-associative algebra of a
    hom-Lie algebra: alpha-action rules, oriented commutator rules, and the
    hom-associativity rule over the signature {m/2, a/1} plus one constant
    per basis element, as one rewriting system."""
    if not L.bracket:
        raise TermError("enveloping presentation expects a bracket table")
    if check_skew(L):
        raise TermError("bracket table is not skew-symmetric")
    if len(names) != L.dim:
        raise TermError("need one constant name per basis element")
    sig = Signature((("m", 2), ("a", 1)) + tuple((x, 0) for x in names))

    def const(i):
        return Context((names[i],), sig, 0)

    rules = []
    for i in range(L.dim):
        lhs = Context(("a", names[i]), sig, 0)
        column = [L.alpha[j][i] for j in range(L.dim)]
        rhs = LinComb(0, {const(j): c for j, c in enumerate(column) if c})
        rules.append(make_rule(f"alpha_{names[i]}", lhs, rhs, order))

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            d = LinComb.monomial(Context(("m", names[i], names[j]), sig, 0)) - (
                LinComb.monomial(Context(("m", names[j], names[i]), sig, 0))
            )
            for k in range(L.dim):
                d.add_term(const(k), -L.mult[i][j][k])
            # a name holds no whitespace, so no two pairs share an id
            rules.append(orient(f"comm({names[i]} {names[j]})", d, order))

    homass = make_rule(
        "hom_assoc",
        parse("m a 1 m 2 3", sig),
        LinComb.monomial(parse("m m 1 2 a 3", sig)),
        order,
    )
    rules.append(homass)
    return RewritingSystem(sig, order, rules)
