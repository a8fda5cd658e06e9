"""The hom-algebra lab's sparse products, table-driven identity checks and
tabled sigma model, checked against the dense products, hand-rolled index
loops over basis vectors and per-call q-powers they replaced, which are kept
here as references."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homoperad.homalgebra import (
    FiniteHomAlgebra,
    centroid_violations,
    check_hom_associative,
    check_hom_jacobi,
    check_multiplicative,
    check_skew,
    commutator_algebra,
    example1,
    load_algebra,
    q_sl2,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    weak_morphism_violations,
    yau_twist,
)
from homoperad.scalars import RatFunc, format_scalar
from homoperad.sigma_model import (
    SigmaDerivationModel,
    TruncationOverflow,
    check_six_term_jacobi,
    sigma_bracket,
)
from test_homalgebra import poly_endomorphism, truncated_poly_algebra

QTWIST = Path(__file__).resolve().parents[1] / "bench" / "data" / "qtwist-ut4.json"
q = RatFunc.q()


# --- references -------------------------------------------------------------


def _zeros(n):
    return [Fraction(0)] * n


class DenseAlgebra:
    """The table of a FiniteHomAlgebra, multiplied by whole structure-constant
    vectors, zeros included."""

    def __init__(self, A: FiniteHomAlgebra):
        self.dim, self.mult, self.alpha = A.dim, A.mult, A.alpha

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
                out = vec_add(out, vec_scale(xi * yj, self.mult[i][j]))
        return out

    def map_alpha(self, x):
        return self.apply_matrix(self.alpha, x)

    def apply_matrix(self, mat, x):
        out = _zeros(self.dim)
        for j, xj in enumerate(x):
            if not xj:
                continue
            for i in range(self.dim):
                out[i] = out[i] + mat[i][j] * xj
        return out


def ref_check_hom_associative(A):
    out = []
    for i in range(A.dim):
        ei = A.basis(i)
        for j in range(A.dim):
            ej = A.basis(j)
            for k in range(A.dim):
                ek = A.basis(k)
                d = vec_sub(
                    A.multiply(A.map_alpha(ei), A.multiply(ej, ek)),
                    A.multiply(A.multiply(ei, ej), A.map_alpha(ek)),
                )
                if not vec_is_zero(d):
                    out.append(((i, j, k), d))
    return out


def ref_check_hom_jacobi(A):
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                x, y, z = A.basis(i), A.basis(j), A.basis(k)
                d = _zeros(A.dim)
                for p, q_, r in ((x, y, z), (y, z, x), (z, x, y)):
                    d = vec_add(d, A.multiply(A.map_alpha(p), A.multiply(q_, r)))
                if not vec_is_zero(d):
                    out.append(((i, j, k), d))
    return out


def ref_check_skew(A):
    out = []
    for i in range(A.dim):
        for j in range(i, A.dim):
            d = vec_add(
                A.multiply(A.basis(i), A.basis(j)),
                A.multiply(A.basis(j), A.basis(i)),
            )
            if i == j:
                d = A.multiply(A.basis(i), A.basis(i))
            if not vec_is_zero(d):
                out.append(((i, j), d))
    return out


def ref_check_multiplicative(A):
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis(i), A.basis(j)
            d = vec_sub(
                A.multiply(A.map_alpha(ei), A.map_alpha(ej)),
                A.map_alpha(A.multiply(ei, ej)),
            )
            if not vec_is_zero(d):
                out.append(((i, j), d))
    return out


def ref_weak_morphism_violations(A, beta):
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis(i), A.basis(j)
            d = vec_sub(
                A.multiply(A.apply_matrix(beta, ei), A.apply_matrix(beta, ej)),
                A.apply_matrix(beta, A.multiply(ei, ej)),
            )
            if not vec_is_zero(d):
                out.append(((i, j), d))
    return out


def ref_centroid_violations(A, gamma):
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis(i), A.basis(j)
            gm = A.apply_matrix(gamma, A.multiply(ei, ej))
            for side, d in (
                ("left", vec_sub(gm, A.multiply(A.apply_matrix(gamma, ei), ej))),
                ("right", vec_sub(gm, A.multiply(ei, A.apply_matrix(gamma, ej)))),
            ):
                if not vec_is_zero(d):
                    out.append(((i, j, side), d))
    return out


class RefSigmaModel:
    """K[t]/(t^N) with q^n and [n]_q recomputed on every call."""

    def __init__(self, N, q):
        self.N = N
        self.q = q
        self.delta_scalar = q

    def zero(self):
        return [Fraction(0)] * self.N

    def monomial(self, n, coeff=Fraction(1)):
        v = self.zero()
        v[n] = coeff
        return v

    def degree(self, vec):
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
        return [c * self.q**n for n, c in enumerate(vec)]

    def delta(self, vec):
        out = self.zero()
        qn = self.q**0
        acc = qn - qn
        for n in range(1, self.N):
            acc = acc + self.q ** (n - 1)
            if vec[n]:
                out[n - 1] = out[n - 1] + acc * vec[n]
        return out


def ref_sigma_bracket(model, a, b):
    return [
        x - y
        for x, y in zip(
            model.multiply(model.sigma(a), model.delta(b)),
            model.multiply(model.sigma(b), model.delta(a)),
        )
    ]


def ref_check_six_term_jacobi(model, a, b, c):
    q_ = model.delta_scalar
    out = model.zero()
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = ref_sigma_bracket(model, y, z)
        term = ref_sigma_bracket(model, model.sigma(x), inner)
        extra = [q_ * v for v in ref_sigma_bracket(model, x, inner)]
        out = [p + s + t for p, s, t in zip(out, term, extra)]
    return out


# --- hom-algebra checks -----------------------------------------------------


def twisted_algebras():
    """Seeded Yau twists of K[t]/(t^n) by algebra maps, with a map beta
    that is not an algebra map for the morphism and centroid checks."""
    rng = random.Random(6)
    out = []
    for _ in range(12):
        n = rng.randint(2, 4)
        A = truncated_poly_algebra(n)
        image = [Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)
        ]
        twisted = yau_twist(A, poly_endomorphism(n, image))
        beta = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        out.append((twisted, beta))
        out.append((commutator_algebra(twisted), beta))
    return out


def algebras():
    out = [q_sl2(q)] + [q_sl2(Fraction(x)) for x in (0, 1, 2, Fraction(1, 2))]
    out.append(load_algebra(QTWIST.read_text()))
    F = Fraction
    for a, b in [(F(1), F(2)), (F(3), F(0)), (F(2), F(2)), (F(1, 2), F(-3)), (q, q * q), (q, F(1))]:
        out.append(example1(a, b))
    out.extend(A for A, _ in twisted_algebras())
    return out


CHECKS = [
    (check_hom_associative, ref_check_hom_associative),
    (check_hom_jacobi, ref_check_hom_jacobi),
    (check_skew, ref_check_skew),
    (check_multiplicative, ref_check_multiplicative),
]


def test_checks_match_the_hand_rolled_loops():
    failing = 0
    for A in algebras():
        for check, ref in CHECKS:
            got = check(A)
            assert got == ref(DenseAlgebra(A)), (check.__name__, A.dim)
            failing += bool(got)
    assert failing >= 20  # the comparison is not between empty lists only


def test_morphism_and_centroid_checks_match():
    # centroid_violations kept its loop; its products are now the sparse ones
    failing = 0
    for A, beta in twisted_algebras():
        dense = DenseAlgebra(A)
        for mat in (beta, A.alpha):
            got = weak_morphism_violations(A, mat)
            assert got == ref_weak_morphism_violations(dense, mat)
            failing += bool(got)
        got = centroid_violations(A, beta)
        want = []
        for i in range(A.dim):
            for j in range(A.dim):
                ei, ej = dense.basis(i), dense.basis(j)
                gm = dense.apply_matrix(beta, dense.multiply(ei, ej))
                for side, d in (
                    ("left", vec_sub(gm, dense.multiply(dense.apply_matrix(beta, ei), ej))),
                    ("right", vec_sub(gm, dense.multiply(ei, dense.apply_matrix(beta, ej)))),
                ):
                    if not vec_is_zero(d):
                        want.append(((i, j, side), d))
        assert got == want
        failing += bool(got)
    assert failing >= 20


# zero twice: as a Fraction and as the zero RatFunc, which print alike
ENTRIES = [Fraction(0), q - q, Fraction(1, 2), Fraction(-1, 2), Fraction(2), q, 1 + q, q * q]


def sparse_matrices(n):
    return st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.sampled_from(ENTRIES),
        max_size=2 * n,
    ).map(lambda d: [[d.get((i, j), Fraction(0)) for j in range(n)] for i in range(n)])


@st.composite
def sparse_algebras(draw):
    """A plain or bracket table from at most 3n drawn structure constants,
    with a sparse alpha, and a sparse map for the morphism and centroid
    checks."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    consts = draw(st.dictionaries(
        st.tuples(index, index, index), st.sampled_from(ENTRIES), max_size=3 * n
    ))
    alpha, beta = draw(sparse_matrices(n)), draw(sparse_matrices(n))
    vector = lambda i, j: [consts.get((i, j, k), Fraction(0)) for k in range(n)]
    if draw(st.booleans()):
        pairs = {(i, j): vector(i, j) for i in range(n) for j in range(i + 1, n)}
        return FiniteHomAlgebra.bracket_from_pairs(n, pairs, alpha), beta
    mult = [[vector(i, j) for j in range(n)] for i in range(n)]
    return FiniteHomAlgebra(n, mult, alpha), beta


def printed(violations):
    return [(idx, [format_scalar(c) for c in d]) for idx, d in violations]


@settings(max_examples=150, deadline=None)
@given(sparse_algebras())
def test_table_driven_checks_match_the_dense_loops(algebra):
    A, beta = algebra
    dense = DenseAlgebra(A)
    pairs = CHECKS + [
        (lambda A: weak_morphism_violations(A, beta),
         lambda D: ref_weak_morphism_violations(D, beta)),
        (lambda A: centroid_violations(A, beta),
         lambda D: ref_centroid_violations(D, beta)),
    ]
    for check, ref in pairs:
        got, want = check(A), ref(dense)
        assert got == want
        assert printed(got) == printed(want)


@settings(max_examples=150, deadline=None)
@given(sparse_algebras())
def test_twist_alpha_matches_the_dense_triple_loop(algebra):
    A, beta = algebra
    n = A.dim
    want = [
        [sum((beta[i][k] * A.alpha[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    got = yau_twist(A, beta).alpha
    assert got == want
    assert [list(map(format_scalar, row)) for row in got] == [
        list(map(format_scalar, row)) for row in want
    ]


def test_products_match_dense_products():
    rng = random.Random(11)
    for A in algebras():
        dense = DenseAlgebra(A)
        for _ in range(5):
            x = [Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
            y = [rng.choice([Fraction(rng.randint(-2, 2)), q + 1]) for _ in range(A.dim)]
            assert A.multiply(x, y) == dense.multiply(x, y)
            assert A.map_alpha(y) == dense.map_alpha(y)


# --- sigma model ------------------------------------------------------------


def assert_same_typed(got, want, where):
    assert got == want, where
    assert [type(c) for c in got] == [type(c) for c in want], where


@pytest.mark.parametrize("qv", [Fraction(2), Fraction(1, 3), q], ids=["2", "1_over_3", "q"])
def test_sigma_model_matches_per_call_powers(qv):
    N = 10
    M, R = SigmaDerivationModel(N, qv), RefSigmaModel(N, qv)
    rng = random.Random(3)
    vecs = [M.monomial(n) for n in range(N)]
    vecs += [
        [rng.choice([Fraction(0), Fraction(rng.randint(-3, 3), 2), q - 2]) for _ in range(N)]
        for _ in range(6)
    ]
    for v in vecs:
        assert_same_typed(M.sigma(v), R.sigma(v), ("sigma", v))
        assert_same_typed(M.delta(v), R.delta(v), ("delta", v))
    for i, j in [(i, j) for i in range(N) for j in range(N) if i + j <= N]:
        a, b = M.monomial(i), M.monomial(j)
        assert_same_typed(sigma_bracket(M, a, b), ref_sigma_bracket(R, a, b), (i, j))
    triples = [
        (i, j, k)
        for i in range(N)
        for j in range(i, N)
        for k in range(j, N)
        if i + j + k <= N + 1 and j + k <= N
    ]
    if isinstance(qv, RatFunc):  # the reference is slow on rational functions
        triples = random.Random(4).sample(triples, 12)
    for i, j, k in triples:
        a, b, c = M.monomial(i), M.monomial(j), M.monomial(k)
        assert_same_typed(
            check_six_term_jacobi(M, a, b, c),
            ref_check_six_term_jacobi(R, a, b, c),
            (i, j, k),
        )


# every kind of entry: zero twice, as a Fraction and as the zero RatFunc,
# rationals, polynomials in q and a rational function that is not one
SPARSE_ENTRIES = [
    Fraction(0), q - q, Fraction(3, 2), Fraction(-2), Fraction(1, 3),
    1 + q, q * q - 3, 2 * q, q / (1 + q),
]


def same_or_same_overflow(got, want, *args):
    """got(*args) and want(*args) return the same typed vector, or both
    raise TruncationOverflow with the same message."""
    try:
        expected = want(*args)
    except TruncationOverflow as e:
        with pytest.raises(TruncationOverflow) as raised:
            got(*args)
        assert str(raised.value) == str(e), args
        return False
    assert_same_typed(got(*args), expected, args)
    return True


@pytest.mark.parametrize(
    "qv", [Fraction(2), Fraction(1, 3), q, 3], ids=["2", "1_over_3", "q", "int_3"]
)
def test_sigma_model_matches_the_reference_on_sparse_vectors(qv):
    """Products, brackets and Jacobi defects of seeded sparse vectors of
    every kind of entry, at N = 7 .. 10, equal the reference's in value and
    in the type of each entry, or overflow with the reference's message."""
    rng = random.Random(12)
    symbolic = isinstance(qv, RatFunc)  # the reference is slow on these
    fitted = overflowed = 0
    for N in range(7, 11):
        M, R = SigmaDerivationModel(N, qv), RefSigmaModel(N, qv)

        def vector(top):
            v = R.zero()
            for n in range(top + 1):
                if n == top or rng.random() < 0.4:
                    v[n] = rng.choice(SPARSE_ENTRIES)
            return v

        def degrees(count, total):
            """count degrees below N of sum total, or one more for an
            overflow."""
            total += rng.random() < 0.25
            cuts = sorted(rng.randint(0, total) for _ in range(count - 1))
            return [min(b - a, N - 1) for a, b in zip([0, *cuts], [*cuts, total])]

        for _ in range(10 if symbolic else 25):
            x, y = (vector(d) for d in degrees(2, N - 1))
            for got, want in ((M.multiply, R.multiply),
                              (lambda a, b: sigma_bracket(M, a, b),
                               lambda a, b: ref_sigma_bracket(R, a, b))):
                ok = same_or_same_overflow(got, want, x, y)
                fitted, overflowed = fitted + ok, overflowed + (not ok)
        for _ in range(4 if symbolic else 10):
            x, y, z = (vector(d) for d in degrees(3, N + 1))
            ok = same_or_same_overflow(
                lambda *v: check_six_term_jacobi(M, *v),
                lambda *v: ref_check_six_term_jacobi(R, *v),
                x, y, z,
            )
            fitted, overflowed = fitted + ok, overflowed + (not ok)
    assert fitted >= 3 * overflowed > 0
