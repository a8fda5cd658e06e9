"""The four workloads.  Each drives homoperad through ``cli.main`` with
stdout captured, or through its library where the CLI has no entry, and
checks every answer with ``checks``.

A workload is built from a seed, which loads its inputs, and run round by
round; every round makes the same operations.  ``round`` returns
the seconds spent inside homoperad calls and the problems found.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DATA = os.path.join(BENCH, "data")
OUT = os.path.join(BENCH, "out")
HOMASS = os.path.join(ROOT, "src", "homoperad", "data", "homass.rules")
QSL2 = os.path.join(ROOT, "src", "homoperad", "data", "qsl2.json")
RULES_O10 = os.path.join(DATA, "homass-o10.rules")
RULES_O12 = os.path.join(DATA, "homass-o12.rules")
QTWIST = os.path.join(DATA, "qtwist-ut4.json")
BRUTE = os.path.join(DATA, "brute-counts-o10.json")

COMPLETE_ORDER = 15
HILBERT_DEGREE = 10
SUMS = 60  # normalize: sums per round
SUM_TERMS = 30  # normalize: monomials per sum
SUM_GRADING = (5, 7)
RANDOM_EVERY = 12  # normalize: every twelfth sum is also reduced at random
JACOBI_N = 8  # qlab: K[t]/(t^N)


def read(path: str) -> str:
    with open(path) as f:
        return f.read()


class Round:
    """What one round did: homoperad seconds, operations, problems.
    Time spent in ``clock``'s sampler is not counted as homoperad's."""

    def __init__(self, clock=None):
        self.clock = clock
        self.start = time.perf_counter()
        self.end = None
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.output_bytes = 0

    def cli(self, argv) -> str | None:
        """One CLI call; its stdout, or None when it exits non-zero."""
        from homoperad import cli

        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0, s0 = time.perf_counter(), self._sampling()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self.seconds += time.perf_counter() - t0 - (self._sampling() - s0)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if code != 0:
            self.failed += 1
            return None
        return text

    def call(self, fn, *args, **kwargs):
        """One library call; its result, or None when it raises."""
        self.attempted += 1
        t0, s0 = time.perf_counter(), self._sampling()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation that fails is counted, not fatal
            self.failed += 1
            return None
        finally:
            self.seconds += time.perf_counter() - t0 - (self._sampling() - s0)
        return result

    def _sampling(self) -> float:
        return self.clock.spent if self.clock else 0.0

    def done(self) -> "Round":
        self.end = time.perf_counter()
        return self


class Checked:
    """Outputs already checked: identical output needs no second check."""

    def __init__(self, check):
        self._check = check
        self._seen = {}

    def __call__(self, key, *args):
        if key not in self._seen:
            self._seen[key] = self._check(*args)
        return self._seen[key]


# --- complete-homass --------------------------------------------------------


class CompleteHomass:
    def __init__(self, seed: int):
        self.seed = seed
        read(HOMASS)  # a missing input fails the set-up, not a round
        os.makedirs(OUT, exist_ok=True)
        self.prefix = os.path.join(OUT, f"homass-o{COMPLETE_ORDER}")
        self.checked = Checked(self._check)

    def round(self, clock=None) -> Round:
        r = Round(clock)
        out = r.cli(["complete", "--rules", HOMASS, "--max-order",
                     str(COMPLETE_ORDER), "--out", self.prefix])
        if out is not None:
            rules = read(self.prefix + ".rules")
            r.problems += self.checked((out, rules), out, rules)
        return r.done()

    def _check(self, out, rules_text):
        census = {int(o): int(n) for o, n in (ln.split("\t") for ln in out.splitlines())}
        rules = checks.parse_rules_text(rules_text)
        rng = random.Random(self.seed)
        return (
            checks.check_census(census)
            + checks.check_paper_rules(rules_text)
            + checks.check_reduced(rules)
            + checks.check_homogeneous(rules)
            + checks.check_rules_hold(rules, rng)
        )


# --- hilbert-homass ---------------------------------------------------------


class HilbertHomass:
    def __init__(self, seed: int):
        read(RULES_O10)
        brute = json.loads(read(BRUTE))
        self.brute = {
            (k, l): n for k, l, n in brute["counts"] if k + l > 8
        }
        self.checked = Checked(self._check)

    def round(self, clock=None) -> Round:
        r = Round(clock)
        out = r.cli(["hilbert", "--rules", RULES_O10, "--degree", str(HILBERT_DEGREE)])
        if out is not None:
            r.problems += self.checked(out, out)
        return r.done()

    def _check(self, out):
        coeffs = {}
        for line in out.splitlines():
            mono, value = line.split("\t")
            k, l = (int(x.split("^")[1]) for x in mono.split())
            coeffs[(k, l)] = Fraction(value)
        return checks.check_hilbert(coeffs, HILBERT_DEGREE, self.brute)


# --- normalize-sums ---------------------------------------------------------


def random_monomial(rng, k: int, l: int) -> tuple:
    """A plane monomial with k unary and l binary vertices, drawn from
    ``rng`` directly rather than from an enumeration."""

    def grow(k, l):
        if k == 0 and l == 0:
            return [0]
        if k and (not l or rng.random() < k / (k + l)):
            return ["a"] + grow(k - 1, l)
        k1, l1 = rng.randint(0, k), rng.randint(0, l - 1)
        return ["m"] + grow(k1, l1) + grow(k - k1, l - 1 - l1)

    boxes = iter(range(1, k + 2 * l + 2))
    return tuple(next(boxes) if t == 0 else t for t in grow(k, l))


def random_sum(rng, terms: int, k: int, l: int) -> dict:
    out = {}
    while len(out) < terms:
        word = random_monomial(rng, k, l)
        out[word] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return out


class NormalizeSums:
    def __init__(self, seed: int):
        from homoperad.cli import load_rules_path
        from homoperad.rewrite import RewritingSystem, parse_lincomb

        self.seed = seed
        rng = random.Random(seed)
        self.sums = [random_sum(rng, SUM_TERMS, *SUM_GRADING) for _ in range(SUMS)]
        self.texts = [checks.format_sum(s) for s in self.sums]
        self.patterns = [lhs for lhs, _ in checks.parse_rules_text(read(RULES_O12))]
        sig, order, rules = load_rules_path(RULES_O12, "lex_ma")
        self.system = RewritingSystem(sig, order, rules)
        self.lincombs = {
            i: parse_lincomb(self.texts[i], sig) for i in range(0, SUMS, RANDOM_EVERY)
        }
        self.checked = Checked(self._check)

    def round(self, clock=None) -> Round:
        from homoperad.rewrite import normal_form

        r = Round(clock)
        outputs = []
        for i, text in enumerate(self.texts):
            out = r.cli(["normalize", "--rules", RULES_O12, "--term", text])
            outputs.append(out)
            if out is not None:
                r.problems += self.checked((i, out), i, out)
        for i, x in self.lincombs.items():
            rng = random.Random(self.seed * 1000 + i)
            got = r.call(normal_form, x, self.system, rng=rng)
            if got is not None and outputs[i] is not None:
                terms = {tuple(m.word): c for m, c in got.terms.items()}
                if terms != checks.parse_sum(outputs[i]):
                    r.problems.append(f"sum {i}: random strategy reaches another normal form")
        return r.done()

    def _check(self, i, out):
        nf = checks.parse_sum(out)
        rng = random.Random(self.seed * 1000 + i)
        return checks.check_irreducible(nf, self.patterns) + checks.check_sums_equal(
            self.sums[i], nf, rng
        )


# --- qlab -------------------------------------------------------------------


def jacobi_triples(n: int):
    """Index triples i <= j <= k whose six-term Jacobi check stays inside
    K[t]/(t^n)."""
    return [
        (i, j, k)
        for i in range(n)
        for j in range(i, n)
        for k in range(j, n)
        if i + j + k <= n + 1 and j + k <= n
    ]


def ratfunc_poly(c):
    """An entry of a model vector as an integer q-polynomial, or None when
    it is not a polynomial with integer coefficients."""
    from homoperad.scalars import RatFunc

    if isinstance(c, RatFunc):
        if c.den != (Fraction(1),):
            return None
        coeffs = c.num
    else:
        coeffs = (c,)
    if any(Fraction(x).denominator != 1 for x in coeffs):
        return None
    return checks.poly_trim(int(x) for x in coeffs)


class Qlab:
    IDENTITIES_TWIST = ("skew", "hom-jacobi", "multiplicative")
    IDENTITIES_QSL2 = ("skew", "hom-jacobi")

    def __init__(self, seed: int):
        from homoperad.scalars import RatFunc
        from homoperad.sigma_model import SigmaDerivationModel

        read(QTWIST)
        read(QSL2)
        self.model = SigmaDerivationModel(JACOBI_N, RatFunc.q())
        self.t = [self.model.monomial(i) for i in range(JACOBI_N)]
        self.triples = jacobi_triples(JACOBI_N)
        self.pairs = [
            (i, j) for i in range(JACOBI_N) for j in range(JACOBI_N) if i + j <= JACOBI_N
        ]

    def round(self, clock=None) -> Round:
        from homoperad.sigma_model import check_six_term_jacobi, sigma_bracket

        r = Round(clock)
        for path, ids in ((QTWIST, self.IDENTITIES_TWIST), (QSL2, self.IDENTITIES_QSL2)):
            out = r.cli(["check-algebra", path, "--identities", ",".join(ids)])
            if out is not None:
                r.problems += checks.check_verdicts(out, ids)
        M, t = self.model, self.t
        for i, j, k in self.triples:
            d = r.call(check_six_term_jacobi, M, t[i], t[j], t[k])
            if d is not None:
                r.problems += checks.check_zero(d, f"Jacobi defect at ({i},{j},{k})")
        for i, j in self.pairs:
            b = r.call(sigma_bracket, M, t[i], t[j])
            if b is not None:
                r.problems += checks.check_bracket(b, i, j, ratfunc_poly)
        return r.done()


WORKLOADS = {
    "complete-homass": CompleteHomass,
    "hilbert-homass": HilbertHomass,
    "normalize-sums": NormalizeSums,
    "qlab": Qlab,
}
