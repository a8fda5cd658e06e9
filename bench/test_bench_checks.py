"""Quick tests of the benchmark's own checks: each must reject a corrupted
answer, and the independent matcher and evaluator must agree with small
cases worked by hand."""

import json
import random
from fractions import Fraction

import checks
import workloads
from layers import Tracer
from checks import parse_word as w

HOMASS_LHS = w("m a 1 m 2 3")
HOMASS_RHS = w("m m 1 2 a 3")


def test_census_rejects_an_entry_off_by_one():
    assert checks.check_census(dict(checks.PAPER_CENSUS)) == []
    assert checks.check_census({**checks.PAPER_CENSUS, 15: 71}) == []
    assert checks.check_census({**checks.PAPER_CENSUS, 12: 13})
    assert checks.check_census({**checks.PAPER_CENSUS, 3: 0})


def test_paper_rules_must_appear_verbatim():
    text = "\n".join(checks.PAPER_RULES.values()) + "\n"
    assert checks.check_paper_rules(text) == []
    assert checks.check_paper_rules(text.replace("a a 4", "a 4"))


def test_hilbert_rejects_one_changed_coefficient():
    good = dict(checks.PAPER_HILBERT_8)
    assert checks.check_hilbert(good, 8, {}) == []
    bad = {**good, (3, 3): 316}
    assert checks.check_hilbert(bad, 8, {})
    brute = {(k, 9 - k): checks.free_count(k, 9 - k) - 1 for k in range(10)}
    assert checks.check_hilbert({**good, **brute}, 9, brute) == []
    assert checks.check_hilbert({**good, **brute, (4, 5): 1}, 9, brute)


def test_stored_brute_counts_agree_with_the_paper_through_degree_8():
    with open(workloads.BRUTE) as f:
        stored = json.load(f)["counts"]
    low = {(k, l): n for k, l, n in stored if k + l <= 8}
    assert low == checks.PAPER_HILBERT_8


def test_hilbert_rejects_a_count_above_the_free_count():
    table = dict(checks.PAPER_HILBERT_8)
    table[(0, 3)] = 6
    problems = checks.check_hilbert(table, 8, {})
    assert any("exceeds the free count" in p for p in problems)


def test_free_count_closed_form():
    assert [checks.free_count(0, l) for l in range(6)] == [1, 1, 2, 5, 14, 42]
    assert checks.free_count(2, 3) == 140  # 8! / (2! 3! 3! 4)
    assert checks.free_count(5, 0) == 1


def test_brute_force_counts_match_the_paper_through_degree_6():
    patterns = [w(r.split(" -> ")[0]) for r in (
        "m a 1 m 2 3 -> m m 1 2 a 3", *checks.PAPER_RULES.values())]
    counts = checks.irreducible_counts(patterns, 6)
    assert {k: n for k, n in counts.items()} == {
        k: n for k, n in checks.PAPER_HILBERT_8.items() if sum(k) <= 6
    }


def test_matcher_on_hand_worked_cases():
    assert checks.match_at(HOMASS_LHS, w("m a 1 m 2 3"), 0)
    # a box swallows a whole subterm: here `m 1 2` and `a 3`
    assert checks.match_at(HOMASS_LHS, w("m a m 1 2 m a 3 4"), 0)
    assert not checks.match_at(HOMASS_LHS, w("m m 1 2 a 3"), 0)
    assert checks.redex_positions(w("m 1 m a 2 m 3 4"), [HOMASS_LHS]) == [(2, 0)]
    assert checks.redex_positions(w("m m 1 2 a 3"), [HOMASS_LHS]) == []
    assert checks.subterm_end(w("m a m 1 2 3"), 1) == 5


def test_irreducible_rejects_a_normal_form_with_a_redex():
    assert checks.check_irreducible({HOMASS_RHS: Fraction(1)}, [HOMASS_LHS]) == []
    left_in = {HOMASS_RHS: Fraction(1), w("m 1 m a 2 m 3 4"): Fraction(2)}
    assert checks.check_irreducible(left_in, [HOMASS_LHS])


def test_reduced_and_homogeneous_rules():
    rules = checks.parse_rules_text(
        "m a 1 m 2 3 -> m m 1 2 a 3\n" + checks.PAPER_RULES[5] + "\n")
    assert checks.check_reduced(rules) == []
    assert checks.check_homogeneous(rules) == []
    # an lhs that contains another rule's lhs
    bad = rules + [(w("a m a 1 m 2 3"), {w("a m m 1 2 a 3"): Fraction(1)})]
    assert checks.check_reduced(bad)
    assert checks.check_homogeneous([(HOMASS_LHS, {w("m m 1 2 3"): Fraction(1)})])


def test_evaluator_on_hand_worked_cases():
    E31 = ((0, 0, 0), (0, 0, 0), (1, 0, 0))
    # P E31 P^-1 = (P e3)(e1^T P^-1) = (0, 1, 1)^T (1, -1, 1)
    assert checks.evaluate(w("a 1"), [E31]) == ((0, 0, 0), (1, -1, 1), (1, -1, 1))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert checks.evaluate(w("m 1 2"), [identity, identity]) == identity
    x, y = E31, ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert checks.evaluate(w("m 1 2"), [x, y]) == checks.beta(checks.mat_mul(x, y))


def test_twisted_algebra_is_hom_associative_not_associative():
    rng = random.Random(3)
    assert checks.check_sums_equal(
        {HOMASS_LHS: Fraction(1)}, {HOMASS_RHS: Fraction(1)}, rng) == []
    assert checks.check_sums_equal(
        {w("m 1 m 2 3"): Fraction(1)}, {w("m m 1 2 3"): Fraction(1)}, rng)


def test_sums_reject_a_wrong_coefficient():
    rng = random.Random(4)
    left = {HOMASS_LHS: Fraction(3, 2), w("m m 1 2 a 3"): Fraction(-1)}
    assert checks.check_sums_equal(left, {HOMASS_RHS: Fraction(1, 2)}, rng) == []
    assert checks.check_sums_equal(left, {HOMASS_RHS: Fraction(3, 2)}, rng)


def test_sum_parser_reads_program_output():
    assert checks.parse_sum("0") == {}
    assert checks.parse_sum("-m 1 2 + 3/4 * a 1 - 2 * m 2 1") == {
        w("m 1 2"): Fraction(-1), w("a 1"): Fraction(3, 4), w("m 2 1"): Fraction(-2)}
    assert checks.parse_sum("-5/3 * m [10] 1") == {(("m", 10, 1)): Fraction(-5, 3)}
    terms = workloads.random_sum(random.Random(1), 5, 2, 3)
    assert checks.parse_sum(checks.format_sum(terms)) == terms


def test_jacobi_rejects_a_non_zero_defect():
    assert checks.check_zero([Fraction(0)] * 4, "defect") == []
    assert checks.check_zero([Fraction(0), Fraction(0), Fraction(1, 3)], "defect")


def test_bracket_closed_form():
    # [t, t^2] = sigma(t) D(t^2) - sigma(t^2) D(t) = q t (1 + q) t - q^2 t^2 = q t^2
    assert checks.sigma_bracket_closed_form(1, 2) == (0, 1)
    assert checks.sigma_bracket_closed_form(2, 1) == (0, -1)
    assert checks.sigma_bracket_closed_form(3, 3) == ()
    assert checks.sigma_bracket_closed_form(0, 2) == (1, 1)
    good = [(), (), (0, 1), ()]
    assert checks.check_bracket(good, 1, 2, lambda c: c) == []
    assert checks.check_bracket([(), (), (0, 2), ()], 1, 2, lambda c: c)


def test_verdicts_must_all_pass():
    assert checks.check_verdicts("skew\tPASS\nhom-jacobi\tPASS\n", ["skew", "hom-jacobi"]) == []
    assert checks.check_verdicts("skew\tPASS\nhom-jacobi\tFAIL\n", ["skew", "hom-jacobi"])


def test_random_monomials_are_plane_and_graded():
    rng = random.Random(7)
    for _ in range(50):
        word = workloads.random_monomial(rng, 5, 7)
        assert checks.grading(word) == (5, 7)
        assert [t for t in word if isinstance(t, int)] == list(range(1, 9))
        assert checks.subterm_end(word, 0) == len(word)
    assert workloads.random_monomial(random.Random(2), 5, 7) == \
        workloads.random_monomial(random.Random(2), 5, 7)


def test_span_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert 0 <= tracer.self_s["outer"] and 0 <= tracer.self_s["inner"]
    counted = tracer.count("hot", lambda x: x)
    assert [counted(1), counted(2)] == [1, 2] and tracer.counts["hot"] == 2
