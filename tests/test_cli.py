import hashlib
import importlib.resources
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from test_completion import READJOINED_FAILURES

from homoperad import scalars
from homoperad.cli import main
from homoperad.orders import LEX_MA
from homoperad.rewrite import read_rules
from homoperad.series import hilbert_series
from homoperad.terms import grading


def data_path(name):
    return str(importlib.resources.files("homoperad").joinpath("data", name))


HOMASS = data_path("homass.rules")
ASSOC = data_path("assoc.rules")
QSL2 = data_path("qsl2.json")
DATA = data_path("")
HOMASS_O10 = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o10.rules")
HOMASS_O12 = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "homass-o12.rules")
# a rules file with no rules, whose counts are the free operad's
NO_RULES = os.devnull


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(
        capsys, ["normalize", "--rules", HOMASS, "--term", "m a 1 m 2 a 3"]
    )
    assert code == 0
    assert out.strip() == "m m 1 2 a a 3"


def test_normalize_reads_the_zero_sum_it_prints(capsys):
    argv = ["normalize", "--rules", HOMASS, "--term", "m a 1 m 2 3 - m m 1 2 a 3"]
    assert run(capsys, argv) == (0, "0\n", "")
    assert run(capsys, ["normalize", "--rules", HOMASS, "--term", "0"]) == (0, "0\n", "")


def test_normalize_assoc_right_comb(capsys):
    code, out, _ = run(
        capsys,
        ["normalize", "--rules", ASSOC, "--order", "right_comb",
         "--term", "m 1 m 2 m 3 4"],
    )
    assert code == 0
    assert out.strip() == "m m m 1 2 3 4"


def test_normalize_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("m a 1 m 2 3\n"))
    code, out, _ = run(capsys, ["normalize", "--rules", HOMASS])
    assert code == 0
    assert out.strip() == "m m 1 2 a 3"


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, ["normalize", "--rules", HOMASS, "--term", "m 1"]
    )
    assert code == 2
    assert "parse error" in err


def test_missing_rules_file(capsys):
    code, _, err = run(
        capsys, ["normalize", "--rules", "/no/such/file", "--term", "1"]
    )
    assert code == 2


def test_complete_census_output(capsys):
    code, out, _ = run(
        capsys, ["complete", "--rules", HOMASS, "--max-order", "10"]
    )
    assert code == 0
    assert out == "3\t1\n5\t1\n7\t1\n8\t2\n9\t1\n10\t4\n"


def test_complete_budget_exit(capsys):
    code, _, err = run(
        capsys,
        ["complete", "--rules", HOMASS, "--max-order", "14", "--budget", "0"],
    )
    assert code == 3
    assert "budget" in err


def test_complete_out_files(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    code, _, _ = run(
        capsys,
        ["complete", "--rules", HOMASS, "--max-order", "8", "--out", prefix],
    )
    assert code == 0
    rules_text = (tmp_path / "run.rules").read_text()
    assert "m a 1 m 2 3 -> m m 1 2 a 3" in rules_text
    assert (tmp_path / "run.census.tsv").read_text() == "3\t1\n5\t1\n7\t1\n8\t2\n"
    assert (tmp_path / "run.log").read_text()


def test_complete_order_failure_exit(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    code, out, err = run(
        capsys,
        ["complete", "--rules", HOMASS, "--order", "right_comb",
         "--max-order", "8", "--out", prefix],
    )
    assert code == 4
    assert out == "3\t1\n"
    assert err == "order failure: cannot orient m m 1 a 2 a m 3 4 - m m 1 m 2 3 a a 4\n"
    log = (tmp_path / "run.log").read_text()
    assert log.endswith("m a 1 m a 2 m 3 4\tr1,r1\torder_failure\n")


# each input rule is adjoined as a derived one is, so the second rule of
# each file, a copy of the first or one whose lhs holds the first at its
# root, is not kept as given
DUPLICATE_INPUT = "m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m 2 3 -> m m 1 2 a 3\n"
REDUCIBLE_INPUT = "m a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m a 2 m 3 4 -> m m 1 m 2 3 a a 4\n"


@pytest.mark.parametrize(
    "text", [DUPLICATE_INPUT, REDUCIBLE_INPUT], ids=["duplicate", "reducible"]
)
def test_complete_keeps_no_input_rule_the_others_reduce(capsys, tmp_path, text):
    path = tmp_path / "input.rules"
    path.write_text(text)
    prefix = str(tmp_path / "run")
    argv = ["complete", "--rules", str(path), "--max-order", "6", "--out", prefix]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "3\t1\n5\t1\n", "")
    assert (tmp_path / "run.rules").read_text() == (
        "m a 1 m 2 3 -> m m 1 2 a 3\nm m 1 a 2 a m 3 4 -> m m 1 m 2 3 a a 4\n"
    )


def test_an_input_rule_the_order_cannot_orient_is_an_order_failure(capsys, tmp_path):
    """Under right_comb the first rule reduces the second to a difference
    the order cannot orient, so the second is never adjoined."""
    path = tmp_path / "input.rules"
    path.write_text(REDUCIBLE_INPUT)
    argv = ["complete", "--rules", str(path), "--order", "right_comb", "--max-order", "6"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "3\t1\n")
    assert err == "order failure: cannot orient m m 1 a 2 a m 3 4 - m m 1 m 2 3 a a 4\n"


@pytest.mark.parametrize(
    "text, census, log, failed",
    list(zip(
        READJOINED_FAILURES,
        ["2\t1\n", "2\t1\n", "3\t2\n4\t1\n"],
        ["", "", "a m a m 1 2 3\tr3,r2\torder_failure\n"],
        [
            "-m a 1 a 2 + m a a 1 2",
            "m 1 m 2 a 3 - m m 1 a 2 3",
            "-m 1 m a 2 m 3 a 4 + m a a m 1 m 2 3 4",
        ],
    )),
    ids=["inputs", "nested-inputs", "ambiguity"],
)
def test_an_order_failure_names_the_readjoined_difference_that_failed(
    capsys, tmp_path, text, census, log, failed
):
    """A newer rule reduces an older one, whose difference, adjoined again,
    is the one the order cannot orient: stderr names it, and not the
    difference the older rule began from, which is zero in the first two
    sets and in the third is oriented as `a m m 1 2 a 3 -> m a a m 1 2 3`."""
    path = tmp_path / "input.rules"
    path.write_text(text)
    prefix = str(tmp_path / "run")
    argv = ["complete", "--rules", str(path), "--max-order", "7", "--out", prefix]
    assert run(capsys, argv) == (4, census, f"order failure: cannot orient {failed}\n")
    assert (tmp_path / "run.census.tsv").read_text() == census
    assert (tmp_path / "run.log").read_text() == log


INHOMOGENEOUS = "op m 2\nop a 1\nop e 0\na e -> m e a e\na a e -> e\n"


def test_complete_refuses_inhomogeneous_rules(capsys, tmp_path):
    path = tmp_path / "inhomogeneous.rules"
    path.write_text(INHOMOGENEOUS)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["complete", "--rules", str(path), "--max-order", "4"]
    code, out, err = run(capsys, argv + ["--out", str(out_dir / "run")])
    assert code == 2
    assert out == ""
    assert err == "parse error: rule r1 is not homogeneous\n"
    assert list(out_dir.iterdir()) == []
    with pytest.raises(SystemExit):
        main(argv + ["--allow-inhomogeneous"])


# `c 1 -> b c 1` keeps the (a, m) grading (0, 0) but grows, and `d 1 -> c 1`
# then rewrites `c 1` without end: completion would never return
GROWING_UNARY = "op b 1\nop c 1\nop d 1\nc 1 -> b c 1\nd 1 -> c 1\n"


def test_complete_refuses_a_growing_rule_of_one_grading(tmp_path):
    """In a subprocess with a timeout, so that a regression fails instead
    of hanging."""
    path = tmp_path / "growing.rules"
    path.write_text(GROWING_UNARY)
    prefix = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "homoperad.cli", "complete", "--rules", str(path),
            "--max-order", "4", "--out", str(prefix)]
    for extra in ([], ["--budget", "2"]):
        proc = subprocess.run(argv + extra, env=env, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "parse error: rule r1 is not homogeneous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["growing.rules"]


def test_complete_has_no_inter_reduce_flag():
    with pytest.raises(SystemExit):
        main(["complete", "--rules", HOMASS, "--max-order", "4", "--no-inter-reduce"])


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_complete_refuses_a_bad_budget_before_any_out_file(capsys, tmp_path, budget):
    argv = ["complete", "--rules", HOMASS, "--max-order", "4", "--budget", budget]
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / "run")])
    assert (code, out) == (2, "")
    assert err == f"parse error: --budget expects seconds >= 0, got {budget}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("budget", ["2", "1.5", "60.", "007"])
def test_complete_reads_a_budget_of_ascii_digits_and_one_point(capsys, budget):
    argv = ["complete", "--rules", HOMASS, "--max-order", "4", "--budget", budget]
    assert run(capsys, argv) == run(capsys, argv[:-2])


def test_a_long_coefficient_prints_every_digit(tmp_path):
    """Python's limit on int/str conversions is lifted: a coefficient of
    thousands of digits is read from a term and from a rule, and printed,
    in a fresh interpreter that starts with the limit on."""
    rules = tmp_path / "big.rules"
    rules.write_text("m a 1 m 2 3 -> 3^9999 * m m 1 2 a 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for path, term, want in [
        (HOMASS, "7" * 5000 + " * m 1 2", 5000),
        (HOMASS, "3^9999 * m 1 2", 4771),
        (str(rules), "m a 1 m 2 3", 4771),
    ]:
        argv = [sys.executable, "-m", "homoperad.cli", "normalize", "--rules", path, "--term", term]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        coefficient, _, monomial = proc.stdout.partition(" * ")
        assert len(coefficient) == want and coefficient.isdecimal()
        assert monomial in ("m 1 2\n", "m m 1 2 a 3\n")


def test_complete_refuses_unwritable_out_before_completing(capsys, tmp_path):
    prefix = str(tmp_path / "missing" / "run")
    code, out, err = run(
        capsys, ["complete", "--rules", HOMASS, "--max-order", "5", "--out", prefix]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_repeated_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["complete", "--rules", HOMASS, "--max-order", "9"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each output, pinned when completion and the ambiguity listing
# were rewritten, so that any change to their bytes shows here
CENSUS_15 = "6a68144c7e07ce716dd8b2ddbc53a821f89ce3fdcb4e31e288edd6c4ab1e0046"
RULES_15 = "96c318aee4c636012754f377ebaf4e21f64d57d8c9d2e33ce33a9eca06d819de"
LOG_15 = "74d833d68f555841e6c666db60f4a18de16894c4c6819076caafed81f7228b39"
AMBIGUITIES_O12 = "adb0e7677591b0bb7e0a76f9055d33e90acfb946e3e232e4a0009621a7cb331a"


def test_outputs_are_byte_identical_to_pinned_digests(capsys, tmp_path):
    prefix = tmp_path / "P"
    code, out, err = run(
        capsys, ["complete", "--rules", HOMASS, "--max-order", "15", "--out", str(prefix)]
    )
    assert (code, err) == (0, "")
    assert sha256(out) == CENSUS_15
    assert sha256((tmp_path / "P.census.tsv").read_text()) == CENSUS_15
    assert sha256((tmp_path / "P.rules").read_text()) == RULES_15
    assert sha256((tmp_path / "P.log").read_text()) == LOG_15
    code, out, err = run(capsys, ["ambiguities", "--rules", HOMASS_O12])
    assert (code, err) == (0, "")
    assert sha256(out) == AMBIGUITIES_O12


def test_order_12_rules_reversed_and_doubled_complete_to_the_pinned_digests(capsys, tmp_path):
    """The order-12 system in reverse order and then again completes to the
    order-15 census and rules of homass.rules: each input rule is reduced
    by the ones before it, and a copy collapses."""
    lines = Path(HOMASS_O12).read_text().splitlines(keepends=True)
    path = tmp_path / "o12.rules"
    path.write_text("".join(lines[::-1] + lines))
    prefix = tmp_path / "P"
    argv = ["complete", "--rules", str(path), "--max-order", "15", "--out", str(prefix)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert sha256(out) == CENSUS_15
    assert sha256((tmp_path / "P.rules").read_text()) == RULES_15


# the same at order 16, pinned before completion found its superposition
# partners and inter-reduction targets through a subterm index
CENSUS_16 = "3cc662fa5e1f37b40a2792a6df920e25853f4865eba83364825e6b0d2b27f985"
RULES_16 = "3e214528426f84a8c8d76afb516b4dfb40b5cb68009d71accc4525468643cd32"
LOG_16 = "aa58dfb11a3e6d860babee2e1f88ac6ffc9b728650b9ff94ee5272bca22788d5"


def test_order_16_outputs_are_byte_identical_to_pinned_digests(capsys, tmp_path):
    prefix = tmp_path / "P"
    code, out, err = run(
        capsys, ["complete", "--rules", HOMASS, "--max-order", "16", "--out", str(prefix)]
    )
    assert (code, err) == (0, "")
    assert sha256(out) == CENSUS_16
    assert sha256((tmp_path / "P.census.tsv").read_text()) == CENSUS_16
    assert sha256((tmp_path / "P.rules").read_text()) == RULES_16
    assert sha256((tmp_path / "P.log").read_text()) == LOG_16
    _, rules = read_rules((tmp_path / "P.rules").read_text(), LEX_MA)
    assert census_mismatches(rules, range(3, 17)) == []


def census_mismatches(rules, degrees):
    """The gradings of total degree k, for each k of ``degrees``, where the
    count under the rules of order < k less the count under those of order
    <= k is not the number of rules of order k of that grading.  A
    homogeneous, inter-reduced system has none: a pattern of k vertices
    fits a monomial of k vertices only as the whole word, and no left side
    of order k is reducible by the rules below it.  This checks the
    counter against completion's census, apart from the counts' digests."""
    out = []
    for k in degrees:
        below = hilbert_series([r for r in rules if r.order < k], k)
        upto = hilbert_series(rules, k)
        census = Counter(grading(r.lhs) for r in rules if r.order == k)
        for i in range(k + 1):
            j = k - i
            if below.coefficient(i, j) - upto.coefficient(i, j) != census[i, j]:
                out.append((i, j))
    return out


# the degree-12 count of the order-12 system, pinned while every state pair
# still had its own convolution
HILBERT_O12 = "5d95a89c070422957cabd59aa3a4de93ab92f829977affbcaf197af9fd3fb14d"


def test_order_12_hilbert_count_is_byte_identical_to_pinned_digest(capsys):
    code, out, err = run(capsys, ["hilbert", "--rules", HOMASS_O12, "--degree", "12"])
    assert (code, err) == (0, "")
    assert sha256(out) == HILBERT_O12
    # every ambiguity of order <= 12 resolves, so every count is exact
    argv = ["hilbert", "--rules", HOMASS_O12, "--degree", "12", "--strict"]
    assert run(capsys, argv) == (0, out, "")


def grown_word(rng, k, l):
    """The Polish text of a plane monomial with k unary and l binary
    vertices, grown top-down from ``rng``."""

    def grow(k, l):
        if k == 0 and l == 0:
            return [0]
        if k and (not l or rng.random() < k / (k + l)):
            return ["a"] + grow(k - 1, l)
        k1, l1 = rng.randint(0, k), rng.randint(0, l - 1)
        return ["m"] + grow(k1, l1) + grow(k - k1, l - 1 - l1)

    boxes = iter(range(1, k + 2 * l + 2))
    return " ".join(str(next(boxes)) if t == 0 else t for t in grow(k, l))


def thirty_term_sum(seed):
    """A signed sum of thirty (5,7) monomials, in the order they are drawn."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < 30:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        terms[grown_word(rng, 5, 7)] = c
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)} * {w}" for w, c in terms.items())


# sha256 of the normal forms of twenty such sums, pinned while every
# reduction step still walked and copied the whole sum
NORMALIZE_O12 = "df79c7c66c9786c8ea99c9d15351a3806718afb0b188a8d6b829c26c7f10bca3"


def test_normal_forms_of_thirty_term_sums_are_byte_identical_to_pinned_digest(capsys):
    outs = []
    for seed in range(20):
        argv = ["normalize", "--rules", HOMASS_O12, "--term", thirty_term_sum(seed)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        outs.append(out)
    assert sha256("".join(outs)) == NORMALIZE_O12


def leibniz_sum(seed, count=14):
    """A signed sum of ``count`` distinct m-monomials on six boxes, each
    tree grown from ``seed`` and its boxes read in a shuffled order."""
    rng = random.Random(seed)

    def grow(n):
        if n == 1:
            return [0]
        i = rng.randint(1, n - 1)
        return ["m"] + grow(i) + grow(n - i)

    terms = {}
    while len(terms) < count:
        boxes = iter(rng.sample(range(1, 7), 6))
        word = " ".join(str(next(boxes)) if t == 0 else t for t in grow(6))
        terms[word] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)} * {w}" for w, c in terms.items())


# sha256 of a Leibniz normal form under right_comb, pinned while the
# h-vectors were still computed by a recursive walk
NORMALIZE_LEIBNIZ = "354a0ca8ed720fb2c385b6e51bfcbe97e0acc64afe09dbbd21e6282e33e6c73a"


def test_leibniz_normal_form_under_right_comb_is_byte_identical_to_pinned_digest(capsys):
    argv = ["normalize", "--rules", data_path("leibniz.rules"), "--order", "right_comb",
            "--term", leibniz_sum(18)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert len(out) == 2415
    assert sha256(out) == NORMALIZE_LEIBNIZ


# the q-coefficient outputs of the lab, pinned while rational functions
# still had Fraction coefficients
QTWIST = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "qtwist-ut4.json")
ALL_IDENTITIES = "hom-associative,hom-jacobi,skew,multiplicative"
LAB_DIGESTS = {
    "check-qsl2": (
        ["check-algebra", QSL2, "--identities", ALL_IDENTITIES], 1,
        "c9c39027e2ce9e7c3dd15fc58994717dabefee4908f3c3554e2975d2bacc6566",
    ),
    "check-qtwist": (
        ["check-algebra", QTWIST, "--identities", ALL_IDENTITIES], 1,
        "0b2ba8efcb61a38be3efe8e162ba2e589c4438aefbdb44a72d571bc7e116cad2",
    ),
    "envelope-qsl2": (
        ["envelope", QSL2, "--names", "e,f,h"], 0,
        "835b817988d73b4afc2cebb4325ad773928a2d9d777fa147d8a13cb0fcd989de",
    ),
}


# and the free count, pinned while it still had a closed form
PINNED_DIGESTS = {
    **LAB_DIGESTS,
    "free-12": (
        ["hilbert", "--rules", NO_RULES, "--degree", "12"], 0,
        "7b28b047ae33888c9b4c5dbd0718eadedf62288fda67ae0f1871b3eb18a76b4b",
    ),
    "free-20": (
        ["hilbert", "--rules", NO_RULES, "--degree", "20"], 0,
        "0ae02a917f6769b682066a2624a17795867623793e5ef984427e3d894b9540a6",
    ),
}


@pytest.mark.parametrize("argv, rc, digest", PINNED_DIGESTS.values(), ids=PINNED_DIGESTS)
def test_lab_outputs_are_byte_identical_to_pinned_digests(capsys, argv, rc, digest):
    code, out, err = run(capsys, argv)
    assert (code, err) == (rc, "")
    assert sha256(out) == digest


def test_normalize_with_q_coefficients(capsys, tmp_path):
    rules = tmp_path / "qsl2.rules"
    code, out, _ = run(capsys, ["envelope", QSL2, "--names", "e,f,h"])
    assert code == 0
    rules.write_text(out)
    for term, want in [
        ("m h m f e", "(-1/2 - 1/2*q) * m h h + m h m e f"),
        ("m m f e a h", "(-1/2*q - 1/2*q^2) * m h h + q * m m e f h"),
        ("m m h f m e f", "(-2*q) * m f m e f + m m f h m e f"),
    ]:
        code, out, _ = run(capsys, ["normalize", "--rules", str(rules), "--term", term])
        assert (code, out) == (0, want + "\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_complete_write_failure_is_a_write_error(capsys, tmp_path):
    (tmp_path / "P.log").symlink_to("/dev/full")
    code, out, err = run(
        capsys,
        ["complete", "--rules", HOMASS, "--max-order", "5", "--out", str(tmp_path / "P")],
    )
    assert code == 5
    assert out == "3\t1\n5\t1\n"
    assert err.startswith("write error:") and err.count("\n") == 1
    assert "Traceback" not in err


def cli_process(argv, **kwargs):
    """``python -m homoperad.cli`` on ``argv`` with this tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.Popen([sys.executable, "-m", "homoperad.cli", *argv], env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_to_stdout_is_a_write_error():
    """One line on stderr, and no traceback or ``Exception ignored`` when
    the interpreter flushes stdout again at exit."""
    with open("/dev/full", "w") as full:
        proc = cli_process(["hilbert", "--rules", NO_RULES, "--degree", "12"],
                           stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 5
    assert err.startswith("write error:") and err.count("\n") == 1, err


def test_a_pipe_closed_after_the_first_line_is_a_write_error():
    """The order-12 listing is far longer than a pipe holds, so the
    command is still writing when the reader goes."""
    proc = cli_process(["ambiguities", "--rules", HOMASS_O12],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "m a 1 m a 2 m 3 4\tr1,r1\tresolved\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 5
    assert err.startswith("write error:") and err.count("\n") == 1, err


@pytest.mark.skipif(os.name != "posix", reason="closes fd 0 in the child")
def test_normalize_with_stdin_closed_is_a_parse_error():
    """With fd 0 closed, ``sys.stdin`` is None in the child: refused input,
    not a traceback."""
    proc = cli_process(["normalize", "--rules", HOMASS], preexec_fn=lambda: os.close(0),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert err.startswith("parse error:") and err.count("\n") == 1, err


def test_an_unreadable_rules_file_is_still_a_parse_error():
    proc = cli_process(["ambiguities", "--rules", "/nonexistent"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert err.startswith("parse error:") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
@pytest.mark.parametrize("argv", [
    ["ambiguities", "--rules", "/proc/self/mem"],
    ["check-algebra", "/proc/self/mem", "--identities", "skew"],
])
def test_a_file_that_opens_but_cannot_be_read_is_a_parse_error(argv):
    """Reading the process's own memory from offset 0 opens, then fails
    with EIO: an error without a file name, which is still refused input."""
    proc = cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert err.startswith("parse error:") and err.count("\n") == 1, err


def test_ambiguities_listing(capsys):
    code, out, _ = run(
        capsys, ["ambiguities", "--rules", ASSOC, "--order", "right_comb"]
    )
    assert code == 0
    assert out.splitlines() == ["m 1 m 2 m 3 4\tr1,r1\tresolved"]


@pytest.mark.parametrize("rules, order, line", [
    (
        HOMASS,
        "lex_ma",
        "m a 1 m a 2 m 3 4\tr1,r1\tcandidate\tm m 1 a 2 a m 3 4 - m m 1 m 2 3 a a 4",
    ),
    (data_path("leibniz.rules"), "right_comb", "m 1 m 2 m 3 4\tr1,r1\tresolved"),
], ids=["homass-lex_ma", "leibniz-right_comb"])
def test_ambiguities_listing_is_pinned(capsys, rules, order, line):
    code, out, err = run(capsys, ["ambiguities", "--rules", rules, "--order", order])
    assert (code, out, err) == (0, line + "\n", "")


def test_ambiguities_of_an_envelope_are_pinned(capsys, tmp_path):
    """The qsl2 envelope's rules file, over constants e, f, h: each
    ambiguity is a candidate, with rational-function coefficients."""
    code, out, err = run(capsys, ["envelope", QSL2, "--names", "e,f,h"])
    assert (code, err) == (0, "")
    path = tmp_path / "envelope.rules"
    path.write_text(out)
    code, out, err = run(capsys, ["ambiguities", "--rules", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "m a e m 1 2\tr7,r1\tcandidate\t(-q) * m e m 1 2 + m m e 1 a 2",
        "m a f m 1 2\tr7,r2\tcandidate\t(-q^2) * m f m 1 2 + m m f 1 a 2",
        "m a h m 1 2\tr7,r3\tcandidate\t(-q) * m h m 1 2 + m m h 1 a 2",
        "m a 1 m a 2 m 3 4\tr7,r7\tcandidate\tm m 1 a 2 a m 3 4 - m m 1 m 2 3 a a 4",
        "m a 1 m f e\tr7,r4\tcandidate\t"
        "(1/2 + 1/2*q) * m a 1 h + (-q^2) * m m 1 e f + q * m m 1 f e",
        "m a 1 m h e\tr7,r5\tcandidate\t-2 * m a 1 e + (-q) * m m 1 e h + q * m m 1 h e",
        "m a 1 m h f\tr7,r6\tcandidate\t2*q * m a 1 f + (-q) * m m 1 f h + q^2 * m m 1 h f",
    ]


def test_listings_sort_a_box_before_every_symbol(capsys, tmp_path):
    """`complete --out` lists its rules, and `ambiguities` its sites, in
    Polish-lex order: a box before any symbol, even `.`, which as text
    sorts before the digits."""
    given, out = tmp_path / "given.rules", tmp_path / "dot"
    given.write_text("op m 2\nop . 1\nm . 1 m 2 3 -> m m 1 2 . 3\n")
    assert run(capsys, ["complete", "--rules", str(given), "--max-order", "8", "--out", str(out)])[0] == 0
    lines = Path(f"{out}.rules").read_text().splitlines()
    assert [line.split(" -> ")[0] for line in lines[-2:]] == [
        "m m m 1 2 . . 3 . . m 4 5", "m m m 1 . 2 m m 3 4 5 . . 6"]
    given.write_text("\n".join(lines[:3] + lines[5:6]) + "\n")
    listing = run(capsys, ["ambiguities", "--rules", str(given)])[1].splitlines()
    assert [line.split("\t")[0] for line in listing[2:4]] == [
        "m m m 1 2 . . 3 . . m . 4 m 5 6", "m m m . 1 m 2 3 . . 4 . . m 5 6"]


def test_ambiguities_of_no_rules_print_nothing(capsys, tmp_path):
    path = tmp_path / "empty.rules"
    path.write_text("# no rules\n")
    assert run(capsys, ["ambiguities", "--rules", str(path)]) == (0, "", "")


def test_hilbert_free(capsys):
    code, out, _ = run(capsys, ["hilbert", "--rules", NO_RULES, "--degree", "5"])
    assert code == 0
    assert "a^0 m^5\t42" in out.splitlines()


WARNING = "warning: coefficients not guaranteed stable at degrees "


def test_hilbert_with_rules_and_strict(capsys):
    # the one ambiguity of homass.rules, of grading (2, 3), does not
    # resolve: a^2 m^3 counts 111 here and 110 in the paper's table
    code, out, err = run(capsys, ["hilbert", "--rules", HOMASS, "--degree", "5"])
    assert (code, err) == (0, "")
    assert "a^2 m^3\t111" in out.splitlines()
    argv = ["hilbert", "--rules", HOMASS, "--degree", "5", "--strict"]
    assert run(capsys, argv) == (1, out, WARNING + "a^2m^3\n")


def test_hilbert_strict_without_stable_warns_and_fails(capsys):
    # no grading is declared stable: --strict works out that every count
    # below degree 5 is exact, and that a^2 m^3 alone is not at degree 5
    code, out, err = run(capsys, ["hilbert", "--rules", HOMASS, "--degree", "4", "--strict"])
    assert (code, err) == (0, "")
    assert "a^1 m^2\t9" in out.splitlines()
    code, _, err = run(capsys, ["hilbert", "--rules", HOMASS, "--degree", "5", "--strict"])
    assert (code, err) == (1, WARNING + "a^2m^3\n")


def counts(capsys, rules, degree):
    code, out, err = run(capsys, ["hilbert", "--rules", rules, "--degree", str(degree)])
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("rules, degree, flagged", [
    (HOMASS, 8, "a^2m^3 a^2m^4 a^3m^3 a^2m^5 a^3m^4 a^4m^3 a^2m^6 a^3m^5 a^4m^4 a^5m^3"),
    (HOMASS_O10, 12, "a^4m^7 a^5m^6 a^6m^5 a^4m^8 a^5m^7 a^6m^6 a^7m^5"),
], ids=["homass", "homass-o10"])
def test_hilbert_strict_flags_exactly_the_counts_that_completion_changes(
    capsys, tmp_path, rules, degree, flagged
):
    """``--strict`` warns at exactly the gradings where the count differs
    from the count of the system completed to order ``degree``, which is
    exact there: a rule of more vertices fits no monomial counted."""
    prefix = tmp_path / "P"
    argv = ["complete", "--rules", rules, "--max-order", str(degree), "--out", str(prefix)]
    assert run(capsys, argv)[0] == 0
    got = counts(capsys, rules, degree)
    exact = counts(capsys, f"{prefix}.rules", degree).splitlines()
    differ = [x.split("\t")[0].replace(" ", "") for x, y in zip(got.splitlines(), exact) if x != y]
    assert " ".join(differ) == flagged
    argv = ["hilbert", "--rules", rules, "--degree", str(degree), "--strict"]
    assert run(capsys, argv) == (1, got, WARNING + flagged + "\n")


def test_hilbert_strict_refuses_an_inhomogeneous_rule(capsys, tmp_path):
    """``--strict`` applies the Diamond Lemma one grading at a time, which
    needs homogeneous rules: it refuses others before it prints anything.
    Without it, the count runs."""
    path = tmp_path / "shrink.rules"
    path.write_text("a a m 1 2 -> a m 1 2\n")
    argv = ["hilbert", "--rules", str(path), "--degree", "3"]
    code, out, err = run(capsys, [*argv, "--strict"])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "not homogeneous" in err
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert "a^2 m^1\t5" in out.splitlines()  # of 6: all but the pattern


ONE_PROCESS = """
import contextlib, io, json, sys
from homoperad.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_repeated_main_calls_share_no_state():
    """``main`` builds its parser once per process: a `--strict` given to
    one call is not seen by the next, and a call that argparse refuses
    leaves nothing behind.  Each call answers as it does alone."""
    calls = [
        ["hilbert", "--rules", HOMASS, "--degree", "5", "--strict"],
        ["hilbert", "--rules", HOMASS, "--degree", "5"],
        ["hilbert", "--degree", "3", "--strict", "1,1"],
        ["normalize", "--rules", HOMASS, "--term", "m a 1 m 2 a 3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    alone = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "homoperad.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        alone.append([proc.returncode, proc.stdout, proc.stderr])
    assert [code for code, _, _ in alone] == [1, 0, 2, 0]
    proc = subprocess.run([sys.executable, "-c", ONE_PROCESS, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == alone


@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
def test_hilbert_on_no_rules_is_the_free_count(capsys, tmp_path, strict):
    """An empty rules file, and one of comments only, print the free
    counts, and neither warns, since the free counts are exact."""
    free = run(capsys, ["hilbert", "--rules", NO_RULES, "--degree", "5", *strict])
    assert free[0] == 0 and free[2] == ""
    for text in ("", "# no rules\n"):
        path = tmp_path / "empty.rules"
        path.write_text(text)
        assert run(capsys, ["hilbert", "--rules", str(path), "--degree", "5", *strict]) == free


def test_hilbert_reads_no_pattern_longer_than_the_degree(capsys, tmp_path):
    # a pattern of 2,400 vertices fits no monomial of at most 3
    n = 1200
    path = tmp_path / "deep.rules"
    path.write_text("a " * n + "m 1 2 -> " + "a " * (n - 1) + "m 1 2\n")
    code, out, _ = run(capsys, ["hilbert", "--rules", str(path), "--degree", "3"])
    assert code == 0
    assert out == run(capsys, ["hilbert", "--rules", NO_RULES, "--degree", "3"])[1]


GROWING = "op m 2\nop a 1\nop e 0\na e -> m e a e\n"

# case -> (input file text or None, argv with FILE standing for that file)
MALFORMED = {
    "op-arity": ("op m x\nm 1 2 -> m 2 1\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "box-token": ("m a [x] m 2 3 -> m m [x] 2 a 3\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "no-mult": ('{"dim": 1, "alpha": [["1"]]}', ["check-algebra", "FILE", "--identities", "skew"]),
    "not-json": ("dim 1\n", ["check-algebra", "FILE", "--identities", "skew"]),
    # each vector, row and scalar of an algebra must be a JSON array or string
    "algebra-string-vector": (
        '{"dim": 1, "mult": [["0"]], "alpha": [["1"]]}',
        ["check-algebra", "FILE", "--identities", "skew"],
    ),
    "algebra-string-row": (
        '{"dim": 2, "mult": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "alpha": ["10", "01"]}',
        ["check-algebra", "FILE", "--identities", "skew,hom-jacobi"],
    ),
    "algebra-number-scalar": (
        '{"dim": 1, "mult": [[[0]]], "alpha": [["1"]]}',
        ["check-algebra", "FILE", "--identities", "skew"],
    ),
    # every array of an algebra holds dim entries
    "algebra-short-mult": (
        '{"dim": 2, "mult": [[["0", "0"], ["0", "0"]]], "alpha": [["1", "0"], ["0", "1"]]}',
        ["check-algebra", "FILE", "--identities", "skew"],
    ),
    "algebra-short-row": (
        '{"dim": 2, "mult": [[["0", "0"], ["0", "0"]], [["0", "0"]]], "alpha": [["1", "0"], ["0", "1"]]}',
        ["check-algebra", "FILE", "--identities", "skew"],
    ),
    "algebra-short-alpha": (
        '{"dim": 2, "mult": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "alpha": [["1", "0"], ["0"]]}',
        ["envelope", "FILE", "--names", "x,y"],
    ),
    "algebra-negative-dim": (
        '{"dim": -1, "mult": [], "alpha": []}',
        ["check-algebra", "FILE", "--identities", "skew"],
    ),
    "negative-degree": (None, ["hilbert", "--rules", NO_RULES, "--degree", "-1"]),
    "negative-max-order": (None, ["complete", "--rules", HOMASS, "--max-order", "-3"]),
    # --degree and --max-order are ASCII decimals, as boxes and arities are
    "degree-fullwidth-digit": (None, ["hilbert", "--rules", NO_RULES, "--degree", "\uff15"]),
    "degree-underscore": (None, ["hilbert", "--rules", NO_RULES, "--degree", "1_0"]),
    "max-order-fullwidth-digit": (None, ["complete", "--rules", HOMASS, "--max-order", "\uff15"]),
    "max-order-underscore": (None, ["complete", "--rules", HOMASS, "--max-order", "1_0"]),
    "negative-budget": (None, ["complete", "--rules", HOMASS, "--max-order", "3", "--budget", "-1"]),
    "nan-budget": (None, ["complete", "--rules", HOMASS, "--max-order", "3", "--budget", "nan"]),
    # --budget is ASCII digits with at most one `.`
    "budget-fullwidth-digit": (None, ["complete", "--rules", HOMASS, "--max-order", "3", "--budget", "\uff15"]),
    "budget-underscore": (None, ["complete", "--rules", HOMASS, "--max-order", "3", "--budget", "1_0"]),
    "budget-inf": (None, ["complete", "--rules", HOMASS, "--max-order", "3", "--budget", "inf"]),
    # a malformed rule is a parse error, not an order failure
    "rule-arity-mismatch": ("m 1 2 -> a 1\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "rule-without-operation": ("1 -> 1\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "envelope-names": (None, ["envelope", QSL2, "--names", "e,f"]),
    "envelope-not-bracket": (
        '{"dim": 1, "mult": [[["0"]]], "alpha": [["1"]]}',
        ["envelope", "FILE", "--names", "x"],
    ),
    "rules-directory": (None, ["normalize", "--rules", DATA, "--term", "1"]),
    "algebra-directory": (None, ["check-algebra", DATA, "--identities", "skew"]),
    "identity-after-known": (None, ["check-algebra", QSL2, "--identities", "skew,nope"]),
    "rules-line-without-arrow": ("m a 1 m 2 3\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    # a sum that ends in a sign is refused, not read without it
    "term-trailing-minus": (None, ["normalize", "--rules", HOMASS, "--term", "m 1 2 -"]),
    "rule-trailing-plus": ("m a 1 m 2 3 -> m m 1 2 a 3 +\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "hilbert-assoc-signature": (
        None,
        ["hilbert", "--rules", ASSOC, "--order", "right_comb", "--degree", "3"],
    ),
    "hilbert-leibniz-signature": (
        None,
        ["hilbert", "--rules", data_path("leibniz.rules"), "--order", "right_comb", "--degree", "3"],
    ),
    # `a e` rewrites to a term that contains `a e`, so reduction never ends
    "normalize-growing-rule": (GROWING, ["normalize", "--rules", "FILE", "--term", "a e"]),
    "ambiguities-growing-rule": (GROWING, ["ambiguities", "--rules", "FILE"]),
    # only a JSON boolean marks a bracket table; the string "false" does not
    "algebra-bracket-string": (
        '{"dim": 1, "mult": [[["1"]]], "alpha": [["1"]], "bracket": "false"}',
        ["envelope", "FILE", "--names", "x"],
    ),
    "algebra-deep-arrays": ("[" * 100_000 + "]" * 100_000, ["check-algebra", "FILE", "--identities", "skew"]),
    # a symbol name the rules-file format could not read back
    "envelope-name-plus": (None, ["envelope", QSL2, "--names", "+,f,h"]),
    "envelope-name-star": (None, ["envelope", QSL2, "--names", "*,f,h"]),
    "envelope-name-box": (None, ["envelope", QSL2, "--names", "[x],f,h"]),
    "envelope-name-parenthesis": (None, ["envelope", QSL2, "--names", "(,f,h"]),
    "op-name-minus": ("op m 2\nop - 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "op-name-op": ("op m 2\nop op 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "op-name-arrow": ("op m 2\nop x->y 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "op-name-parenthesis": ("op m 2\nop x) 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "op-name-comment": ("op m 2\nop #x 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "op-name-leading-minus": ("op m 2\nop -x 0\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    # boxes, scalar digits and arities are ASCII decimals only
    "term-superscript-box": (None, ["normalize", "--rules", HOMASS, "--term", "m \u00b2 1"]),
    "scalar-superscript-digit": (None, ["normalize", "--rules", HOMASS, "--term", "\u00b2 * m 1 2"]),
    "term-fullwidth-box": (None, ["normalize", "--rules", HOMASS, "--term", "m 1 [\uff12]"]),
    "op-arity-fullwidth": ("op m \uff12\nm 1 2 -> m 2 1\n", ["normalize", "--rules", "FILE", "--term", "m 1 2"]),
    "scalar-ends-early": (None, ["normalize", "--rules", HOMASS, "--term", "* m 1 2"]),
    "scalar-deep-parentheses": (
        None,
        ["normalize", "--rules", HOMASS, "--term", "(" * 1200 + "2" + ")" * 1200 + " * m 1 2"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_parse_error(capsys, tmp_path, case):
    text, argv = MALFORMED[case]
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")


@pytest.mark.parametrize("case, field", [
    ("algebra-string-vector", "mult[0][0] is not an array"),
    ("algebra-string-row", "alpha[0] is not an array"),
    ("algebra-number-scalar", "mult[0][0][0] is not a string"),
    ("algebra-short-mult", "mult has length 1, not dim 2"),
    ("algebra-short-row", "mult[1] has length 1, not dim 2"),
    ("algebra-short-alpha", "alpha[1] has length 1, not dim 2"),
    ("algebra-negative-dim", "mult has length 0, not dim -1"),
    ("algebra-bracket-string", "bracket is not a boolean"),
    ("algebra-deep-arrays", "nested too deeply"),
])
def test_malformed_algebra_names_the_field(capsys, tmp_path, case, field):
    text, argv = MALFORMED[case]
    path = tmp_path / "algebra.json"
    path.write_text(text)
    code, _, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    assert err == f"parse error: malformed algebra document: {field}\n"


def test_a_scalar_that_ends_early_says_so(capsys):
    code, out, err = run(capsys, MALFORMED["scalar-ends-early"][1])
    assert (code, out, err) == (2, "", "parse error: scalar ends early\n")


@pytest.mark.parametrize("scalar", ["1/0", "q/0", "1/(q - q)", "(1 + q)/(q - q)"])
def test_division_by_zero_has_one_message(capsys, tmp_path, scalar):
    """A zero divisor is one parse error, whether the quotient is a
    rational or a rational function, in a `--term` and in an algebra."""
    argv = ["normalize", "--rules", HOMASS, "--term", f"{scalar} * m 1 2"]
    assert run(capsys, argv) == (2, "", "parse error: division by zero\n")
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 1, "mult": [[[scalar]]], "alpha": [["1"]]}))
    assert run(capsys, ["check-algebra", str(path), "--identities", "skew"]) == (
        2, "", "parse error: malformed algebra document: mult[0][0][0]: division by zero\n"
    )


def test_an_exponent_above_ten_thousand_is_refused_before_it_is_computed(
    capsys, monkeypatch, tmp_path
):
    """q^99999999 took gigabytes; in a `--term`, a rule and an algebra entry
    it is a parse error, and no power of a polynomial is taken."""
    def no_power(p, n):
        raise AssertionError(f"power {n} computed")

    monkeypatch.setattr(scalars, "_poly_pow", no_power)
    refused = (2, "", "parse error: exponent above 10000\n")
    argv = ["normalize", "--rules", HOMASS, "--term", "q^99999999 * m 1 2"]
    assert run(capsys, argv) == refused
    rules = tmp_path / "big.rules"
    rules.write_text("m a 1 m 2 3 -> q^99999999 * m m 1 2 a 3\n")
    assert run(capsys, ["normalize", "--rules", str(rules), "--term", "m 1 2"]) == refused
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 1, "mult": [[["q^99999999"]]], "alpha": [["1"]]}))
    assert run(capsys, ["check-algebra", str(path), "--identities", "skew"]) == (
        2, "", "parse error: malformed algebra document: mult[0][0][0]: exponent above 10000\n"
    )


def test_deep_scalar_is_a_parse_error_that_names_the_nesting(capsys):
    code, out, err = run(capsys, MALFORMED["scalar-deep-parentheses"][1])
    assert (code, out) == (2, "")
    assert err == "parse error: parentheses or signs nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["normalize", "--rules", "FILE", "--term", "m 1 2"],
    ["check-algebra", "FILE", "--identities", "skew"],
], ids=["rules", "algebra"])
def test_input_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_rules_file_errors_count_every_line(capsys, tmp_path):
    path = tmp_path / "line5.rules"
    path.write_text("op m 2\nop a 1\n# a comment\nm a 1 m 2 3 -> m m 1 2 a 3\nm a 1 m 2 3\n")
    code, out, err = run(capsys, ["normalize", "--rules", str(path), "--term", "m 1 2"])
    assert (code, out) == (2, "")
    assert err == "parse error: line 5: expected `<lhs> -> <rhs>`\n"


# exit 4: a rule or candidate the active term order cannot orient


def test_normalize_with_a_rule_the_order_cannot_orient(capsys):
    code, out, err = run(capsys, ["normalize", "--rules", ASSOC, "--term", "m 1 m 2 3"])
    assert (code, out) == (4, "")
    assert err == (
        "order failure: rule r1: replacement monomial m m 1 2 3 is not strictly "
        "below the pattern m 1 m 2 3 under lex_ma\n"
    )


def test_envelope_under_right_comb_orients_no_ground_rule(capsys):
    code, out, err = run(capsys, ["envelope", QSL2, "--names", "e,f,h", "--order", "right_comb"])
    assert (code, out) == (4, "")
    assert err == (
        "order failure: rule alpha_e: replacement monomial e is not strictly "
        "below the pattern a e under right_comb\n"
    )


def test_ambiguities_reports_an_order_failure_verdict(capsys):
    code, out, err = run(capsys, ["ambiguities", "--rules", HOMASS, "--order", "right_comb"])
    assert (code, out, err) == (0, "m a 1 m a 2 m 3 4\tr1,r1\torder_failure\n", "")


def test_deep_rule_under_right_comb_is_an_order_failure(capsys, tmp_path):
    path = tmp_path / "deep.rules"
    path.write_text("a " * 1200 + "m 1 2 -> " + "a " * 1199 + "m 1 2\n")
    argv = ["normalize", "--rules", str(path), "--order", "right_comb", "--term", "m 1 2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err == (
        f"order failure: rule r1: replacement monomial {'a ' * 1199}m 1 2 is not "
        f"strictly below the pattern {'a ' * 1200}m 1 2 under right_comb\n"
    )


def test_check_algebra_pass(capsys):
    code, out, _ = run(
        capsys,
        ["check-algebra", QSL2, "--identities", "skew,hom-jacobi"],
    )
    assert code == 0
    assert out == "skew\tPASS\nhom-jacobi\tPASS\n"


QSL2_HOM_ASSOCIATIVE = """\
hom-associative\tFAIL
  at (0, 0, 1): defect [-q - q^2, 0, 0]
  at (0, 1, 1): defect [0, q^3 + q^4, 0]
  at (0, 1, 2): defect [0, 0, q^2 + q^3]
  at (0, 2, 2): defect [-4*q, 0, 0]
  at (1, 0, 0): defect [q + q^2, 0, 0]
  at (1, 0, 2): defect [0, 0, q^2 + q^3]
  at (1, 1, 0): defect [0, -q^3 - q^4, 0]
  at (1, 2, 2): defect [0, -4*q^3, 0]
  at (2, 0, 1): defect [0, 0, -q^2 - q^3]
  at (2, 1, 0): defect [0, 0, -q^2 - q^3]
  at (2, 2, 0): defect [4*q, 0, 0]
  at (2, 2, 1): defect [0, 4*q^3, 0]
"""

RATIONAL_TABLE = '{"dim": 2, "mult": [[["1","0"],["0","1"]],[["0","1"],["0","0"]]], "alpha": [["2","0"],["0","1"]]}'


def test_check_algebra_fail(capsys, tmp_path):
    code, out, _ = run(capsys, ["check-algebra", QSL2, "--identities", "hom-associative"])
    assert code == 1
    assert out == QSL2_HOM_ASSOCIATIVE
    path = tmp_path / "rational.json"
    path.write_text(RATIONAL_TABLE)
    code, out, _ = run(capsys, ["check-algebra", str(path), "--identities", "hom-associative"])
    assert code == 1
    assert out == (
        "hom-associative\tFAIL\n"
        "  at (0, 0, 1): defect [0, 1]\n"
        "  at (1, 0, 0): defect [0, -1]\n"
    )


def test_check_algebra_unknown_identity(capsys):
    code, _, err = run(
        capsys, ["check-algebra", QSL2, "--identities", "nope"]
    )
    assert code == 2


def test_envelope(capsys):
    code, out, _ = run(capsys, ["envelope", QSL2, "--names", "e,f,h"])
    assert code == 0
    assert "a e -> q * e" in out.splitlines()
    assert out.endswith("m a 1 m 2 3 -> m m 1 2 a 3\n")


def test_envelope_zero_rule_reads_back(capsys, tmp_path):
    table = tmp_path / "zero.json"
    table.write_text('{"dim": 1, "mult": [[["0"]]], "alpha": [["0"]], "bracket": true}')
    code, out, _ = run(capsys, ["envelope", str(table), "--names", "x"])
    assert code == 0
    assert "a x -> 0" in out.splitlines()
    rules = tmp_path / "zero.rules"
    rules.write_text(out)
    code, out, err = run(capsys, ["normalize", "--rules", str(rules), "--term", "m a x 1"])
    assert (code, out, err) == (0, "0\n", "")
    # complete --out keeps the `op` lines, so its rules read back too
    prefix = str(tmp_path / "done")
    code, _, _ = run(
        capsys, ["complete", "--rules", str(rules), "--max-order", "5", "--out", prefix]
    )
    assert code == 0
    assert (tmp_path / "done.rules").read_text().startswith("op m 2\nop a 1\nop x 0\n")
    code, out, err = run(capsys, ["normalize", "--rules", prefix + ".rules", "--term", "a x"])
    assert (code, out, err) == (0, "0\n", "")


def test_envelope_leading_minus_rule_reads_back(capsys, tmp_path):
    table = tmp_path / "minus.json"
    table.write_text('{"dim": 1, "mult": [[["0"]]], "alpha": [["-1"]], "bracket": true}')
    code, out, _ = run(capsys, ["envelope", str(table), "--names", "x"])
    assert code == 0
    assert "a x -> -x" in out.splitlines()
    rules = tmp_path / "minus.rules"
    rules.write_text(out)
    code, out, err = run(capsys, ["normalize", "--rules", str(rules), "--term", "m a x 1"])
    assert (code, out, err) == (0, "-m x 1\n", "")


def test_envelope_names_that_join_alike_give_distinct_rules(capsys, tmp_path):
    """The pairs (x, y_z) and (x_y, z) each have their commutator rule:
    a rule id joins two names with a character that no name holds."""
    table = tmp_path / "abelian.json"
    table.write_text(json.dumps({
        "dim": 4,
        "mult": [[["0"] * 4] * 4] * 4,
        "alpha": [[str(int(i == j)) for j in range(4)] for i in range(4)],
        "bracket": True,
    }))
    code, out, err = run(capsys, ["envelope", str(table), "--names", "x,y_z,x_y,z"])
    assert (code, err) == (0, "")
    assert "m z x_y -> m x_y z" in out.splitlines()
    rules = tmp_path / "abelian.rules"
    rules.write_text(out)
    assert len(read_rules(out, LEX_MA)[1]) == 4 + 6 + 1
    argv = ["normalize", "--rules", str(rules), "--term", "m y_z x - m x y_z"]
    assert run(capsys, argv) == (0, "0\n", "")


def test_normal_form_with_leading_minus_reads_back(capsys):
    code, out, _ = run(capsys, ["normalize", "--rules", HOMASS, "--term", "- m 1 2"])
    assert (code, out) == (0, "-m 1 2\n")
    code, again, err = run(capsys, ["normalize", "--rules", HOMASS, "--term", out.strip()])
    assert (code, again, err) == (0, out, "")
    code, out, _ = run(capsys, ["normalize", "--rules", HOMASS, "--term", "-m a 1 m 2 3 + -2 * a m 1 m 2 3"])
    assert (code, out) == (0, "-2 * a m 1 m 2 3 - m m 1 2 a 3\n")


# argparse refuses a missing --rules, and the --free that a rules file with
# no rules replaced, with its usage line
REQUIRED_RULES = "the following arguments are required: --rules"
USAGE_ERRORS = {
    "hilbert-no-rules": (["hilbert", "--degree", "3"], REQUIRED_RULES),
    "normalize-no-rules": (["normalize", "--term", "m 1 2"], REQUIRED_RULES),
    "ambiguities-no-rules": (["ambiguities"], REQUIRED_RULES),
    "complete-no-rules": (["complete", "--max-order", "3"], REQUIRED_RULES),
    "hilbert-free": (
        ["hilbert", "--free", "--rules", NO_RULES, "--degree", "3"],
        "unrecognized arguments: --free",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_missing_or_unknown_option_is_a_usage_error(capsys, case):
    argv, message = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert err.startswith("usage: homoperad ") and err.endswith(f"error: {message}\n")


def test_help_and_unknown_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["normalize", "--frobnicate"])
