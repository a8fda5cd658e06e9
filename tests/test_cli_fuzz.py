"""Any argv of the six commands ends in an exit code of 0 to 5, never in
an uncaught exception, and a refusal's first words on stderr name its
code: flags and values come from small fixed sets of good and bad inputs,
and the rules and algebra files from the bundled ones, a directory, a
missing path and malformed files."""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_cli import ASSOC, DATA, HOMASS, QSL2, data_path
from test_roundtrip import sums

from homoperad.cli import main

MALFORMED = {
    "op-no-arity.rules": "op m\nm 1 2 -> m 2 1\n",
    "op-bad-arity.rules": "op m x\nop a 1\nm 1 2 -> m 2 1\n",
    "op-bad-name.rules": "op + 2\nop a 1\n",
    "op-twice.rules": "op m 2\nop m 3\nop a 1\nm 1 2 -> 0\n",
    "boxes.rules": "m [10] 1 -> m 1 [10]\n",
    "box-zero.rules": "m [0] 1 -> 0\n",
    "box-wide.rules": "m [１２] 1 -> 0\n",
    "division.rules": "m a 1 m 2 3 -> 1/0 * m m 1 2 a 3\n",
    "growing.rules": "a m 1 2 -> m a 1 m 2 2\n",
    "unorientable.rules": "m m 1 2 3 -> m 1 m 2 3\n",
    "division.json": '{"dim": 1, "mult": [[["1/0"]]], "alpha": [["1"]]}\n',
    "short.json": '{"dim": 2, "mult": [], "alpha": []}\n',
    "short-row.json": '{"dim": 2, "mult": [[["0", "0"], ["0", "0"]], [["0", "0"]]], "alpha": [["1", "0"], ["0", "1"]]}\n',
    "short-alpha.json": '{"dim": 1, "mult": [[["0"]]], "alpha": [[]], "bracket": true}\n',
    "negative-dim.json": '{"dim": -1, "mult": [], "alpha": []}\n',
    "deep.json": "[" * 100_000 + "]" * 100_000,
}
NOT_UTF8 = b"m a 1 m 2 3 -> \xff\xfe m m 1 2 a 3\n"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The rules or algebra paths an argv may name, as often a bundled file
    as a bad one, and the prefixes of ``--out``, one under a directory that
    does not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in MALFORMED.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "not-utf8.rules").write_bytes(NOT_UTF8)
    (root / "not-utf8.json").write_bytes(NOT_UTF8)
    good = [HOMASS, ASSOC, data_path("leibniz.rules"), QSL2]
    bad = [DATA, str(root / "missing"), *sorted(str(p) for p in root.iterdir())]
    files = st.sampled_from(good) | st.sampled_from(bad)
    outs = [str(root / "run"), str(root / "missing" / "run"), str(root) + os.sep]
    return files, st.sampled_from(outs)


TERMS = st.sampled_from([
    "", "0", "-", "2 +", "(", "m 1", "m 1 2 3", "a 1 ->", "1/0 * m 1 2",
    "q * m a 1 2 - m 1 a 2", "m [10] 1", "m 1 [0]", "m ² 1", "a " * 300 + "1",
]) | st.sampled_from([
    # coefficients of more digits than Python's default int/str limit
    "7" * 5000 + " * m 1 2", "3^9999 * m 1 2",
]) | sums().map(str)
COUNTS = st.sampled_from(["0", "4", "6"]) | st.sampled_from(["-1", "５", "1_0", "x", ""])
IDENTITIES = st.sampled_from(["hom-associative", "hom-jacobi", "skew,multiplicative"]) | (
    st.sampled_from(["skew,nope", ""])
)
NAMES = st.sampled_from(["e,f,h", "x,y,z"]) | st.sampled_from(["e", "e,e,h", "+,f,h", ",,", ""])
ORDERS = st.sampled_from(["lex_ma", "right_comb", "nope"])


REQUIRED = {"--rules", "--max-order", "--degree", "--identities", "--names"}
NINE_IN_TEN = st.sampled_from([True] * 9 + [False])


@st.composite
def argvs(draw, path, outs):
    """One command's argv: each option present or not, a required one
    nine times in ten, in any order, with a value from its fixed set, and
    now and then an unknown flag."""
    command = draw(st.sampled_from(
        ["normalize", "complete", "ambiguities", "hilbert", "check-algebra", "envelope"]
    ))
    options = {"--order": ORDERS}
    positional = []
    if command == "check-algebra":
        options = {"--identities": IDENTITIES}
        positional = [draw(path)]
    elif command == "envelope":
        options |= {"--names": NAMES}
        positional = [draw(path)]
    else:
        options |= {"--rules": path}
    if command == "normalize":
        options |= {"--term": TERMS}
    elif command == "complete":
        options |= {
            "--max-order": COUNTS,
            "--budget": st.sampled_from(["0", "1", "0.5"]) | st.sampled_from(["-1", "nan", "x", "inf"]),
            "--out": outs,
        }
    elif command == "hilbert":
        options |= {"--degree": COUNTS, "--strict": st.just(None)}
    words = []
    for flag, values in options.items():
        if draw(NINE_IN_TEN if flag in REQUIRED else st.booleans()):
            value = draw(values)
            words.append([flag] if value is None else [flag, value])
    if not draw(NINE_IN_TEN):
        words.append(["--nope"])
    words = draw(st.permutations(words))
    return [command, *positional, *(w for pair in words for w in pair)]


STDIN = st.sampled_from([
    "m a 1 m 2 3\n", "", "m 1\n", "\n", b"m a 1 \xff 2\n",
])


def run_main(argv, stdin) -> tuple[int, str]:
    """``main``'s exit code and stderr; argparse's ``SystemExit`` counts as
    its code."""
    if isinstance(stdin, bytes):
        stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    else:
        stream = io.StringIO(stdin)
    err = io.StringIO()
    with mock.patch("sys.stdin", stream), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


# exit 2 is a refusal of input, a TermError or an unreadable file, or
# argparse's usage error; exit 4 a refusal by the term order, a RuleError
REFUSALS = {2: ("parse error:", "usage:"), 4: ("order failure:",)}


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(paths, data):
    files, outs = paths
    argv = data.draw(argvs(files, outs), label="argv")
    rc, err = run_main(argv, data.draw(STDIN, label="stdin"))
    assert rc in range(6), argv
    assert err.startswith(REFUSALS.get(rc, "")), (argv, rc, err)
