"""Batch command-line front end.

Exit codes: 0 success, 1 a failed check (`check-algebra` FAIL, or
`hilbert --strict` with a count that an ambiguity which does not resolve
leaves inexact), 2 a usage error (argparse's: a missing option such as
`--rules`, or an unknown one) or a parse error or refused input, a
`TermError` or a file that cannot be read (input that is not UTF-8; an
algebra array whose length is not `dim`; a malformed rule, such as one
whose sides differ in arity or whose pattern has no operation; a sum, in
a `--term` or a rule, that ends in `+` or `-`; a symbol name the rules
format could not read back, such as `+`; a `hilbert --degree` that is not
ASCII digits, such as `-1`, `５` or `1_0`; for `complete`, such a
`--max-order`, a `--budget` that is not ASCII digits with at most one
`.`, such as `inf`, or an inhomogeneous rule, one with a replacement
monomial whose (a, m) grading or vertex count differs from its pattern's,
all refused before any `--out` file is created, or an unwritable `--out`;
for `hilbert --strict`, an inhomogeneous rule, refused before anything is
printed; for `normalize` and `ambiguities`, a rule with a replacement
monomial of more vertices than its pattern), 3 budget exhausted, 4 order
failure, a `RuleError` (a rule or a difference could not be oriented by
the active term order; `complete` names the normalized difference it
stopped at, which may be an older rule's, adjoined again), 5 write error
(writing or closing a `complete --out` file failed).

`hilbert --strict` lists the critical ambiguities of the rules of order
<= D, where D is `--degree`, and warns at every grading at or above, in
both a and m, one that does not resolve: by the Diamond Lemma the other
counts are exact.  A rules file of no rules, such as `/dev/null`, counts
the free operad, whose counts are exact, so it does not warn.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .completion import ambiguities, complete, refuse_inhomogeneous
from .homalgebra import (
    check_hom_associative,
    check_hom_jacobi,
    check_multiplicative,
    check_skew,
    envelope_presentation,
    load_algebra,
)
from .linear import IncomparableLeading, RuleError, leading_monomial
from .orders import ORDERS, get_order
from .rewrite import (
    RewritingSystem,
    format_rules,
    normal_form,
    parse_lincomb,
    read_rules,
    refuse_growing,
)
from .scalars import format_scalar
from .series import format_series, hilbert_series
from .terms import HOM_SIGNATURE, TermError, _is_ascii_decimal, grading, sort_key

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_ORDER = 4
EXIT_WRITE = 5


def load_rules_path(path: str, order_name: str):
    """Read a rules file with ``read_rules``; leading `op` lines override
    the default hom signature, so enveloping presentations are
    self-contained."""
    with open(path) as f:
        text = f.read()
    order = get_order(order_name)
    sig, rules = read_rules(text, order)
    return sig, order, rules


def cmd_normalize(args) -> int:
    sig, order, rules = load_rules_path(args.rules, args.order)
    refuse_growing(rules)  # a rule that grows its monomial may never stop
    system = RewritingSystem(sig, order, rules)
    text = args.term if args.term is not None else sys.stdin.read()
    x = parse_lincomb(text.strip(), sig)
    print(normal_form(x, system))
    return EXIT_OK


def _parse_count(text: str, option: str, name: str, point: bool = False):
    """A non-negative number in ASCII digits, the value of ``option``: an
    int, or with ``point`` a float of at most one `.`."""
    digits = text.replace(".", "", 1) if point else text
    if not _is_ascii_decimal(digits):
        raise TermError(f"{option} expects {name} >= 0, got {text}")
    return float(text) if point else int(text)


def cmd_complete(args) -> int:
    max_order = _parse_count(args.max_order, "--max-order", "N")
    budget = args.budget
    if budget is not None:
        budget = _parse_count(budget, "--budget", "seconds", point=True)
    sig, order, rules = load_rules_path(args.rules, args.order)
    refuse_inhomogeneous(rules)  # before any --out file is created
    exts = (".rules", ".census.tsv", ".log") if args.out else ()
    with contextlib.ExitStack() as stack:
        # opened before completion, so an unwritable --out prefix fails first
        outs = [stack.enter_context(open(args.out + ext, "w")) for ext in exts]
        state = complete(
            RewritingSystem(sig, order, rules), max_order, budget_seconds=budget
        )
        census = "".join(f"{o}\t{n}\n" for o, n in state.census().items())
        sys.stdout.write(census)
        if outs:
            rules_f, census_f, log_f = outs
            ordered = sorted(state.system, key=lambda r: (r.order, sort_key(r.lhs)))
            try:
                with stack.pop_all():  # closing flushes, so a write may fail there
                    rules_f.write(format_rules(ordered, sig))
                    census_f.write(census)
                    log_f.writelines(f"{amb}\t{outcome}\n" for amb, outcome in state.log)
            except OSError as e:
                print(f"write error: {e}", file=sys.stderr)
                return EXIT_WRITE
    if state.status == "budget":
        print("budget exhausted before reaching max order", file=sys.stderr)
        return EXIT_BUDGET
    if state.status == "order_failure":
        print(
            f"order failure: cannot orient {state.failure.diff}", file=sys.stderr
        )
        return EXIT_ORDER
    return EXIT_OK


def cmd_ambiguities(args) -> int:
    sig, order, rules = load_rules_path(args.rules, args.order)
    refuse_growing(rules)
    for amb, diff in ambiguities(RewritingSystem(sig, order, rules)):
        if not diff:
            verdict = "resolved"
        else:
            try:
                leading_monomial(diff, order)
                verdict = f"candidate\t{diff}"
            except IncomparableLeading:
                verdict = "order_failure"
        print(f"{amb}\t{verdict}")
    return EXIT_OK


def cmd_hilbert(args) -> int:
    degree = _parse_count(args.degree, "--degree", "D")
    sig, order, rules = load_rules_path(args.rules, args.order)
    if set(sig.symbols) != set(HOM_SIGNATURE.symbols):
        got = ", ".join(f"{name}/{n}" for name, n in sig.symbols)
        raise TermError(f"hilbert counts over m/2, a/1; the rules are over {got}")
    if args.strict:
        refuse_inhomogeneous(rules)
    sys.stdout.write(format_series(hilbert_series(rules, degree)))
    if not args.strict:
        return EXIT_OK
    system = RewritingSystem(sig, order, rules)
    unresolved = {grading(amb.site) for amb, diff in ambiguities(system, degree) if diff}
    warnings = [
        f"a^{i}m^{n - i}"
        for n in range(degree + 1)
        for i in range(n + 1)
        if any(i >= k and n - i >= l for k, l in unresolved)
    ]
    if warnings:
        print(
            "warning: coefficients not guaranteed stable at degrees " + " ".join(warnings),
            file=sys.stderr,
        )
        return 1
    return EXIT_OK


_IDENTITY_CHECKS = {
    "hom-associative": check_hom_associative,
    "hom-jacobi": check_hom_jacobi,
    "skew": check_skew,
    "multiplicative": check_multiplicative,
}


def cmd_check_algebra(args) -> int:
    with open(args.algebra) as f:
        A = load_algebra(f.read())
    names = args.identities.split(",")
    for name in names:
        if name not in _IDENTITY_CHECKS:
            raise TermError(f"unknown identity {name!r}")
    ok = True
    for name in names:
        violations = _IDENTITY_CHECKS[name](A)
        if violations:
            ok = False
            print(f"{name}\tFAIL")
            for idx, defect in violations:
                print(f"  at {idx}: defect [{', '.join(map(format_scalar, defect))}]")
        else:
            print(f"{name}\tPASS")
    return EXIT_OK if ok else 1


def cmd_envelope(args) -> int:
    with open(args.algebra) as f:
        L = load_algebra(f.read())
    system = envelope_presentation(L, args.names.split(","), get_order(args.order))
    sys.stdout.write(format_rules(system.rules, system.sig))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homoperad",
        description="Rewriting, completion and Hilbert series in free linear operads.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--rules", required=True, help="rules file")
        sp.add_argument("--order", default="lex_ma", choices=sorted(ORDERS))

    sp = sub.add_parser("normalize", help="reduce a term to its normal form")
    common(sp)
    sp.add_argument("--term", help="term or signed sum; stdin when omitted")
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("complete", help="run critical-pairs completion")
    common(sp)
    sp.add_argument("--max-order", required=True)
    sp.add_argument("--budget", help="seconds")
    sp.add_argument("--out", help="prefix for .rules/.census.tsv/.log outputs")
    sp.set_defaults(fn=cmd_complete)

    sp = sub.add_parser("ambiguities", help="list critical ambiguities and outcomes")
    common(sp)
    sp.set_defaults(fn=cmd_ambiguities)

    sp = sub.add_parser("hilbert", help="irreducible plane monomial counts")
    common(sp)
    sp.add_argument("--degree", required=True)
    sp.add_argument("--strict", action="store_true", help="exit 1 unless every count is exact")
    sp.set_defaults(fn=cmd_hilbert)

    sp = sub.add_parser("check-algebra", help="evaluate identities on an algebra")
    sp.add_argument("algebra", help="algebra JSON file")
    sp.add_argument("--identities", required=True, help="comma-separated list")
    sp.set_defaults(fn=cmd_check_algebra)

    sp = sub.add_parser("envelope", help="emit an enveloping presentation")
    sp.add_argument("algebra", help="bracket algebra JSON file")
    sp.add_argument("--names", required=True, help="comma-separated constant names")
    sp.add_argument("--order", default="lex_ma", choices=sorted(ORDERS))
    sp.set_defaults(fn=cmd_envelope)
    return p


_parser = None  # built by the first call of main


def main(argv=None) -> int:
    """Run one command; may be called many times in one process, which
    builds the argument parser once and keeps no other state between calls."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact scalars print every digit
        sys.set_int_max_str_digits(0)
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except RuleError as e:
        print(f"order failure: {e}", file=sys.stderr)
        return EXIT_ORDER
    except (TermError, OSError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
