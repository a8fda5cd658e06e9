"""Print the reference figures quoted in bench/README.md.

    python3 bench/reference.py

Run from the root of a source tree.  Times `complete` on homass.rules at
orders 14, 15 and 16, and `determinize` and `solve_series` on the order-10
system, each once, as measured and at nominal host speed (hostclock.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from hostclock import HostClock  # noqa: E402
import workloads  # noqa: E402


def timed(clock, label, fn):
    t0, s0 = time.perf_counter(), clock.spent
    result = fn()
    t1 = time.perf_counter()
    raw = t1 - t0 - (clock.spent - s0)
    print(f"{label}\t{raw:.2f} s as measured\t{raw * clock.speed(t0, t1):.2f} s nominal")
    return result


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def main():
    from homoperad import cli
    from homoperad.automata import determinize, grammar_from_rules
    from homoperad.series import solve_series

    clock = HostClock()
    clock.start()
    try:
        for order in (14, 15, 16):
            argv = ["complete", "--rules", workloads.HOMASS, "--max-order", str(order)]
            timed(clock, f"complete --max-order {order}", lambda: quiet(cli.main, argv))
        _, _, rules = cli.load_rules_path(workloads.RULES_O10, "lex_ma")
        grammar = grammar_from_rules(rules)
        aut = timed(clock, "determinize (order-10 system)", lambda: determinize(grammar))
        timed(clock, f"solve_series D={workloads.HILBERT_DEGREE}",
              lambda: solve_series(aut, workloads.HILBERT_DEGREE))
        print(f"{len(grammar.states)} grammar states, {len(aut.states)} DFA states")
    finally:
        clock.stop()


if __name__ == "__main__":
    main()
