"""The benchmark's layer tracer wraps homoperad's functions by name, so a
name it wraps must not disappear.  It runs in a subprocess, so that no
wrapper leaks into the other tests.

The constructor counts are exact, not upper bounds: a wrapper that no
longer attaches reads 0, which a bound of "at most" lets pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import layers
from homoperad import cli

tracer = layers.Tracer()
tracer.attach()
results = []
for argv in json.loads(sys.argv[1]):
    tracer.counts.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    results.append({"code": code, "counts": dict(tracer.counts)})
print(json.dumps(results))
"""

RUNS = [
    ["hilbert", "--rules", "bench/data/homass-o10.rules", "--degree", "4"],
    ["check-algebra", "src/homoperad/data/qsl2.json", "--identities", "skew,hom-jacobi"],
    ["normalize", "--rules", "src/homoperad/data/homass.rules",
     "--term", "m a 1 m 2 3 - 2 * m m 1 2 a 3"],
]


def test_tracer_attaches_to_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(RUNS)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    hilbert, qsl2, normalize = json.loads(proc.stdout)
    assert [r["code"] for r in (hilbert, qsl2, normalize)] == [0, 0, 0]
    # at degree 4 only the order-3 pattern fits a counted monomial
    assert hilbert["counts"]["automata.grammar_states"] == 4
    assert hilbert["counts"]["automata.dfa_states"] == 3
    # the q-deformed sl2 table read and checked for two identities
    assert qsl2["counts"]["scalars.ratfunc_built"] == 69
    # the sum read, one reduction of its first term, and the result
    assert normalize["counts"]["terms.contexts_built"] == 5
