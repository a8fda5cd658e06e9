"""The benchmark's layer tracer wraps homoperad's functions by name, so a
name it wraps must not disappear.  It runs in a subprocess, so that no
wrapper leaks into the other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import layers
from homoperad import cli

tracer = layers.Tracer()
tracer.attach()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["hilbert", "--rules", "bench/data/homass-o10.rules", "--degree", "4"])
print(json.dumps({"code": code, "counts": tracer.counts}))
"""


def test_tracer_attaches_to_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    # at degree 4 only the order-3 pattern fits a counted monomial
    assert result["counts"]["automata.grammar_states"] == 4
    assert result["counts"]["automata.dfa_states"] == 3
