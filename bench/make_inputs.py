"""Remake the benchmark's stored inputs and reference counts in bench/data.

    python3 bench/make_inputs.py rules    # homass-o10.rules, homass-o12.rules
    python3 bench/make_inputs.py qtwist   # qtwist-ut4.json
    python3 bench/make_inputs.py brute    # brute-counts-o10.json (minutes)

Run from the root of a source tree.  The rule files are what
``homoperad complete --rules src/homoperad/data/homass.rules --max-order N
--out PREFIX`` writes to PREFIX.rules.  The twisted algebra and the
brute-force counts are computed here without homoperad.  None of the
inputs depends on a seed; the normalize sums are drawn at run time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402


def make_rules():
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    from homoperad import cli

    for max_order, path in ((10, workloads.RULES_O10), (12, workloads.RULES_O12)):
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            prefix = os.path.join(tmp, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["complete", "--rules", workloads.HOMASS,
                                 "--max-order", str(max_order), "--out", prefix])
            if code != 0:
                raise SystemExit(f"complete --max-order {max_order} exited {code}")
            with open(prefix + ".rules") as f:
                text = f.read()
        with open(path, "w") as f:
            f.write(text)


def qtwist_ut4() -> dict:
    """The commutator algebra of the Yau twist of the 4x4 upper-triangular
    matrices by beta(E_ij) = q^(j-i) E_ij, as a structure-constant table:
    [x, y]_beta = beta(xy - yx) and alpha = beta.  beta is an algebra
    automorphism, so the table is skew, hom-Jacobi and multiplicative."""
    basis = [(i, j) for i in range(4) for j in range(i, 4)]
    index = {e: n for n, e in enumerate(basis)}
    dim = len(basis)

    def q_power(p):
        return "1" if p == 0 else "q" if p == 1 else f"q^{p}"

    def scaled(coeff, e):
        """coeff * beta(e) as a string entry."""
        p = e[1] - e[0]
        if p == 0:
            return str(coeff)
        return q_power(p) if coeff == 1 else f"-{q_power(p)}"

    mult = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), x in index.items():
        for (k, l), y in index.items():
            # E_ij E_kl - E_kl E_ij = [j == k] E_il - [l == i] E_kj
            terms = {}
            if j == k:
                terms[(i, l)] = terms.get((i, l), 0) + 1
            if l == i:
                terms[(k, j)] = terms.get((k, j), 0) - 1
            for e, c in terms.items():
                if c:
                    mult[x][y][index[e]] = scaled(c, e)
    alpha = [["0"] * dim for _ in range(dim)]
    for (i, j), x in index.items():
        alpha[x][x] = q_power(j - i)
    return {"dim": dim, "mult": mult, "alpha": alpha, "bracket": True}


def make_qtwist():
    with open(workloads.QTWIST, "w") as f:
        json.dump(qtwist_ut4(), f, indent=1)
        f.write("\n")


def make_brute():
    with open(workloads.RULES_O10) as f:
        patterns = [lhs for lhs, _ in checks.parse_rules_text(f.read())]
    counts = checks.irreducible_counts(patterns, workloads.HILBERT_DEGREE)
    doc = {
        "rules": os.path.basename(workloads.RULES_O10),
        "degree": workloads.HILBERT_DEGREE,
        "counts": [[k, l, n] for (k, l), n in sorted(counts.items(), key=lambda kv: (sum(kv[0]), kv[0]))],
    }
    with open(workloads.BRUTE, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


MAKERS = {"rules": make_rules, "qtwist": make_qtwist, "brute": make_brute}

if __name__ == "__main__":
    names = sys.argv[1:] or list(MAKERS)
    for name in names:
        if name not in MAKERS:
            raise SystemExit(f"unknown input {name!r}; choose from {sorted(MAKERS)}")
        os.makedirs(workloads.DATA, exist_ok=True)
        MAKERS[name]()
