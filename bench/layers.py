"""Per-layer counts and self times, taken by wrapping homoperad's public
functions from outside the package.

A span wrapper counts calls and records self time: its own duration minus
the time covered by wrapped calls made inside it.  Very hot calls get a
count-only wrapper, since timing them would distort the times around them.
A name bound into several module namespaces at import (``from .rewrite
import normal_form``) is replaced in every namespace that holds it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Per-layer metrics and their units, in the order they are reported.
METRICS = {
    "completion.overlaps.calls": "count",
    "completion.overlaps.self_s": "s",
    "completion.ambiguities_built": "count",
    "completion.ambiguities_pushed": "count",
    "completion.ambiguities_processed": "count",
    "completion.ambiguities_stale": "count",
    "completion.useful_ratio": "ratio",
    "completion.resolve.calls": "count",
    "completion.resolve.self_s": "s",
    "completion.complete.self_s": "s",
    "rewrite.find_redexes.calls": "count",
    "rewrite.find_redexes.self_s": "s",
    "rewrite.normal_form.calls": "count",
    "rewrite.normal_form.self_s": "s",
    "rewrite.reduction_steps": "count",
    "rewrite.apply_redex.calls": "count",
    "rewrite.make_rule.calls": "count",
    "rewrite.systems_built": "count",
    "orders.compare.calls": "count",
    "linear.add.calls": "count",
    "linear.leading_monomial.calls": "count",
    "terms.contexts_built": "count",
    "automata.grammar_states": "count",
    "automata.dfa_states": "count",
    "automata.determinize.self_s": "s",
    "series.solve_series.self_s": "s",
    "series.mul.calls": "count",
    "scalars.ratfunc_built": "count",
    "scalars.ratfunc.self_s": "s",
    "homalgebra.check.calls": "count",
    "homalgebra.check.self_s": "s",
    "sigma_model.jacobi.self_s": "s",
    "cli.parse.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
}

_RATFUNC_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # [span name, time covered by child spans]
        self._max_order = []  # max_order of each enclosing complete() call

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    # -- attaching -----------------------------------------------------------

    def attach(self):
        """Wrap the layers of an imported homoperad in place."""
        from homoperad import (
            automata, cli, completion, homalgebra, linear, orders, rewrite,
            scalars, series, sigma_model, terms,
        )

        def patch(module, attr, wrapper_of):
            """Rebind the function in every homoperad namespace, and in
            module-level dicts such as cli's table of identity checks."""
            original = getattr(module, attr)
            wrapped = wrapper_of(original)
            for name, mod in list(sys.modules.items()):
                if name == "homoperad" or name.startswith("homoperad."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                        elif type(value) is dict:
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapped

        def patch_method(cls, attr, wrapper_of):
            setattr(cls, attr, wrapper_of(getattr(cls, attr)))

        span, count = self.span, self.count

        def complete_enter(fn):
            def entered(initial, max_order, *args, **kwargs):
                self._max_order.append(max_order)
                try:
                    return fn(initial, max_order, *args, **kwargs)
                finally:
                    self._max_order.pop()

            return span("completion.complete", entered, self._after_complete)

        patch(completion, "complete", complete_enter)
        patch(completion, "overlaps",
              lambda f: span("completion.overlaps", f, self._after_overlaps))
        patch(completion, "resolve", lambda f: span("completion.resolve", f))
        patch(rewrite, "find_redexes", lambda f: span("rewrite.find_redexes", f))
        patch(rewrite, "normal_form", lambda f: span("rewrite.normal_form", f))
        patch(rewrite, "apply_redex", lambda f: count(
            "rewrite.apply_redex.calls", self._count_step(f)))
        patch(rewrite, "make_rule", lambda f: count("rewrite.make_rule.calls", f))
        patch_method(rewrite.RewritingSystem, "__init__",
                     lambda f: count("rewrite.systems_built", f))
        patch_method(orders.TermOrder, "compare",
                     lambda f: count("orders.compare.calls", f))
        patch_method(linear.LinComb, "__add__",
                     lambda f: count("linear.add.calls", f))
        patch(linear, "leading_monomial",
              lambda f: count("linear.leading_monomial.calls", f))
        patch_method(terms.Context, "__init__",
                     lambda f: count("terms.contexts_built", f))
        patch(automata, "grammar_from_rules", lambda f: span(
            "automata.grammar_from_rules", f,
            lambda g, a, k: self.counts.update({"automata.grammar_states": len(g.states)})))
        patch(automata, "determinize", lambda f: span(
            "automata.determinize", f,
            lambda d, a, k: self.counts.update({"automata.dfa_states": len(d.states)})))
        patch(series, "solve_series", lambda f: span("series.solve_series", f))
        patch_method(series.BivariateSeries, "__mul__",
                     lambda f: count("series.mul.calls", f))
        patch_method(scalars.RatFunc, "__init__",
                     lambda f: count("scalars.ratfunc_built", f))
        for op in _RATFUNC_OPS:
            patch_method(scalars.RatFunc, op, lambda f: span("scalars.ratfunc", f))
        for check in ("check_hom_associative", "check_hom_jacobi", "check_skew",
                      "check_multiplicative"):
            patch(homalgebra, check, lambda f: span("homalgebra.check", f))
        patch(sigma_model, "check_six_term_jacobi",
              lambda f: span("sigma_model.jacobi", f))
        patch(cli, "load_rules_path", lambda f: span("cli.parse", f))
        patch(cli, "build_parser", lambda f: span("cli.parse", f, self._wrap_parser))

    def _count_step(self, fn):
        """apply_redex called by normal_form is one reduction step; called
        by resolve it is one side of an ambiguity."""

        def wrapper(*args, **kwargs):
            if self.parent() == "rewrite.normal_form":
                self.counts["rewrite.reduction_steps"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_overlaps(self, ambs, args, kwargs):
        self.counts["completion.ambiguities_built"] += len(ambs)
        if self._max_order:
            bound = self._max_order[-1]
            self.counts["completion.ambiguities_pushed"] += sum(
                1 for a in ambs if a.order <= bound
            )

    def _after_complete(self, state, args, kwargs):
        self.counts["completion.ambiguities_processed"] += len(state.log)

    def _wrap_parser(self, parser, args, kwargs):
        parser.parse_args = self.span("cli.parse", parser.parse_args)

    # -- reporting -----------------------------------------------------------

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def metrics(self, round_s: float, output_bytes: int) -> dict:
        c, t, n = self.counts, self.self_s, self.calls
        built = c["completion.ambiguities_built"]
        processed = c["completion.ambiguities_processed"]
        values = {
            "completion.overlaps.calls": n["completion.overlaps"],
            "completion.overlaps.self_s": t["completion.overlaps"],
            "completion.ambiguities_built": built,
            "completion.ambiguities_pushed": c["completion.ambiguities_pushed"],
            "completion.ambiguities_processed": processed,
            "completion.ambiguities_stale":
                c["completion.ambiguities_pushed"] - processed,
            "completion.useful_ratio": processed / built if built else 0.0,
            "completion.resolve.calls": n["completion.resolve"],
            "completion.resolve.self_s": t["completion.resolve"],
            "completion.complete.self_s": t["completion.complete"],
            "rewrite.find_redexes.calls": n["rewrite.find_redexes"],
            "rewrite.find_redexes.self_s": t["rewrite.find_redexes"],
            "rewrite.normal_form.calls": n["rewrite.normal_form"],
            "rewrite.normal_form.self_s": t["rewrite.normal_form"],
            "rewrite.reduction_steps": c["rewrite.reduction_steps"],
            "rewrite.apply_redex.calls": c["rewrite.apply_redex.calls"],
            "rewrite.make_rule.calls": c["rewrite.make_rule.calls"],
            "rewrite.systems_built": c["rewrite.systems_built"],
            "orders.compare.calls": c["orders.compare.calls"],
            "linear.add.calls": c["linear.add.calls"],
            "linear.leading_monomial.calls": c["linear.leading_monomial.calls"],
            "terms.contexts_built": c["terms.contexts_built"],
            "automata.grammar_states": c["automata.grammar_states"],
            "automata.dfa_states": c["automata.dfa_states"],
            "automata.determinize.self_s": t["automata.determinize"],
            "series.solve_series.self_s": t["series.solve_series"],
            "series.mul.calls": c["series.mul.calls"],
            "scalars.ratfunc_built": c["scalars.ratfunc_built"],
            "scalars.ratfunc.self_s": t["scalars.ratfunc"],
            "homalgebra.check.calls": n["homalgebra.check"],
            "homalgebra.check.self_s": t["homalgebra.check"],
            "sigma_model.jacobi.self_s": t["sigma_model.jacobi"],
            "cli.parse.self_s": t["cli.parse"],
            "cli.output_bytes": output_bytes,
            "trace.wall_s": round_s,
        }
        return {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}
