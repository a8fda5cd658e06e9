"""Tree grammars recognizing reducible plane monomials, and their
determinization into bottom-up automata by the subset construction.

State 0 generates the reducible plane monomials, state 1 generates all
plane monomials, and every internal edge of a rule pattern contributes
one further state describing the subtree hanging below that edge.

Every reachable subset holds state 1 (it has ``leaf``, ``a(1)`` and
``m(1, 1)``), so a subset holding state 0 only leads to subsets holding 0
(``a(0)``, ``m(0, 1)``, ``m(1, 0)``).  The automaton therefore keeps only
the live subsets, those without 0, and sends every reducible monomial to
one implicit sink.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .rewrite import Rule
from .terms import TermError

LEAF = ("leaf",)
SINK = None  # the state of every subset holding grammar state 0


@dataclass(frozen=True)
class TreeGrammar:
    states: tuple[int, ...]
    productions: dict  # state -> frozenset of ("leaf",) | ("a", c) | ("m", c, d)


def _check_signature(rule: Rule):
    for tok in rule.lhs.word:
        if isinstance(tok, int):
            continue
        if tok not in ("a", "m"):
            raise TermError(f"unsupported symbol {tok!r} in grammar construction")


def grammar_from_rules(rules) -> TreeGrammar:
    """Grammar whose language is the set of plane monomials over {m/2, a/1}
    reducible by at least one of the rules."""
    prods = {
        0: {("a", 0), ("m", 0, 1), ("m", 1, 0)},
        1: {LEAF, ("a", 1), ("m", 1, 1)},
    }
    next_state = 2

    for rule in rules:
        _check_signature(rule)
        word, ends = rule.lhs.word, rule.lhs.ends

        # Assign states to internal edges breadth-first from the root, so
        # the numbering matches the natural reading of the pattern.
        queue = deque([(0, 0)])
        while queue:
            s, pos = queue.popleft()
            sym = word[pos]
            kids = [pos + 1]
            if sym == "m":
                kids.append(ends[pos + 1])
            child_states = []
            for p in kids:
                if isinstance(word[p], int):
                    child_states.append(1)
                else:
                    child_states.append(next_state)
                    queue.append((next_state, p))
                    next_state += 1
            prods.setdefault(s, set()).add((sym, *child_states))

    states = tuple(sorted(prods))
    return TreeGrammar(states, {b: frozenset(p) for b, p in prods.items()})


@dataclass(frozen=True)
class BottomUpAutomaton:
    """A partial DFA: a transition missing from ``f_a`` or ``f_m`` goes to
    SINK, the one accepting state."""

    states: tuple[tuple[int, ...], ...]  # sorted live subsets, reachable only
    leaf_state: tuple[int, ...]
    f_a: dict  # state -> state
    f_m: dict  # (state, state) -> state

    def accepting(self, state) -> bool:
        return state is SINK

    def run(self, word):
        """Evaluate a plane monomial bottom-up; returns the final state,
        SINK when the monomial is reducible."""
        stack = []
        for tok in reversed(word):
            if isinstance(tok, int):
                stack.append(self.leaf_state)
            elif tok == "a":
                stack.append(self.f_a.get(stack.pop()))
            elif tok == "m":
                left, right = stack.pop(), stack.pop()
                stack.append(self.f_m.get((left, right)))
            else:
                raise TermError(f"unsupported symbol {tok!r}")
        (final,) = stack
        return final

    def accepts(self, word) -> bool:
        return self.accepting(self.run(word))


def determinize(g: TreeGrammar) -> BottomUpAutomaton:
    """Reachable-subset construction over a worklist: ``states`` grows as it
    is walked, and on reaching a state s the transitions f_a[s] and
    f_m[(s, t)], f_m[(t, s)] for every t up to s are computed, once each.
    The sink is never stored or paired, nor any transition into it."""
    a_prods = {}  # c -> set of b with b -> a(c)
    m_prods = {}  # (c, d) -> set of b with b -> m(c, d)
    leaf = set()
    for b, ps in g.productions.items():
        for p in ps:
            if p == LEAF:
                leaf.add(b)
            elif p[0] == "a":
                a_prods.setdefault(p[1], set()).add(b)
            else:
                m_prods.setdefault((p[1], p[2]), set()).add(b)

    leaf_state = tuple(sorted(leaf))  # (1,): a pattern edge is never a box
    states, seen, f_a, f_m = [leaf_state], {leaf_state}, {}, {}

    def reach(table, key, subset):
        """Set table[key] to the state of a set of grammar states, appended
        to ``states`` when new, unless the set is the sink."""
        if 0 in subset:
            return
        u = tuple(sorted(subset))
        if u not in seen:
            seen.add(u)
            states.append(u)
        table[key] = u

    for k, s in enumerate(states):
        reach(f_a, s, {b for c in s for b in a_prods.get(c, ())})
        for t in states[: k + 1]:
            for x, y in ((s, t), (t, s)):
                reach(f_m, (x, y), {b for c in x for d in y for b in m_prods.get((c, d), ())})
    return BottomUpAutomaton(tuple(states), leaf_state, f_a, f_m)
