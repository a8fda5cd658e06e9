"""Tree grammars recognizing reducible plane monomials, and their
determinization into bottom-up automata by the subset construction.

State 0 generates the reducible plane monomials, state 1 generates all
plane monomials, and every internal edge of a rule pattern contributes
one further state describing the subtree hanging below that edge.

Every reachable subset holds state 1 (it has ``leaf``, ``a(1)`` and
``m(1, 1)``), so a subset holding state 0 only leads to subsets holding 0
(``a(0)``, ``m(0, 1)``, ``m(1, 0)``).  The automaton therefore keeps only
the live subsets, those without 0, and sends every reducible monomial to
one sink, SINK.

The subset construction runs on int bitsets, one bit per grammar state,
and numbers the live subsets 0..n-1; the transition tables are a list
and n rows of n entries, indexed by those numbers.  ``minimize`` then
merges the states into the classes of the coarsest partition that the
transitions respect (Moore refinement), numbered the same way, which is
all the Hilbert count needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .terms import TermError

LEAF = ("leaf",)
SINK = -1  # where every reducible monomial goes; never a state number


@dataclass(frozen=True)
class TreeGrammar:
    states: tuple[int, ...]
    productions: dict  # state -> frozenset of ("leaf",) | ("a", c) | ("m", c, d)


def grammar_from_rules(rules) -> TreeGrammar:
    """Grammar whose language is the set of plane monomials over {m/2, a/1}
    reducible by at least one of the rules; a pattern symbol other than
    ``a`` or ``m`` raises a TermError.

    State 1 has the one m-production m(1, 1), and each state b >= 2 is
    made for one pattern edge and has one production, so every state but
    0 has at most one m-production; ``determinize`` relies on it."""
    prods = {
        0: {("a", 0), ("m", 0, 1), ("m", 1, 0)},
        1: {LEAF, ("a", 1), ("m", 1, 1)},
    }
    next_state = 2

    for rule in rules:
        word, ends = rule.lhs.word, rule.lhs.ends

        # Assign states to internal edges breadth-first from the root, so
        # the numbering matches the natural reading of the pattern.
        queue = deque([(0, 0)])
        while queue:
            s, pos = queue.popleft()
            sym = word[pos]
            if sym not in ("a", "m"):
                raise TermError(f"unsupported symbol {sym!r} in grammar construction")
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
    """A DFA on the live states, numbered 0..n-1 with the leaf's state 0:
    ``f_a[c]`` is the state of a(c) and ``f_m[c][d]`` that of m(c, d), or
    SINK when the monomial is reducible."""

    f_a: list  # state -> state
    f_m: list  # n rows of n states

    @property
    def states(self) -> range:
        return range(len(self.f_a))

    def run(self, word):
        """Evaluate a plane monomial bottom-up; returns the final state,
        SINK when the monomial is reducible."""
        stack = []
        for tok in reversed(word):
            if isinstance(tok, int):
                stack.append(0)
            elif tok == "a":
                c = stack.pop()
                stack.append(SINK if c == SINK else self.f_a[c])
            elif tok == "m":
                c, d = stack.pop(), stack.pop()
                stack.append(SINK if SINK in (c, d) else self.f_m[c][d])
            else:
                raise TermError(f"unsupported symbol {tok!r}")
        (final,) = stack
        return final

    def accepts(self, word) -> bool:
        return self.run(word) == SINK


def determinize(g: TreeGrammar) -> BottomUpAutomaton:
    """Reachable-subset construction over a worklist: the live subsets are
    numbered in the order they are reached, the leaf's first, and on
    reaching state k the transitions f_a[k], f_m[k][j] and f_m[j][k] for
    every j up to k are computed, once each.  A subset holding grammar
    state 0 is SINK; it is never numbered or paired.

    A subset is an int with bit b set for grammar state b, so the sink test
    is bit 0.  Each m-production has a bit of its own: every grammar state
    b > 0 has at most one, which takes bit b, and each of state 0's takes a
    bit past the grammar states, so a mask p of fired productions holds
    the grammar states ``p & own``, and state 0 when ``p > own``.  A state
    keeps the mask of the productions with their left child in its subset
    and the mask of those with their right child in it; the productions
    that fire in m(c, d) are the AND of the first mask of c and the second
    of d."""
    n = len(g.states)
    a_image = [0] * n  # c -> mask of b with b -> a(c)
    left, right = [0] * n, [0] * n  # c -> mask of the m-productions with child c
    leaf, extra = 0, n
    for b, ps in g.productions.items():
        for p in ps:
            if p == LEAF:
                leaf |= 1 << b
            elif p[0] == "a":
                a_image[p[1]] |= 1 << b
            else:
                if b:
                    bit = 1 << b
                else:
                    bit, extra = 1 << extra, extra + 1
                left[p[1]] |= bit
                right[p[2]] |= bit
    own = (1 << n) - 1

    subsets, number = [leaf], {leaf: 0}  # the worklist; subset -> state
    f_a, f_m, lefts, rights = [], [], [], []

    def state(u):
        """The number of the subset u, appended to the worklist when new;
        SINK when u holds grammar state 0."""
        if u & 1:
            return SINK
        k = number.get(u)
        if k is None:
            k = number[u] = len(subsets)
            subsets.append(u)
        return k

    def fire(p):
        """The set of grammar states of a mask of fired m-productions."""
        return p & own | (p > own)

    for k, s in enumerate(subsets):
        a = l = r = 0
        while s:
            c = (s & -s).bit_length() - 1
            a, l, r = a | a_image[c], l | left[c], r | right[c]
            s &= s - 1
        lefts.append(l)
        rights.append(r)
        f_a.append(state(a))
        row = []
        for j in range(k):
            row.append(state(fire(l & rights[j])))
            f_m[j].append(state(fire(lefts[j] & r)))
        row.append(state(fire(l & r)))
        f_m.append(row)
    return BottomUpAutomaton(f_a, f_m)


def minimize(aut: BottomUpAutomaton) -> BottomUpAutomaton:
    """Moore refinement of the live states (*TATA*, §1.5).  The blocks
    start as one block of live states and the sink alone; a block splits
    until any two of its states have f_a images in one block and, for every
    state t, f_m images with t on the left and on the right in one block.
    Blocks are numbered by their first state, so the leaf's is 0, and the
    result keeps the transitions of each block's first state, so it
    accepts what ``aut`` accepts; and the series of a block is the sum of
    its members'."""
    fa, rows = aut.f_a, aut.f_m
    cols = list(zip(*rows))
    n = len(fa)
    # The sink's block ends the list, where the index SINK = -1 finds it.
    block = [0] * n + [SINK]
    count = 1
    while True:
        look = block.__getitem__
        sigs = {}
        new = [
            sigs.setdefault(
                (block[i], block[fa[i]], *map(look, rows[i]), *map(look, cols[i])),
                len(sigs),
            )
            for i in range(n)
        ]
        block = new + [SINK]
        if len(sigs) == count:
            break
        count = len(sigs)

    reps = []  # reps[k]: the first state of block k, which follows those of 0..k-1
    for i in range(n):
        if block[i] == len(reps):
            reps.append(i)
    return BottomUpAutomaton(
        [block[fa[i]] for i in reps],
        [[block[rows[i][j]] for j in reps] for i in reps],
    )
