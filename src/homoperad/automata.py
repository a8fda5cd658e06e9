"""Tree grammars recognizing reducible plane monomials, and their
determinization into bottom-up automata by the subset construction.

State 0 generates the reducible plane monomials, state 1 generates all
plane monomials, and every subpattern below the root of a rule pattern
has one further state, shared by every pattern it occurs in, which
generates the monomials that the subpattern matches.

Every reachable subset holds state 1 (it has ``leaf``, ``a(1)`` and
``m(1, 1)``), so a subset holding state 0 only leads to subsets holding 0
(``a(0)``, ``m(0, 1)``, ``m(1, 0)``).  The automaton therefore keeps only
the live subsets, those without 0, and sends every reducible monomial to
one sink, SINK.

The subset construction runs on int bitsets, one bit per grammar state,
and numbers the live subsets 0..n-1 by the least number of vertices of a
monomial reaching them, so that a count to degree D can stop at the
subsets and transitions that the monomials of <= D vertices reach.  The
state of m(s, t) depends on s only through the m-productions with their
left child in s, and on t only through those with their right child in
t, so each state has a left mask and a right mask, and m is a table with
one row per distinct left mask and one column per distinct right mask
(Chase's compression): far fewer entries than the n x n pairs of states.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import count

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

    Every subpattern below the root of a rule pattern gets one state,
    shared by all the patterns it occurs in: the subpattern is keyed by its
    word with each box written as one wildcard token.  States are numbered
    breadth-first from each root in turn, as first seen.  State 1 has the
    one m-production m(1, 1), and each state b >= 2 has one production,
    which no other state b' >= 2 has, so every state but 0 has at most one
    m-production; ``determinize`` relies on it."""
    prods = {
        0: {("a", 0), ("m", 0, 1), ("m", 1, 0)},
        1: {LEAF, ("a", 1), ("m", 1, 1)},
    }
    state_of = {}  # subpattern word, every box written 0 -> state

    for rule in rules:
        word, ends = rule.lhs.word, rule.lhs.ends
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
                    continue
                key = tuple(0 if isinstance(t, int) else t for t in word[p : ends[p]])
                c = state_of.get(key)
                if c is None:
                    c = state_of[key] = len(prods)
                    prods[c] = set()
                    queue.append((c, p))
                child_states.append(c)
            prods[s].add((sym, *child_states))

    states = tuple(sorted(prods))
    return TreeGrammar(states, {b: frozenset(p) for b, p in prods.items()})


@dataclass(frozen=True)
class BottomUpAutomaton:
    """A DFA on the live states, numbered 0..n-1 with the leaf's state 0.
    ``f_a[c]`` is the state of a(c), or SINK when it is reducible.  The
    state of m(c, d) depends on c only through its row ``left[c]`` and on
    d only through its column ``right[d]``: it is
    ``table[left[c]][right[d]]`` (Chase's compression of the pair table).
    Built with a degree bound D, it holds only what the words of <= D
    vertices reach: ``f_a`` stops before the states of degree D, and each
    row before the first column that no such word pairs it with."""

    f_a: list  # state -> state
    left: list  # state -> row of table
    right: list  # state -> column of table
    table: list  # row -> column -> state

    @property
    def states(self) -> range:
        return range(len(self.left))

    def f_m(self, c: int, d: int) -> int:
        """The state of m(c, d), SINK when it is reducible."""
        return self.table[self.left[c]][self.right[d]]

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
                stack.append(SINK if SINK in (c, d) else self.f_m(c, d))
            else:
                raise TermError(f"unsupported symbol {tok!r}")
        (final,) = stack
        return final

    def accepts(self, word) -> bool:
        return self.run(word) == SINK


def determinize(g: TreeGrammar, D=math.inf) -> BottomUpAutomaton:
    """Reachable-subset construction by least degree: layer d holds the
    live subsets first reached by a monomial of d vertices, numbered as
    they are reached, the leaf's first.  A subset holding grammar state 0
    is SINK; it is never numbered or paired.  Only the states of degree
    <= D are built, with the a-moves out of those below D and the entries
    of the table whose row and column are first reached at degrees
    summing to D - 1 or less: exactly what a count to degree D reads, so
    the automaton answers only for words of <= D vertices.  With no bound
    it is the whole automaton.

    A subset is an int with bit b set for grammar state b, so the sink test
    is bit 0.  Each m-production has a bit of its own: every grammar state
    b > 0 has at most one, which takes bit b, and each of state 0's takes a
    bit past the grammar states, so a mask p of fired productions holds
    the grammar states ``p & own``, and state 0 when ``p > own``.  A state
    has a left mask, of the productions with their left child in its
    subset, and a right mask, of those with their right child in it; the
    productions that fire in m(c, d) are the AND of the left mask of c and
    the right mask of d.  Each distinct left mask is a row of the table and
    each distinct right mask a column, numbered as they first appear, so
    both come in order of least degree.  Once layer d is numbered, every
    row of least degree k is paired with every column of least degree
    d - k, and the new subsets make layer d + 1; so each row holds a prefix
    of the columns.  With no bound, the layers stop once no pair of
    degrees is left to pair and the last layer is empty."""
    n = len(g.states)
    a_image = [0] * n  # c -> mask of b with b -> a(c)
    l_image, r_image = [0] * n, [0] * n  # c -> mask of the m-productions with child c
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
                l_image[p[1]] |= bit
                r_image[p[2]] |= bit
    own = (1 << n) - 1

    subsets, number = [leaf], {leaf: 0}  # the layers in turn; subset -> state
    f_a, left, right, table = [], [], [], []
    row_of, col_of = {}, {}  # left mask -> row, right mask -> column
    lmasks, rmasks = [], []  # the left mask of each row, the right mask of each column
    rows_at, cols_at = [0], [0]  # [k]: the first row, column of least degree k

    def state(u):
        """The number of the subset u, added to the next layer when new;
        SINK when u holds grammar state 0, which is bit 0 of a subset and,
        in a mask of fired m-productions, any bit past ``own``."""
        if u & 1 or u > own:
            return SINK
        k = number.get(u)
        if k is None:
            k = number[u] = len(subsets)
            subsets.append(u)
        return k

    start = top = 0  # top: the last layer that is not empty
    for d in count():
        layer, start = subsets[start:], len(subsets)
        if layer:
            top = d
        for s in layer:
            a = l = r = 0
            bits = bin(s)[:1:-1]  # bits[c] is "1" when grammar state c is in s
            c = bits.find("1")
            while c >= 0:
                a, l, r = a | a_image[c], l | l_image[c], r | r_image[c]
                c = bits.find("1", c + 1)
            if d < D:
                f_a.append(state(a))
            i = row_of.get(l)
            if i is None:
                i = row_of[l] = len(lmasks)
                lmasks.append(l)
                table.append([])
            j = col_of.get(r)
            if j is None:
                j = col_of[r] = len(rmasks)
                rmasks.append(r)
            left.append(i)
            right.append(j)
        rows_at.append(len(lmasks))
        cols_at.append(len(rmasks))
        if d == D or d > 2 * top:
            return BottomUpAutomaton(f_a, left, right, table)
        for k in range(d + 1):
            cols = rmasks[cols_at[d - k] : cols_at[d - k + 1]]
            for i in range(rows_at[k], rows_at[k + 1]):
                p = lmasks[i]
                table[i] += [state(p & q) for q in cols]
