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
and numbers the live subsets 0..n-1.  The state of m(s, t) depends on s
only through the m-productions with their left child in s, and on t only
through those with their right child in t, so each state has a left class
and a right class, and m is a table with one row per left class and one
column per right class (Chase's compression): far fewer entries than the
n x n pairs of states.  A right class is a mask of m-productions; a left
class is numbered by a key that decides the row's contents, so no two
rows are equal and none is filled twice.  ``minimize`` then merges the
states into the classes of the coarsest partition that the transitions
respect (Moore refinement), numbered the same way and in the same form,
which is all the Hilbert count needs.  It refines on that one table, and
takes equal rows or equal columns as they come.
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
    state of m(c, d) depends on c only through its left class ``left[c]``
    and on d only through its right class ``right[d]``: it is
    ``table[left[c]][right[d]]``, one row per left class and one column
    per right class (Chase's compression of the pair table)."""

    f_a: list  # state -> state
    left: list  # state -> row of table
    right: list  # state -> column of table
    table: list  # left class -> right class -> state

    @property
    def states(self) -> range:
        return range(len(self.f_a))

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


def determinize(g: TreeGrammar) -> BottomUpAutomaton:
    """Reachable-subset construction over a worklist: the live subsets are
    numbered in the order they are reached, the leaf's first.  A subset
    holding grammar state 0 is SINK; it is never numbered or paired.

    A subset is an int with bit b set for grammar state b, so the sink test
    is bit 0.  Each m-production has a bit of its own: every grammar state
    b > 0 has at most one, which takes bit b, and each of state 0's takes a
    bit past the grammar states, so a mask p of fired productions holds
    the grammar states ``p & own``, and state 0 when ``p > own``.  A state
    has a left mask, of the productions with their left child in its
    subset, and a right mask, of those with their right child in it; the
    productions that fire in m(c, d) are the AND of the left mask of c and
    the right mask of d.  Each distinct right mask is a column of the
    table, numbered as it first appears.

    A row is numbered by a key that decides its contents, and filled only
    when the key is new.  A subset holding a grammar state holds every
    state whose subpattern generalizes that state's.  So, over the root
    m-productions m(c1, c2) with c1 in s (those with a child 0 never fire
    on a live subset), m(s, t) is SINK exactly when t meets K, the mask of
    the states d != 0 whose subpatterns are instances of such a c2's; and
    an m-production whose right child is in K fires in no live entry.  The
    key of s is K with the other m-productions of its left mask, those of
    the states b > 0 whose right child is not in K.  A new row is filled
    against the columns known so far, and a new column against the rows,
    so every entry is computed once."""
    n = len(g.states)
    a_image = [0] * n  # c -> mask of b with b -> a(c)
    l_image, r_image = [0] * n, [0] * n  # c -> mask of the m-productions with child c
    roots = []  # the root m-productions m(c1, c2) that can fire on a live subset
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
                    if p[1] and p[2]:
                        roots.append(p[1:])
                l_image[p[1]] |= bit
                r_image[p[2]] |= bit
    own = (1 << n) - 1
    # c -> mask of the states d != 0 whose subpattern is an instance of c's:
    # every state but 0 for the box, and for c -> a(e) or m(e, f) the states
    # other than 0 and 1 with a production a(e') or m(e', f') whose children
    # are instances of e's and f's
    instances = {1: own - 1}

    def instances_of(c):
        x = instances.get(c)
        if x is None:
            ((sym, *kids),) = g.productions[c]
            if sym == "a":
                x = _union(a_image, instances_of(kids[0]))
            else:
                x = _union(l_image, instances_of(kids[0])) & _union(
                    r_image, instances_of(kids[1])
                )
            x = instances[c] = x & own & ~3
        return x

    k_image = [0] * n  # c -> K of the subsets holding c
    for c1, c2 in roots:
        k_image[c1] |= instances_of(c2)
    drops = {}  # K -> the m-productions with their right child in K

    subsets, number = [leaf], {leaf: 0}  # the worklist; subset -> state
    f_a, left, right, table = [], [], [], []
    row_of, col_of = {}, {}  # row key -> row, right mask -> column
    lmasks, rmasks = [], []  # a left mask of each row, the right mask of each column

    def state(u):
        """The number of the subset u, appended to the worklist when new;
        SINK when u holds grammar state 0, which is bit 0 of a subset and,
        in a mask of fired m-productions, any bit past ``own``."""
        if u & 1 or u > own:
            return SINK
        k = number.get(u)
        if k is None:
            k = number[u] = len(subsets)
            subsets.append(u)
        return k

    def fill(p, masks):
        """The states of m between a side of mask p and each of ``masks``
        on the other: a mask of fired productions that holds no bit past
        ``own`` is the subset, so a known one costs one lookup."""
        out = list(map(number.get, [p & q for q in masks]))
        for k, s in enumerate(out):
            if s is None:
                out[k] = state(p & masks[k])
        return out

    for s in subsets:
        a = l = r = k = 0
        bits = bin(s)[:1:-1]  # bits[c] is "1" when grammar state c is in s
        c = bits.find("1")
        while c >= 0:
            a, l, r, k = a | a_image[c], l | l_image[c], r | r_image[c], k | k_image[c]
            c = bits.find("1", c + 1)
        f_a.append(state(a))
        drop = drops.get(k)
        if drop is None:
            drop = drops[k] = _union(r_image, k) & own
        key = (k, l & own & ~drop)
        i = row_of.get(key)
        if i is None:
            i = row_of[key] = len(lmasks)
            lmasks.append(l)
            table.append(fill(l, rmasks))
        j = col_of.get(r)
        if j is None:
            j = col_of[r] = len(rmasks)
            rmasks.append(r)
            for row, t in zip(table, fill(r, lmasks)):
                row.append(t)
        left.append(i)
        right.append(j)
    return BottomUpAutomaton(f_a, left, right, table)


def _union(images, x):
    """The OR of ``images[c]`` over the bits c of x."""
    out = 0
    bits = bin(x)[:1:-1]
    c = bits.find("1")
    while c >= 0:
        out |= images[c]
        c = bits.find("1", c + 1)
    return out


def minimize(aut: BottomUpAutomaton) -> BottomUpAutomaton:
    """Moore refinement of the live states (*TATA*, §1.5).  The blocks
    start as one block of live states and the sink alone; a block splits
    until any two of its states have f_a images in one block and, for every
    state t, f_m images with t on the left and on the right in one block.
    Since f_m reads only the row and the column of its arguments, each
    round reads the table as ``determinize`` built it: it maps every row to
    its tuple of blocks and numbers the distinct tuples, then numbers the
    columns by their tuples across the distinct rows only, which loses
    nothing, since rows of one number read alike in every column; and it
    splits by (block, f_a block, row number, column number).  Blocks are
    numbered by their first state, so the leaf's is 0, and the result keeps
    the transitions of each block's first state, so it accepts what
    ``aut`` accepts; and the series of a block is the sum of its members'.
    Its rows and columns are the distinct row and column tuples of the
    last round."""
    fa, left, right, n = aut.f_a, aut.left, aut.right, len(aut.f_a)
    # The sink's block ends the list, where the index SINK = -1 finds it.
    block = [0] * n + [SINK]
    count = 1
    while True:
        look = block.__getitem__
        row, rows = _number(tuple(map(look, r)) for r in aut.table)
        col, cols = _number(zip(*rows))
        new, sigs = _number(
            (block[i], block[fa[i]], row[left[i]], col[right[i]]) for i in range(n)
        )
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
        [row[left[i]] for i in reps],
        [col[right[i]] for i in reps],
        [list(r) for r in zip(*cols)],
    )


def _number(keys):
    """The keys numbered 0, 1, ... in the order they first appear: the
    number of each key, and the distinct keys in the order of their
    numbers."""
    numbers = {}
    return [numbers.setdefault(k, len(numbers)) for k in keys], list(numbers)
