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

The subset construction runs on int bitsets, one bit per grammar state,
and ``minimize`` then merges the live subsets into the classes of the
coarsest partition that the transitions respect (Moore refinement), which
is all the Hilbert count needs.
"""

from __future__ import annotations

from collections import Counter, deque
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
    """Reachable-subset construction over a worklist: the list of states
    grows as it is walked, and on reaching a state s the transitions
    f_a[s] and f_m[(s, t)], f_m[(t, s)] for every t up to s are computed,
    once each.
    The sink is never stored or paired, nor any transition into it.

    A subset is an int with bit b set for grammar state b, so the sink test
    is bit 0.  Each m-production has a bit of its own: bit b when it is the
    only m-production of b, a bit past the grammar states otherwise.  A
    state s keeps the mask of the productions with their left child in s
    and the mask of those with their right child in s; the productions
    that fire in m(s, t) are the AND of the first mask of s and the second
    of t."""
    n = len(g.states)
    a_image = [0] * n  # c -> mask of b with b -> a(c)
    left, right = [0] * n, [0] * n  # c -> mask of the m-productions with child c
    shared = {}  # bit of b -> mask of b's m-productions, when it has several
    m_count = Counter(b for b, ps in g.productions.items() for p in ps if p[0] == "m")
    leaf, extra = 0, n
    for b, ps in g.productions.items():
        for p in ps:
            if p == LEAF:
                leaf |= 1 << b
            elif p[0] == "a":
                a_image[p[1]] |= 1 << b
            else:
                if m_count[b] == 1:
                    bit = 1 << b
                else:
                    bit, extra = 1 << extra, extra + 1
                    shared[1 << b] = shared.get(1 << b, 0) | bit
                left[p[1]] |= bit
                right[p[2]] |= bit
    own = (1 << n) - 1

    def members(s):
        return tuple(c for c in range(n) if s >> c & 1)

    subsets, index = [members(leaf)], {leaf: 0}  # the states; mask -> position
    f_a, f_m, lefts, rights = {}, {}, [], []

    def reach(table, key, u):
        """Set table[key] to the subset u, appended to the states when new,
        unless u is the sink."""
        if u & 1:
            return
        if u not in index:
            index[u] = len(subsets)
            subsets.append(members(u))
        table[key] = subsets[index[u]]

    def fire(productions):
        """The set of grammar states of a mask of fired m-productions."""
        u = productions & own
        for b, bits in shared.items():
            if productions & bits:
                u |= b
        return u

    for k, s in enumerate(subsets):
        a = l = r = 0
        for c in s:
            a, l, r = a | a_image[c], l | left[c], r | right[c]
        lefts.append(l)
        rights.append(r)
        reach(f_a, s, a)
        for j, t in enumerate(subsets[: k + 1]):
            reach(f_m, (s, t), fire(l & rights[j]))
            if j != k:
                reach(f_m, (t, s), fire(lefts[j] & r))
    return BottomUpAutomaton(tuple(subsets), subsets[0], f_a, f_m)


def minimize(aut: BottomUpAutomaton) -> BottomUpAutomaton:
    """Moore refinement of the live states (*TATA*, §1.5).  The blocks
    start as one block of live states and the sink alone; a block splits
    until any two of its states have f_a images in one block and, for every
    state t, f_m images with t on the left and on the right in one block, a
    missing transition counting as the sink.  The result keeps the first
    state of each block, in the order of ``states``, with the transitions
    among those representatives, so it accepts what ``aut`` accepts; and
    the series of a block's representative is the sum of its members'."""
    states = aut.states
    n = len(states)
    index = {s: i for i, s in enumerate(states)}  # the sink is n
    # A tuple does not cache its hash, and the subsets in the transition
    # tables are normally the very objects in ``states``: find them by id.
    by_id = {id(s): i for i, s in enumerate(states)}

    def at(u):
        i = by_id.get(id(u))
        return i if i is not None and states[i] is u else index[u]

    fa = [n] * n
    for c, b in aut.f_a.items():
        fa[at(c)] = at(b)
    rows = [[n] * n for _ in states]
    for (c, d), b in aut.f_m.items():
        rows[at(c)][at(d)] = at(b)
    cols = list(zip(*rows))

    block = [0] * n + [-1]
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
        block = new + [-1]
        if len(sigs) == count:
            break
        count = len(sigs)

    first = {}  # block -> its first state
    for i in range(n):
        first.setdefault(block[i], i)
    reps = list(first.values())
    rep = [states[first[k]] for k in block[:n]] + [SINK]
    return BottomUpAutomaton(
        tuple(states[i] for i in reps),
        rep[at(aut.leaf_state)],
        {states[i]: rep[fa[i]] for i in reps if fa[i] != n},
        {
            (states[i], states[j]): rep[rows[i][j]]
            for i in reps
            for j in reps
            if rows[i][j] != n
        },
    )
