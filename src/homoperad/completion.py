"""Plane critical ambiguities and the critical-pairs/completion procedure."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

from .linear import IncomparableLeading, LinComb
from .rewrite import (
    Redex,
    RewritingSystem,
    Rule,
    apply_redex,
    make_rule,
    normal_form,
    orient,
    trie_leaf,
    trie_walk,
)
from .terms import Context, TermError, grading, renumber, sort_key


@dataclass(frozen=True)
class Ambiguity:
    """A plane site reducible by two overlapping rule applications: the lhs
    of ``rule1`` at the root of the site, the lhs of ``rule2`` rooted at
    token ``pos2``."""

    site: Context
    rule1: str
    rule2: str
    pos2: int

    @property
    def order(self) -> int:
        return self.site.order

    def __str__(self):
        return f"{self.site}\t{self.rule1},{self.rule2}"


def _merge(x: Context, i, y: Context):
    """Unify the subterm of term ``x`` at token i with the whole of term
    ``y`` in one lockstep walk of their words; boxes are local wildcards.
    Returns the merged tokens, or None on a symbol clash. Equal symbols have
    equal arity, so both words end together. Box tokens are copied as they
    are; ``terms.renumber`` numbers them afterwards."""
    a, ends_a, b, ends_b = x.word, x.ends, y.word, y.ends
    out, j, stop = [], 0, ends_a[i]
    while i < stop:
        ta, tb = a[i], b[j]
        if isinstance(tb, int):  # a box of b takes the subterm of a (or its box)
            end = ends_a[i]
            out.extend(a[i:end])
            i, j = end, j + 1
        elif isinstance(ta, int):
            end = ends_b[j]
            out.extend(b[j:end])
            i, j = i + 1, end
        elif ta == tb:
            out.append(ta)
            i, j = i + 1, j + 1
        else:
            return None
    return out


def _superpositions(s1: Rule, s2: Rule, max_order):
    """Sites of order at most ``max_order`` where lhs(s2), rooted at a vertex
    of lhs(s1), unifies with it, in position order.  Yields (site, position
    of the s2 embedding); s1 embeds at the root."""
    w1, ends1, sizes1 = s1.lhs.word, s1.lhs.ends, s1.lhs.sizes
    n1, n2, root2 = s1.order, s2.order, s2.lhs.word[0]  # an lhs is rooted at a symbol
    for p, tok in enumerate(w1):
        if tok != root2:
            continue
        # the merged subterm has at least the vertices of lhs(s2)
        outside = n1 - sizes1[p]
        if outside + n2 > max_order:
            continue
        merged = _merge(s1.lhs, p, s2.lhs)
        if merged is None:
            continue
        if outside + sum(1 for t in merged if not isinstance(t, int)) > max_order:
            continue
        yield renumber(w1[:p] + tuple(merged) + w1[ends1[p] :], s1.lhs.sig), p


def overlaps(s1: Rule, s2: Rule, max_order=math.inf) -> list[Ambiguity]:
    """The plane critical ambiguities of the two rules, over their signature,
    of order at most ``max_order``, each found once: lhs(s2) rooted at each
    vertex of lhs(s1) (not at its root when the rules are one rule, which is
    no ambiguity), then, for two rules, lhs(s1) rooted below the root of
    lhs(s2); the root site of two rules is the same from both sides."""
    same = s1.id == s2.id
    out = [
        Ambiguity(site, s1.id, s2.id, p)
        for site, p in _superpositions(s1, s2, max_order)
        if p or not same
    ]
    if not same:
        out += [
            Ambiguity(site, s2.id, s1.id, p)
            for site, p in _superpositions(s2, s1, max_order)
            if p
        ]
    return out


# --- the subterm index -----------------------------------------------------


class _SubtermIndex:
    """The completing system: a ``RewritingSystem``, every symbol-rooted
    subterm of its rules in one discrimination trie laid out as the
    system's lhs trie, the put order and a redex memo, which ``add`` and
    ``remove`` edit together.  A leaf maps the id of each rule that holds
    the subterm to the fewest lhs vertices outside it, or to infinity when
    only an rhs monomial holds it.  A whole lhs is left out: the system's
    own lhs trie holds it.  ``rank`` maps each rule id to when it was last
    added, so ``in_system_order`` takes rules in put order, the order in
    which the system iterates them.  ``memo`` is ``normal_form``'s redex
    memo against the system, cleared by every edit.  ``largest`` is the
    most vertices of any lhs or rhs monomial ever added; removal leaves it,
    since it only bounds the walks.  It starts empty, and ``add`` is the
    only way in."""

    def __init__(self, sig, order):
        self.system = RewritingSystem(sig, order, [])
        self.trie = {}
        self.largest = 0
        self.rank, self._tick = {}, itertools.count()
        self.memo = {}

    def _leaves(self, rule: Rule):
        """(leaf, vertices outside) of each subterm the index holds."""
        lhs = rule.lhs
        for term in (lhs, *rule.rhs.support()):
            word, ends = term.word, term.ends
            first = 1 if term is lhs else 0  # the system's trie holds a whole lhs
            for p in range(first, len(word)):
                if not isinstance(word[p], int):
                    outside = lhs.order - lhs.sizes[p] if term is lhs else math.inf
                    yield trie_leaf(self.trie, word[p : ends[p]]), outside

    def add(self, rule: Rule):
        self.system.add(rule)
        self.rank[rule.id] = next(self._tick)
        self.largest = max(self.largest, rule.order, *(m.order for m in rule.rhs.support()))
        for leaf, outside in self._leaves(rule):
            leaf[rule.id] = min(outside, leaf.get(rule.id, outside))
        self.memo.clear()

    def remove(self, rule: Rule):
        self.system.remove(rule.id)
        for leaf, _ in self._leaves(rule):
            leaf.pop(rule.id, None)
        self.memo.clear()

    def in_system_order(self, ids) -> list[Rule]:
        """The rules of ``ids`` still in the system, in put order."""
        system = self.system
        return [system[rid] for rid in sorted(filter(system.__contains__, ids), key=self.rank.get)]

    def partners(self, new: Rule, room) -> set:
        """Ids of the rules with an ambiguity with ``new`` of at most
        ``room`` vertices more than ``new.lhs``, plus ``new`` itself: those
        whose lhs unifies with a subterm of ``new.lhs``, and those with an
        lhs subterm below the root that unifies with ``new.lhs`` and fits
        with the vertices outside it.  At a finite ``room`` these are
        exactly the rules ``other`` with a nonempty ``overlaps(new, other,
        new.order + room)``; at infinity they also take the rules that hold
        ``new.lhs`` only in an rhs."""
        lhs = new.lhs
        out = {new.id}
        if room < 0:  # no site that holds new.lhs fits
            return out
        for _, leaf, _ in trie_walk(self.system._trie, lhs, range(len(lhs.word)), room):
            out.update(leaf)
        for _, leaf, cost in trie_walk(self.trie, lhs, (0,), room):
            out.update(rid for rid, outside in leaf.items() if cost + outside <= room)
        return out

    def critical_pairs(self, new: Rule, max_order) -> list[Ambiguity]:
        """The ambiguities of order at most ``max_order`` of ``new``, a rule
        just added, with each rule here, itself included:
        ``overlaps(new, other, max_order)`` for each partner in put order."""
        partners = self.in_system_order(self.partners(new, max_order - new.order))
        return [amb for other in partners for amb in overlaps(new, other, max_order)]

    def instances(self, lhs: Context) -> dict:
        """Maps the id of each rule that holds an instance of ``lhs`` to
        whether its lhs holds one; otherwise an rhs monomial does.  An
        instance inside a monomial of n vertices binds at most n -
        ``lhs.order`` vertices to the boxes of ``lhs``, so the walks are cut
        at ``largest - lhs.order``."""
        room = self.largest - lhs.order
        out = {}
        for _, leaf, _ in trie_walk(self.system._trie, lhs, (0,), room, both=False):
            out.update(dict.fromkeys(leaf, True))
        for _, leaf, _ in trie_walk(self.trie, lhs, (0,), room, both=False):
            for rid, outside in leaf.items():
                out[rid] = out.get(rid, False) or outside < math.inf
        return out


def resolve(amb: Ambiguity, sys: RewritingSystem, memo=None) -> LinComb:
    """Reduce the site along both redexes and return the difference of the
    two normal forms, which is zero when the ambiguity resolves.  Both
    sides share one redex memo: ``memo`` as ``normal_form`` takes it, or a
    fresh one."""
    if memo is None:
        memo = {}
    left = normal_form(apply_redex(amb.site, Redex(sys[amb.rule1], 0)), sys, memo=memo)
    right = normal_form(apply_redex(amb.site, Redex(sys[amb.rule2], amb.pos2)), sys, memo=memo)
    return left - right


def ambiguities(system: RewritingSystem, max_order=math.inf):
    """Yield every critical ambiguity of order at most ``max_order`` of the
    rules of ``system`` with the difference ``resolve`` leaves, zero when it
    resolves.  Each rule of order at most ``max_order``, last to first, is
    added to a fresh index and paired with itself and the rules after it at
    ``max_order`` or twice the largest pattern, which no site reaches, since
    two patterns share a vertex.  When no rule grows a monomial, reducing a
    site meets no monomial of more vertices, which no rule left out fits,
    so they change no difference.  The ambiguities come sorted by site
    order, site and rule pair.  Each is resolved with a memo of its own,
    which its two sides share: one memo for all of them would hold every
    monomial searched (+70 MB on the order-14 system's 22,442)."""
    index = _SubtermIndex(system.sig, system.order)
    rules = [r for r in system.rules if r.order <= max_order]
    bound = min(max_order, 2 * max((r.order for r in rules), default=0))
    ambs = []
    for rule in reversed(rules):
        index.add(rule)
        ambs += index.critical_pairs(rule, bound)
    ambs.sort(key=lambda a: (a.order, sort_key(a.site), a.rule1, a.rule2))
    for amb in ambs:
        yield amb, resolve(amb, index.system)


def is_homogeneous(lhs: Context, rhs: LinComb) -> bool:
    """Whether every replacement monomial has the (a, m) grading and the
    vertex count of the pattern: `c 1 -> b c 1` keeps one grading but grows."""
    g, n = grading(lhs), lhs.order
    return all(grading(m) == g and m.order == n for m in rhs.support())


def refuse_inhomogeneous(rules):
    """Raise a TermError naming the first rule that is not homogeneous."""
    for r in rules:
        if not is_homogeneous(r.lhs, r.rhs):
            raise TermError(f"rule {r.id} is not homogeneous")


@dataclass
class CompletionState:
    system: RewritingSystem
    status: str  # "complete" | "budget" | "order_failure"
    log: list = field(default_factory=list)
    failure: IncomparableLeading | None = None  # its diff did not orient

    def census(self) -> dict[int, int]:
        out = {}
        for r in self.system:
            out[r.order] = out.get(r.order, 0) + 1
        return dict(sorted(out.items()))


def complete(
    initial: RewritingSystem,
    max_order: int,
    budget_seconds: float | None = None,
    inter_reduce: bool = True,
    require_homogeneous: bool = True,
) -> CompletionState:
    """Run the critical-pairs/completion procedure up to sites of the given
    order.  The system starts empty and each input rule, in turn, is adjoined
    as a derived one is: it may be reduced or dropped, and every rule gets an
    id ``r1``, ``r2``, ... (an envelope's named rules too).  Ambiguities are
    taken in increasing (site order, site word, rule pair) priority; a
    subterm index finds each new rule's partners and the rules it reduces.
    With ``require_homogeneous`` an inhomogeneous input rule is a TermError
    first.  A normalized difference that the order cannot orient stops
    completion as an ``order_failure``, whether it came from an input rule,
    an ambiguity or a rule that inter-reduction adjoins again; ``failure``
    is the ``IncomparableLeading`` raised, and its ``diff`` that difference.

    Every normal form reads the index's redex memo, which maps each
    monomial searched to its first redexes and is cleared whenever a rule
    is added or removed: the two sides of an ambiguity, and the ambiguities
    resolved between two rule changes, search each monomial once."""
    order = initial.order
    if require_homogeneous:
        refuse_inhomogeneous(initial)
    index = _SubtermIndex(initial.sig, order)
    system = index.system
    heap = []
    log = []
    seq, ids = itertools.count(), itertools.count(1)
    deadline = math.inf if budget_seconds is None else time.monotonic() + budget_seconds

    def adjoin(diff: LinComb) -> list[Rule]:
        """Normalize, orient and add a difference, inter-reduce, and push each
        added rule's critical pairs; returns the rules added.  A
        re-normalized rule moves to the system's end, whose order breaks heap ties."""
        added = []
        work = [diff]
        while work:
            d = normal_form(work.pop(), system, memo=index.memo)
            if not d:
                continue
            new = orient(f"r{next(ids)}", d, order)
            index.add(new)
            added.append(new)
            if not inter_reduce:
                continue
            hits = index.instances(new.lhs)
            del hits[new.id]  # new.lhs is an instance of itself
            for old in index.in_system_order(hits):
                if hits[old.id]:
                    index.remove(old)
                    work.append(LinComb.monomial(old.lhs) - old.rhs)
                else:  # an rhs monomial holds new.lhs
                    rhs = normal_form(old.rhs, system, memo=index.memo)
                    index.remove(old)
                    index.add(make_rule(old.id, old.lhs, rhs, order))
        for new in added:
            for amb in index.critical_pairs(new, max_order):
                key = (amb.order, sort_key(amb.site), tuple(sorted((amb.rule1, amb.rule2))))
                heapq.heappush(heap, (key, next(seq), amb))
        return added

    for rule in initial:
        try:
            adjoin(LinComb.monomial(rule.lhs) - rule.rhs)
        except IncomparableLeading as e:
            return CompletionState(system, "order_failure", log, e)

    while heap:
        if time.monotonic() > deadline:
            return CompletionState(system, "budget", log)
        (key, _, amb) = heapq.heappop(heap)
        if amb.rule1 not in system or amb.rule2 not in system:
            continue
        diff = resolve(amb, system, index.memo)
        if not diff:
            log.append((amb, "resolved"))
            continue
        try:
            added = adjoin(diff)
        except IncomparableLeading as e:
            log.append((amb, "order_failure"))
            return CompletionState(system, "order_failure", log, e)
        log.append((amb, "new_rule " + ",".join(r.id for r in added)))
    return CompletionState(system, "complete", log)
