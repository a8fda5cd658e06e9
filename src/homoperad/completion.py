"""Plane critical ambiguities and the critical-pairs/completion procedure."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

from .linear import IncomparableLeading, LinComb
from .rewrite import (
    RewritingSystem,
    Rule,
    RuleError,
    apply_redex,
    find_redexes,
    make_rule,
    normal_form,
    orient,
)
from .terms import Context, Signature, TermError, grading, word_key


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


def _merge(a, i, b, ends_a, ends_b):
    """Unify the subterm of Polish word ``a`` at ``i`` with the whole of
    Polish word ``b`` in one lockstep walk; boxes are local wildcards and
    ``ends_a``/``ends_b`` the words' subterm-end tables. Returns the merged
    tokens, or None on a symbol clash. Equal symbols have equal arity, so
    both words end together. Box tokens are copied as they are;
    ``_renumber`` numbers them afterwards."""
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


def _renumber(tokens, sig) -> Context:
    k = itertools.count(1)
    word = tuple(next(k) if isinstance(t, int) else t for t in tokens)
    return Context(word, sig, _checked=True)


def _superpositions(s1: Rule, s2: Rule, sig: Signature, max_order):
    """Sites of order at most ``max_order`` where lhs(s2), rooted at a vertex
    of lhs(s1), unifies with it, in position order.  Yields (site, position
    of the s2 embedding); s1 embeds at the root."""
    w1, w2 = s1.lhs.word, s2.lhs.word
    ends1, sizes1 = s1.lhs.ends, s1.lhs.sizes
    n1, n2, root2 = s1.order, s2.order, w2[0]  # an lhs is rooted at a symbol
    for p, tok in enumerate(w1):
        if tok != root2:
            continue
        # the merged subterm has at least the vertices of lhs(s2)
        outside = n1 - sizes1[p]
        if outside + n2 > max_order:
            continue
        merged = _merge(w1, p, w2, ends1, s2.lhs.ends)
        if merged is None:
            continue
        if outside + sum(1 for t in merged if not isinstance(t, int)) > max_order:
            continue
        yield _renumber(w1[:p] + tuple(merged) + w1[ends1[p] :], sig), p


def overlaps(s1: Rule, s2: Rule, sig: Signature, max_order=math.inf) -> list[Ambiguity]:
    """The plane critical ambiguities of order at most ``max_order`` between
    the two rules, each found once: lhs(s2) rooted at each vertex of lhs(s1)
    (not at its root when the rules are one rule, which is no ambiguity),
    then, for two rules, lhs(s1) rooted below the root of lhs(s2); the root
    site of two rules is the same from both sides."""
    same = s1.id == s2.id
    out = [
        Ambiguity(site, s1.id, s2.id, p)
        for site, p in _superpositions(s1, s2, sig, max_order)
        if p or not same
    ]
    if not same:
        out += [
            Ambiguity(site, s2.id, s1.id, p)
            for site, p in _superpositions(s2, s1, sig, max_order)
            if p
        ]
    return out


def _reduction_of(amb_site: Context, redexes, rule_id: str, pos: int) -> LinComb:
    """Reduct of the site at the redex of ``rule_id`` rooted at ``pos``,
    picked from the site's ``find_redexes`` list."""
    for red in redexes:
        if red.position == pos and red.rule.id == rule_id:
            return apply_redex(amb_site, red)
    raise TermError(f"rule {rule_id} does not match the ambiguity site")


@dataclass(frozen=True)
class Failure:
    diff: LinComb
    reason: str


def resolve(amb: Ambiguity, sys: RewritingSystem) -> LinComb:
    """Reduce the site along both redexes and return the difference of the
    two normal forms, which is zero when the ambiguity resolves."""
    redexes = find_redexes(amb.site, sys)
    left = normal_form(_reduction_of(amb.site, redexes, amb.rule1, 0), sys)
    right = normal_form(_reduction_of(amb.site, redexes, amb.rule2, amb.pos2), sys)
    return left - right


def is_homogeneous(lhs: Context, rhs: LinComb) -> bool:
    g = grading(lhs)
    return all(grading(m) == g for m in rhs.support())


def refuse_inhomogeneous(rules):
    """Raise a TermError naming the first rule that is not grading-homogeneous."""
    for r in rules:
        if not is_homogeneous(r.lhs, r.rhs):
            raise TermError(f"rule {r.id} is not grading-homogeneous")


@dataclass
class CompletionState:
    system: RewritingSystem
    status: str  # "complete" | "budget" | "order_failure"
    max_order: int
    log: list = field(default_factory=list)
    failure: Failure | None = None

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
    order.  Ambiguities are processed in increasing (site order, site word,
    rule pair) priority; candidate differences are normalized, oriented and
    adjoined; with ``inter_reduce`` the system is kept fully reduced.  With
    ``require_homogeneous`` an input rule that is not grading-homogeneous is
    refused with a TermError before any work."""
    sig, order = initial.sig, initial.order
    if require_homogeneous:
        refuse_inhomogeneous(initial)
    system = RewritingSystem(sig, order, initial)
    counter = len(system)
    heap = []
    log = []
    seq = itertools.count()

    def push_overlaps(a: Rule, b: Rule):
        for amb in overlaps(a, b, sig, max_order):
            key = (
                amb.order,
                word_key(amb.site.word),
                tuple(sorted((amb.rule1, amb.rule2))),
            )
            heapq.heappush(heap, (key, next(seq), amb))

    for x, y in itertools.combinations_with_replacement(system.rules, 2):
        push_overlaps(x, y)

    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def adjoin(diff: LinComb) -> list[Rule]:
        """Orient a normalized nonzero difference, add it, and inter-reduce.
        Returns the rules added (the oriented one plus any re-derived).
        A rule whose rhs is re-normalized is removed and added again: it
        moves to the end of the system, whose order breaks heap ties."""
        nonlocal counter
        added = []
        work = [diff]
        while work:
            d = normal_form(work.pop(), system)
            if not d:
                continue
            counter += 1
            new = orient(f"r{counter}", d, order)
            if require_homogeneous and not is_homogeneous(new.lhs, new.rhs):
                raise RuleError(f"generated rule {new.id} is not homogeneous")
            system.add(new)
            added.append(new)
            if not inter_reduce:
                continue
            one = RewritingSystem(sig, order, [new])
            # a pattern occurs only in a term with at least as many vertices
            for old in system.rules[:-1]:  # all but new, added last
                if old.order >= new.order and find_redexes(old.lhs, one):
                    system.remove(old.id)
                    work.append(LinComb.monomial(old.lhs) - old.rhs)
                elif any(
                    find_redexes(m, one)
                    for m in old.rhs.support()
                    if m.order >= new.order
                ):
                    rhs = normal_form(old.rhs, system)
                    system.remove(old.id)
                    system.add(make_rule(old.id, old.lhs, rhs, order))
        return added

    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return CompletionState(system, "budget", max_order, log)
        (key, _, amb) = heapq.heappop(heap)
        if amb.rule1 not in system or amb.rule2 not in system:
            continue
        diff = resolve(amb, system)
        if not diff:
            log.append((amb, "resolved"))
            continue
        try:
            added = adjoin(diff)
        except IncomparableLeading as e:
            log.append((amb, "order_failure"))
            return CompletionState(
                system, "order_failure", max_order, log, Failure(diff, str(e))
            )
        log.append((amb, "new_rule " + ",".join(r.id for r in added)))
        for new in added:
            for other in system:
                push_overlaps(new, other)
    return CompletionState(system, "complete", max_order, log)
