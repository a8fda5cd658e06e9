"""Rules, rewriting systems, redex matching and reduction to normal form."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linear import LinComb, RuleError, leading_monomial, maximal
from .orders import GT, TermOrder
from .scalars import parse_scalar
from .terms import (
    HOM_SIGNATURE, Context, Signature, TermError, parse, parse_tokens, planarize, sort_key
)


class Rule(NamedTuple):
    """An oriented pair: a plane monomial pattern and its replacement."""

    id: str
    lhs: Context
    rhs: LinComb

    @property
    def order(self) -> int:
        return self.lhs.order

    def __str__(self):
        return f"{self.lhs} -> {self.rhs}"


def make_rule(rule_id: str, lhs: Context, rhs: LinComb, order: TermOrder) -> Rule:
    """Normalize the lhs to its plane representative (permuting the rhs to
    match) and check the descending-monomial condition.  An arity mismatch
    or a pattern without an operation is malformed, a TermError; what the
    order refuses is a RuleError."""
    if lhs.arity != rhs.arity:
        raise TermError(f"rule {rule_id}: lhs arity {lhs.arity} != rhs arity {rhs.arity}")
    if lhs.order == 0:
        raise TermError(f"rule {rule_id}: lhs must contain at least one operation")
    if not lhs.is_plane():
        plane, sigma = planarize(lhs)
        # lhs = act(sigma, plane), so the rule says act(sigma, plane) -> rhs,
        # equivalently plane -> act(sigma^-1, rhs).
        lhs, rhs = plane, rhs.act(sigma.inverse())
    if lhs in rhs.terms:
        raise RuleError(f"rule {rule_id}: lhs occurs in its own replacement")
    for mono in rhs.support():
        if order.compare(lhs, mono) != GT:
            raise RuleError(
                f"rule {rule_id}: replacement monomial {mono} is not strictly "
                f"below the pattern {lhs} under {order.name}"
            )
    return Rule(rule_id, lhs, rhs)


def orient(rule_id: str, diff: LinComb, order: TermOrder) -> Rule:
    """The rule that ``diff = 0`` gives: its leading monomial, with
    coefficient c, rewrites to the rest of ``diff`` scaled by -1/c."""
    lead, coeff = leading_monomial(diff, order)
    rest = LinComb(diff.arity, {m: c for m, c in diff.terms.items() if m != lead})
    return make_rule(rule_id, lead, rest.scale(-1 / coeff), order)


_WILD = 0  # trie edge of a pattern box; box tokens themselves are >= 1


def trie_leaf(trie: dict, word) -> dict:
    """The node of a discrimination trie at the end of the path that spells
    ``word``, with every box one ``_WILD`` edge; missing nodes are made.  A
    complete term is no prefix of another, so this node is a leaf: its keys
    are rule ids, never edges."""
    node = trie
    for tok in word:
        node = node.setdefault(_WILD if isinstance(tok, int) else tok, {})
    return node


def _terms_below(node: dict, room, arity: dict):
    """(node, k) at the end of each complete term spelled from the inner
    trie ``node`` that has k <= ``room`` vertices."""
    stack = [(node, 1, 0)]
    while stack:
        node, need, k = stack.pop()
        for key, child in node.items():  # an inner node: a term is still open
            if key == _WILD:
                left, size = need - 1, k
            elif k < room:
                left, size = need + arity[key] - 1, k + 1
            else:
                continue
            if left:
                stack.append((child, left, size))
            else:
                yield child, size


def trie_walk(trie: dict, term: Context, starts, room=0, both=True, first=False) -> list:
    """(start, leaf, cost) of each nonempty trie leaf whose term unifies with
    the subterm of ``term`` at a token of ``starts``, walked in lockstep: a
    trie symbol takes the same symbol, with ``both`` a trie box takes the
    subterm opposite it, and a box of ``term`` takes one whole trie term,
    whose vertices it adds to the cost.  Walks that cost more than ``room``
    are cut, so at room 0 the leaves are the patterns that match there, and
    without ``both`` they are the instances of the subterm.  A start with
    no root edge, as every box, is skipped; with ``first``, the walk stops
    after the first start that has a leaf.  The walk follows one path to
    its end and stacks the other edges it passes by."""
    word, ends, arity = term.word, term.ends, term.sig._arities
    out = []
    for i in starts:
        node = trie.get(word[i])
        if node is None:
            continue
        stop, j, cost, forks = ends[i], i + 1, 0, []
        while True:
            if j == stop:
                if node:  # a removed rule's leaf stays, empty
                    out.append((i, node, cost))
            else:
                tok = word[j]
                child, wild = node.get(tok), node.get(_WILD)
                if child is not None:
                    if wild is not None and both:
                        forks.append((wild, ends[j], cost))
                    node, j = child, j + 1
                    continue
                if cost < room and isinstance(tok, int):  # a box takes a trie term
                    below = _terms_below(node, room - cost, arity)
                    forks += [(end, j + 1, cost + k) for end, k in below]
                elif wild is not None and (both or isinstance(tok, int)):
                    node, j = wild, ends[j]
                    continue
            if not forks:
                break
            node, j, cost = forks.pop()
        if first and out:
            break
    return out


class RewritingSystem:
    """A validated collection of rules sharing one term order, edited in
    place by ``add`` and ``remove``; iteration is in insertion order.

    The lhs words are indexed by a discrimination trie: nested dicts keyed
    by symbol, with every box one ``_WILD`` edge, and a leaf maps the id of
    each rule with that lhs to the rule.  Each lhs is plane and linear, so
    the k-th wildcard on a path is Box_k."""

    def __init__(self, sig: Signature, order: TermOrder, rules):
        self.sig = sig
        self.order = order
        self._rules = {}
        self._trie = {}
        for r in rules:
            self.add(r)

    def add(self, rule: Rule):
        if rule.id in self._rules:
            raise TermError(f"duplicate rule id {rule.id}")
        self._rules[rule.id] = rule
        trie_leaf(self._trie, rule.lhs.word)[rule.id] = rule

    def remove(self, rule_id: str):
        """Drop a rule; its trie path stays, perhaps to an empty leaf."""
        rule = self._rules.pop(rule_id)
        del trie_leaf(self._trie, rule.lhs.word)[rule_id]

    @property
    def rules(self) -> tuple:
        return tuple(self._rules.values())

    def __contains__(self, rule_id):
        return rule_id in self._rules

    def __getitem__(self, rule_id) -> Rule:
        return self._rules[rule_id]

    def __len__(self):
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules.values())


class Redex(NamedTuple):
    """A match of a rule pattern inside a term: the rule, and the token of
    the term at which its lhs is rooted."""

    rule: Rule
    position: int


def find_redexes(t: Context, sys: RewritingSystem, first=False) -> list[Redex]:
    """All rule matches in t, ordered by Polish position then rule id; with
    ``first``, only those at the least position that has one, so the head
    of the list is the same and the search stops there.  The lhs trie is
    walked from every symbol of t at room 0: a trie box takes the subterm
    opposite it, and a box of t only a trie box."""
    out = [
        Redex(rule, pos)
        for pos, leaf, _ in trie_walk(sys._trie, t, range(len(t.word)), first=first)
        for rule in leaf.values()
    ]
    out.sort(key=lambda rd: (rd.position, rd.rule.id))
    return out


def apply_redex(t: Context, redex: Redex) -> LinComb:
    """Replace the matched subterm by the rule's replacement, splicing the
    fragments its boxes bind back in.  The lhs is plane and linear, so in
    one lockstep walk with t its k-th box binds the k-th subterm met; a
    symbol it does not match raises a TermError.  Box numbering of t is
    untouched."""
    word, ends, (rule, pos) = t.word, t.ends, redex
    bindings, j = [], pos
    for tok in rule.lhs.word:
        if isinstance(tok, int):
            bindings.append(word[j : ends[j]])
            j = ends[j]
        elif word[j] == tok:
            j += 1
        else:
            raise TermError(f"rule {rule.id} does not match {t} at token {pos}")
    head, tail = word[:pos], word[j:]
    out = LinComb(t.arity)
    for mono, coeff in rule.rhs.terms.items():
        mid = []
        for tok in mono.word:
            if isinstance(tok, int):
                mid.extend(bindings[tok - 1])
            else:
                mid.append(tok)
        out.add_term(Context(head + tuple(mid) + tail, t.sig, t.arity), coeff)
    return out


def refuse_growing(rules):
    """Raise a TermError naming the first rule with a replacement monomial
    of more vertices than its pattern.  When none grows, each step trades a
    monomial for monomials of fewer vertices, or of the same vertex count
    and arity and below it in the term order, of which there are finitely
    many, so reduction terminates."""
    for r in rules:
        for mono in r.rhs.support():
            if mono.order > r.lhs.order:
                raise TermError(
                    f"rule {r.id}: replacement monomial {mono} has more vertices "
                    f"than the pattern {r.lhs}"
                )


def is_irreducible(x: LinComb | Context, sys: RewritingSystem) -> bool:
    monos = [x] if isinstance(x, Context) else x.support()
    return not any(find_redexes(m, sys, first=True) for m in monos)


def _pick_greatest(monos, order):
    """The order-greatest monomial; Polish-lex-least fallback among maximal
    candidates when the order cannot decide."""
    return min(maximal(monos, order), key=sort_key)


def normal_form(x: LinComb, sys: RewritingSystem, rng=None, memo=None) -> LinComb:
    """Iterate reduction to a fixed point.  Each step rewrites the
    order-greatest reducible monomial at its first redex; with ``rng``
    supplied, the monomial and redex are instead uniform over every redex
    of every monomial.  A complete system reaches the same answer.

    The sum and its reducible monomials, each with its sorted redex list,
    are two dicts edited in place: a step pops the rewritten monomial,
    adds the scaled reduct term by term and drops what cancels, so the
    terms keep the order of ``rest + reduct``.  The greatest is the
    maximum of the order's key when it has one; otherwise it is the
    ``_pick_greatest`` antichain's pick.

    Monomials are immutable and ``sys`` must not change while ``memo``
    lives, so each distinct monomial is searched for redexes once, when it
    first enters the sum, and keyed at most once.  Without ``rng`` only the
    first redex is read, so the search stops at the first position with a
    match.  ``memo`` maps each monomial searched to that result; a caller
    that passes one shares it between calls without ``rng`` against one
    state of ``sys``, and must clear it when ``sys`` changes.  Without it,
    the memo lives for this call."""
    first = rng is None
    if memo is None:
        memo = {}
    ranks = {}

    def redexes(mono):
        reds = memo.get(mono)
        if reds is None:
            reds = memo[mono] = find_redexes(mono, sys, first=first)
        return reds

    def rank(mono):
        r = ranks.get(mono)
        if r is None:
            r = ranks[mono] = key(mono)
        return r

    key = sys.order.key
    terms = dict(x.terms)
    reducible = {}
    for mono in terms:
        reds = redexes(mono)
        if reds:
            reducible[mono] = reds
    while reducible:
        if rng is not None:
            choices = [(mono, red) for mono, reds in reducible.items() for red in reds]
            mono, red = choices[rng.randrange(len(choices))]
        else:
            if len(reducible) == 1:
                mono = next(iter(reducible))
            elif key is not None:
                mono = max(reducible, key=rank)
            else:
                mono = _pick_greatest(list(reducible), sys.order)
            red = reducible[mono][0]
        coeff = terms.pop(mono)
        del reducible[mono]
        for m, v in apply_redex(mono, red).terms.items():
            old = terms.get(m)
            if old is None:
                terms[m] = coeff * v
                reds = redexes(m)
                if reds:
                    reducible[m] = reds
                continue
            c = old + coeff * v
            if c:
                terms[m] = c
            else:
                del terms[m]
                reducible.pop(m, None)
    return LinComb(x.arity, terms)


# --- rule file format -------------------------------------------------------


def _split_summands(tokens):
    """Split a signed-sum token list at top-level + and - separators.  A
    sign may lead a summand, but a sum that ends in one is refused."""
    out, current, sign, depth = [], [], 1, 0
    for tok in tokens:
        if depth == 0 and (tok == "+" or tok == "-"):
            if current:
                out.append((sign, current))
                current, sign = [], (1 if tok == "+" else -1)
            elif tok == "-":
                sign = -sign
            continue
        if "(" in tok or ")" in tok:
            depth += tok.count("(") - tok.count(")")
        current.append(tok)
    if not current:
        raise TermError(f"linear combination ends in {tokens[-1]!r}")
    out.append((sign, current))
    return out


def parse_lincomb(text: str, sig: Signature) -> LinComb:
    """Parse `[c *] <polish> { (+|-) [c *] <polish> }`, adding each summand
    into one sum in place.  In a summand without `*`, a `-` glued to its
    first token is its sign, as ``LinComb.__str__`` writes a leading -1
    (`-m 1 2`); no symbol name starts with `-`.  A lone `0` is the zero
    sum, as ``LinComb.__str__`` writes it, of arity 0.

    This is where a sum from outside is checked, since the ``LinComb``
    constructor trusts its caller: each term by ``parse_tokens``, each
    scalar by ``parse_scalar``, one arity for all, and no zero coefficient
    kept (`0 * m 1 2` is no term)."""
    tokens = text.split()
    if tokens == ["0"]:
        return LinComb(0)
    if not tokens:
        raise TermError("empty linear combination")
    result = None
    for sign, toks in _split_summands(tokens):
        coeff = Fraction(sign)
        if "*" in toks:
            cut = toks.index("*")
            coeff = coeff * parse_scalar(" ".join(toks[:cut]))
            toks = toks[cut + 1 :]
        elif toks[0].startswith("-") and toks[0] != "-":
            coeff = -coeff
            toks = [toks[0][1:], *toks[1:]]
        ctx = parse_tokens(toks, sig)
        if result is None:
            result = LinComb.monomial(ctx, coeff)
        elif ctx.arity != result.arity:
            raise TermError("arity mismatch in addition")
        else:
            result.add_term(ctx, coeff)
    return result


def parse_rules(text: str, sig: Signature, order: TermOrder) -> list[Rule]:
    """Read the one-rule-per-line format `<lhs> -> <signed sum>`, where a
    sum that is exactly `0` is the zero combination, as `format_rules`
    writes it.  `op` lines are skipped (``read_rules`` reads them), so a
    line number counts every line of ``text``."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(("#", "op ")):
            continue
        if "->" not in line:
            raise TermError(f"line {lineno}: expected `<lhs> -> <rhs>`")
        left, right = line.split("->", 1)
        lhs = parse(left.strip(), sig)
        right = right.strip()
        rhs = LinComb(lhs.arity) if right == "0" else parse_lincomb(right, sig)
        rules.append(make_rule(f"r{len(rules) + 1}", lhs, rhs, order))
    return rules


def read_rules(text: str, order: TermOrder) -> tuple[Signature, list[Rule]]:
    """Read a rules file as ``format_rules`` writes it: its `op` lines, if
    any, declare the signature (the hom signature otherwise), and
    ``parse_rules`` reads the rest.  Error line numbers count every line."""
    ops = [line if line.strip().startswith("op ") else "" for line in text.splitlines()]
    sig = Signature.parse("\n".join(ops)) if any(ops) else HOM_SIGNATURE
    return sig, parse_rules(text, sig, order)


def format_rules(rules, sig: Signature) -> str:
    """One rule per line, after the `op` lines of ``sig`` unless it is the
    default hom signature, so a rules file carries its own signature;
    ``read_rules`` reads it back."""
    lines = [] if sig == HOM_SIGNATURE else [str(sig)]
    lines.extend(map(str, rules))
    return "\n".join(lines) + "\n"
