"""Polish-notation contexts over a signature: the free operad of monomials.

A context is stored as a flat tuple of tokens in (left-)Polish order.
Operation symbols are strings, input boxes are positive ints.  Structural
equality and hashing are therefore O(n) tuple operations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import factorial


class TermError(ValueError):
    """A refusal of input, which the command line exits 2 on: a malformed
    signature, term, rule, rules file, scalar or algebra document, a
    composition request that does not fit, or a duplicate rule id.  A
    refusal by the term order is a ``RuleError``."""


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities.  Constants (arity 0) are allowed.  A
    name is refused if the rules-file format could not read it back: one
    with whitespace or a digit, a sum's `+` or `*`, `op`, one holding `->`
    or a parenthesis, or one starting as a box token, a comment or a `-`,
    which a sum reads as the sign of its summand."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = {}
        for name, arity in self.symbols:
            if (
                not name
                or name in ("+", "*", "op")
                or name.startswith(("[", "#", "-"))
                or any(bad in name for bad in ("->", "(", ")"))
                or any(ch.isspace() or ch.isdigit() for ch in name)
            ):
                raise TermError(f"bad symbol name {name!r}")
            if name in seen:
                raise TermError(f"duplicate symbol {name!r}")
            if arity < 0:
                raise TermError(f"negative arity for {name!r}")
            seen[name] = arity
        object.__setattr__(self, "_arities", seen)
        # the reader's token table: a name spells (name, arity), a one-digit
        # token its box; names hold no digit, so the two never meet
        tokens = {name: (name, arity) for name, arity in seen.items()}
        tokens.update((str(i), i) for i in range(1, 10))
        object.__setattr__(self, "_tokens", tokens)
        # the printer's sort key of a name: its rank among the names, above
        # every box, since a box index is at most the length of its word
        ranks = {name: sys.maxsize + r for r, name in enumerate(sorted(seen))}
        object.__setattr__(self, "_sort_keys", ranks)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise TermError(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    @staticmethod
    def parse(text: str) -> "Signature":
        """Read the `op <name> <arity>` line format; `#` starts a comment."""
        syms = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != "op" or not _is_ascii_decimal(parts[2]):
                raise TermError(f"line {lineno}: expected `op <name> <arity>`")
            syms.append((parts[1], int(parts[2])))
        return Signature(tuple(syms))

    def __str__(self) -> str:
        return "\n".join(f"op {n} {a}" for n, a in self.symbols)


HOM_SIGNATURE = Signature((("m", 2), ("a", 1)))
ASS_SIGNATURE = Signature((("m", 2),))

Token = str | int  # symbol name or box index


class Context:
    """An n-context: a Polish word using each of Box_1..Box_n exactly once.
    The constructor trusts its caller to pass such a word over ``sig`` and
    its box count n as ``arity``; a word from outside the program is read
    and checked by ``parse_tokens``.  The tables ``ends`` and ``sizes`` are
    built on first read and kept."""

    __slots__ = ("word", "sig", "arity", "_hash", "_ends", "_sizes")

    def __init__(self, word: tuple[Token, ...], sig: Signature, arity: int):
        self.word = word
        self.sig = sig
        self.arity = arity
        self._ends = self._sizes = None
        self._hash = hash(word)

    def __eq__(self, other):
        return isinstance(other, Context) and self.word == other.word

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Context({print_term(self.word)!r})"

    def __str__(self):
        return print_term(self.word)

    @property
    def order(self) -> int:
        """Vertex count: number of non-box tokens."""
        return len(self.word) - self.arity

    @property
    def ends(self) -> list[int]:
        """``ends[i]`` is one past the subterm rooted at ``word[i]``."""
        if self._ends is None:
            self._ends = subterm_ends(self.word, self.sig)
        return self._ends

    @property
    def sizes(self) -> list[int]:
        """``sizes[i]`` is the vertex count of the subterm rooted at ``word[i]``."""
        if self._sizes is None:
            before = list(accumulate((not isinstance(t, int) for t in self.word), initial=0))
            self._sizes = [before[end] - before[i] for i, end in enumerate(self.ends)]
        return self._sizes

    def is_plane(self) -> bool:
        expect = 1
        for t in self.word:
            if isinstance(t, int):
                if t != expect:
                    return False
                expect += 1
        return True


def subterm_ends(word: tuple[Token, ...], sig: Signature) -> list[int]:
    """``ends[i]`` is one past the subterm rooted at ``word[i]``, for every
    position of a sequence of complete terms, in one right-to-left pass."""
    ends = [0] * len(word)
    arity = sig._arities  # the word is a complete term, so every symbol is known
    stack = []  # ends of the complete subterms to the right, nearest last
    for i in range(len(word) - 1, -1, -1):
        t = word[i]
        n = 0 if isinstance(t, int) else arity[t]
        if n:
            end = stack[-n]
            del stack[-n:]
        else:
            end = i + 1
        ends[i] = end
        stack.append(end)
    return ends


def _is_ascii_decimal(text: str) -> bool:
    """Whether ``text`` is ASCII digits only: ``str.isdecimal`` also takes
    other scripts' digits, which the formats do not write."""
    return text.isascii() and text.isdecimal()


def sort_key(c: Context) -> tuple[int, ...]:
    """Polish-lex sort key on the contexts of one signature: boxes (by
    index) before symbols (by name).  A box is its index, a symbol its
    signature's ``_sort_keys`` entry."""
    keys = c.sig._sort_keys
    return tuple(map(keys.get, c.word, c.word))


def parse(text: str, sig: Signature) -> Context:
    """Parse whitespace-separated Polish tokens; ASCII digits 1-9 are boxes
    and bracketed ASCII decimals like [12] are boxes with larger indices."""
    return parse_tokens(text.split(), sig)


def parse_tokens(tokens, sig: Signature) -> Context:
    """The context a list of Polish tokens spells, read in one pass that
    counts the arguments still open and collects the boxes.  The first bad
    token is reported; then boxes that are not 1..n each once; then tokens
    after a complete term; then a term left open."""
    table = sig._tokens
    word, boxes = [], []
    need, trailing = 1, False
    for tok in tokens:
        if need <= 0:
            trailing = True
        t = table.get(tok)
        if t is None:
            t = _box(tok)
        if t.__class__ is int:
            word.append(t)
            boxes.append(t)
            need -= 1
        else:
            word.append(t[0])
            need += t[1] - 1
    n = len(boxes)
    if sorted(boxes) != list(range(1, n + 1)):
        raise TermError(f"boxes must be 1..{n} each once, got {boxes}")
    if trailing:
        raise TermError("trailing tokens after complete term")
    if need:
        raise TermError("truncated Polish term")
    return Context(tuple(word), sig, n)


def _box(tok: str) -> int:
    """The index of a box token outside the token table, `[n]`; any other
    such token is an error."""
    if tok == "0":
        raise TermError("box indices start at 1")
    if tok.startswith("[") and tok.endswith("]"):
        if not _is_ascii_decimal(tok[1:-1]):
            raise TermError(f"bad box token {tok!r}")
        idx = int(tok[1:-1])
        if idx < 1:
            raise TermError("box indices start at 1")
        return idx
    raise TermError(f"unknown symbol {tok!r}")


def print_term(word: tuple[Token, ...]) -> str:
    return " ".join(t if t.__class__ is str else str(t) if t <= 9 else f"[{t}]" for t in word)


def compose(outer: Context, inners: list[Context]) -> Context:
    """Substitute ``inners[i-1]`` for Box_i of ``outer`` and renumber boxes,
    keeping relative order within each inner and ordering blocks by i.  The
    result is over ``outer.sig``, so an inner over another signature is
    refused with ``unknown symbol`` when it holds a symbol that ``outer.sig``
    does not declare with the same arity."""
    if len(inners) != outer.arity:
        raise TermError(f"need {outer.arity} inners, got {len(inners)}")
    for inner in inners:
        if inner.sig != outer.sig:
            for t in inner.word:
                if t.__class__ is str and outer.sig._tokens.get(t) != inner.sig._tokens[t]:
                    raise TermError(f"unknown symbol {t!r}")
    offsets = [0] * (outer.arity + 1)
    for i, inner in enumerate(inners):
        offsets[i + 1] = offsets[i] + inner.arity
    word: list[Token] = []
    for t in outer.word:
        if isinstance(t, int):
            off = offsets[t - 1]
            for u in inners[t - 1].word:
                word.append(u + off if isinstance(u, int) else u)
        else:
            word.append(t)
    return Context(tuple(word), outer.sig, offsets[-1])


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i-1]`` is the image of i.  The
    constructor trusts its caller that ``images`` holds 1..n each once."""

    images: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, 1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def act(sigma: Permutation, c: Context) -> Context:
    """Right action: Box_i becomes Box_{sigma^-1(i)}."""
    if sigma.degree != c.arity:
        raise TermError(f"degree {sigma.degree} != arity {c.arity}")
    inv = sigma.inverse()
    word = tuple(inv(t) if isinstance(t, int) else t for t in c.word)
    return Context(word, c.sig, c.arity)


def renumber(tokens, sig: Signature) -> Context:
    """The plane context of the complete word ``tokens``: its boxes,
    whatever their ints, numbered 1, 2, ... in reading order."""
    k = count(1)
    word = tuple(next(k) if isinstance(t, int) else t for t in tokens)
    return Context(word, sig, next(k) - 1)


def planarize(c: Context) -> tuple[Context, Permutation]:
    """Return the unique plane representative p = ``renumber(c.word)`` and
    sigma with act(sigma, p) = c."""
    # act replaces Box_k by Box_{sigma^-1(k)}, so sigma^-1 is the box reading.
    reading = tuple(t for t in c.word if isinstance(t, int))
    return renumber(c.word, c.sig), Permutation(reading).inverse()


def grading(c: Context) -> tuple[int, int]:
    """(count of unary a-vertices, count of binary m-vertices)."""
    k = sum(1 for t in c.word if t == "a")
    l = sum(1 for t in c.word if t == "m")
    return k, l


def plane_count(k: int, l: int) -> int:
    """Closed-form number of plane {m,a}-contexts with k a's and l m's."""
    return factorial(k + 2 * l) // (factorial(k) * factorial(l) * factorial(l) * (l + 1))


@lru_cache(maxsize=None)
def _plane_words(k: int, l: int) -> tuple[tuple[Token, ...], ...]:
    if k == 0 and l == 0:
        return ((1,),)
    out = []
    if k > 0:
        out.extend(("a",) + w for w in _plane_words(k - 1, l))
    if l > 0:
        for k1 in range(k + 1):
            for l1 in range(l):
                for w1 in _plane_words(k1, l1):
                    n1 = sum(1 for t in w1 if isinstance(t, int))
                    for w2 in _plane_words(k - k1, l - 1 - l1):
                        shifted = tuple(t + n1 if isinstance(t, int) else t for t in w2)
                        out.append(("m",) + w1 + shifted)
    return tuple(out)


def enumerate_plane(k: int, l: int) -> list[Context]:
    """All plane contexts over {m/2, a/1} with k a-vertices and l m-vertices,
    of order k + l at most 20; each has l + 1 boxes."""
    if k + l > 20:
        raise TermError(f"order {k + l} exceeds limit 20")
    return [Context(w, HOM_SIGNATURE, l + 1) for w in _plane_words(k, l)]
