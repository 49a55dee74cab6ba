"""Regular-expression ASTs and a parser for the paper's DTD syntax.

The grammar (loosest binding first)::

    union   :=  inter ('+' inter)*          # the paper writes union as +
    inter   :=  concat ('&' concat)*        # intersection (star-free toolkit)
    concat  :=  postfix ('.'? postfix)*     # '.' optional between atoms
    postfix :=  atom ('*' | '?')*
    atom    :=  SYMBOL | 'eps' | 'empty' | '~' atom | '(' union ')'

Symbols are identifiers (``[A-Za-z0-9_][A-Za-z0-9_#$-]*``) or single-quoted
strings, so multi-character XML tags like ``movie`` are single symbols.
``~r`` is complement (relative to an ambient alphabet fixed at compile
time); complement and intersection are exactly the operators star-free
expressions are built from (Section 2 of the paper).

The AST is immutable and hashable; :func:`Regex.symbols` collects the
alphabet mentioned, and compilation to automata lives in
:mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` (re-exported here as
:meth:`Regex.to_nfa` / :meth:`Regex.to_dfa`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.automata.dfa import DFA
    from repro.automata.nfa import NFA


class Regex:
    """Base class of all regular-expression nodes."""

    __slots__ = ()

    def symbols(self) -> frozenset[str]:
        """All alphabet symbols occurring in the expression."""
        out: set[str] = set()
        self._collect_symbols(out)
        return frozenset(out)

    def _collect_symbols(self, out: set[str]) -> None:
        raise NotImplementedError

    def uses_complement_or_intersection(self) -> bool:
        """True if the expression contains ``~`` or ``&`` anywhere."""
        if isinstance(self, (Complement, Intersect)):
            return True
        return any(c.uses_complement_or_intersection() for c in self._children())

    def uses_star(self) -> bool:
        """True if Kleene star occurs anywhere in the expression."""
        if isinstance(self, Star):
            return True
        return any(c.uses_star() for c in self._children())

    def _children(self) -> tuple["Regex", ...]:
        return ()

    # -- compilation --------------------------------------------------------

    def to_nfa(self, alphabet: Optional[Iterable[str]] = None) -> "NFA":
        """Compile to an epsilon-NFA (Thompson construction).

        Complement and intersection sub-expressions are compiled through a
        DFA over ``alphabet`` (default: the symbols of the expression).
        """
        from repro.automata.nfa import thompson

        sigma = frozenset(alphabet) if alphabet is not None else self.symbols()
        return thompson(self, sigma | self.symbols())

    def to_dfa(self, alphabet: Optional[Iterable[str]] = None) -> "DFA":
        """Compile to a minimal DFA over ``alphabet`` (default: own
        symbols).  The DFA is total: every state has a transition on every
        letter of the alphabet."""
        sigma = frozenset(alphabet) if alphabet is not None else frozenset()
        return _compile_dfa(self, sigma | self.symbols())

    def matches(self, word: Iterable[str], alphabet: Optional[Iterable[str]] = None) -> bool:
        """Membership test; convenience wrapper over :meth:`to_dfa`."""
        word = tuple(word)
        sigma = set(word) | set(self.symbols())
        if alphabet is not None:
            sigma |= set(alphabet)
        return _compile_dfa(self, frozenset(sigma)).accepts(word)

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other: "Regex") -> "Regex":
        return union(self, other)

    def __or__(self, other: "Regex") -> "Regex":
        return union(self, other)

    def __mul__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def __and__(self, other: "Regex") -> "Regex":
        return intersect(self, other)

    def __invert__(self) -> "Regex":
        return Complement(self)


@lru_cache(maxsize=4096)
def _compile_dfa(regex: Regex, sigma: frozenset[str]) -> "DFA":
    from repro.automata.dfa import from_nfa

    return from_nfa(regex.to_nfa(sigma), sigma).minimize()


@dataclass(frozen=True, slots=True)
class Empty(Regex):
    """The empty language (no words at all)."""

    def _collect_symbols(self, out: set[str]) -> None:
        pass

    def __str__(self) -> str:
        return "empty"


@dataclass(frozen=True, slots=True)
class Epsilon(Regex):
    """The language containing only the empty word."""

    def _collect_symbols(self, out: set[str]) -> None:
        pass

    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True, slots=True)
class Symbol(Regex):
    """A single alphabet symbol (a whole XML tag, e.g. ``movie``)."""

    name: str

    def _collect_symbols(self, out: set[str]) -> None:
        out.add(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Concat(Regex):
    """Concatenation ``left . right``."""

    left: Regex
    right: Regex

    def _collect_symbols(self, out: set[str]) -> None:
        self.left._collect_symbols(out)
        self.right._collect_symbols(out)

    def _children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left, 2)}.{_paren(self.right, 2)}"


@dataclass(frozen=True, slots=True)
class Union(Regex):
    """Union ``left + right``."""

    left: Regex
    right: Regex

    def _collect_symbols(self, out: set[str]) -> None:
        self.left._collect_symbols(out)
        self.right._collect_symbols(out)

    def _children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left, 0)} + {_paren(self.right, 0)}"


@dataclass(frozen=True, slots=True)
class Intersect(Regex):
    """Intersection ``left & right`` (not a classical regex operator, but
    closed for regular languages; used by the star-free toolkit)."""

    left: Regex
    right: Regex

    def _collect_symbols(self, out: set[str]) -> None:
        self.left._collect_symbols(out)
        self.right._collect_symbols(out)

    def _children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left, 1)} & {_paren(self.right, 1)}"


@dataclass(frozen=True, slots=True)
class Star(Regex):
    """Kleene star ``inner*``."""

    inner: Regex

    def _collect_symbols(self, out: set[str]) -> None:
        self.inner._collect_symbols(out)

    def _children(self) -> tuple[Regex, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"{_paren(self.inner, 3)}*"


@dataclass(frozen=True, slots=True)
class Complement(Regex):
    """Complement ``~inner`` relative to the ambient alphabet (fixed when
    the expression is compiled).  Star-free expressions are built from
    symbols and epsilon using concatenation, union and complement."""

    inner: Regex

    def _collect_symbols(self, out: set[str]) -> None:
        self.inner._collect_symbols(out)

    def _children(self) -> tuple[Regex, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        # '~' takes an atom: ``~b*`` reads back as ``(~b)*``.
        return f"~{_paren(self.inner, 4)}"


_PRECEDENCE: dict[type, int] = {
    Union: 0,
    Intersect: 1,
    Concat: 2,
    Star: 3,
    Complement: 3,
    Symbol: 4,
    Epsilon: 4,
    Empty: 4,
}


def _paren(regex: Regex, ambient: int) -> str:
    if _PRECEDENCE[type(regex)] < ambient:
        return f"({regex})"
    return str(regex)


# -- smart constructors -------------------------------------------------------

EPSILON = Epsilon()
EMPTY = Empty()


def sym(name: str) -> Symbol:
    """A single-symbol regex."""
    return Symbol(name)


def concat(*parts: Regex) -> Regex:
    """Concatenation with unit/zero simplification."""
    acc: Regex = EPSILON
    for part in parts:
        if isinstance(part, Empty) or isinstance(acc, Empty):
            return EMPTY
        if isinstance(part, Epsilon):
            continue
        acc = part if isinstance(acc, Epsilon) else Concat(acc, part)
    return acc


def union(*parts: Regex) -> Regex:
    """Union with unit simplification; ``union()`` is the empty language."""
    acc: Regex = EMPTY
    for part in parts:
        if isinstance(part, Empty):
            continue
        if part == acc:
            continue
        acc = part if isinstance(acc, Empty) else Union(acc, part)
    return acc


def intersect(*parts: Regex) -> Regex:
    """Intersection; ``intersect(r)`` is ``r``."""
    if not parts:
        raise ValueError("intersect() needs at least one operand")
    acc = parts[0]
    for part in parts[1:]:
        acc = Intersect(acc, part)
    return acc


def star(regex: Regex) -> Regex:
    """Kleene star with idempotence simplification."""
    if isinstance(regex, (Star, Epsilon)):
        return regex if isinstance(regex, Star) else EPSILON
    if isinstance(regex, Empty):
        return EPSILON
    return Star(regex)


def plus(regex: Regex) -> Regex:
    """One-or-more, ``r.r*`` (the paper's ``r^+``)."""
    return concat(regex, star(regex))


def optional(regex: Regex) -> Regex:
    """Zero-or-one, ``r + eps``."""
    return union(regex, EPSILON)


def word(symbols: Iterable[str]) -> Regex:
    """The singleton language of one fixed word."""
    return concat(*(Symbol(s) for s in symbols))


def any_of(symbols: Iterable[str]) -> Regex:
    """Union of single symbols (a character class)."""
    return union(*(Symbol(s) for s in symbols))


# -- parser -------------------------------------------------------------------


class RegexParseError(ValueError):
    """Malformed regular-expression text."""


_IDENT_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_IDENT_CONT = _IDENT_START | set("#$-")
_KEYWORDS = {"eps": EPSILON, "empty": EMPTY}


class _RegexParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> RegexParseError:
        return RegexParseError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_union(self) -> Regex:
        node = self.parse_intersect()
        self.skip_ws()
        while self.peek() == "+":
            self.pos += 1
            node = union(node, self.parse_intersect())
            self.skip_ws()
        return node

    def parse_intersect(self) -> Regex:
        node = self.parse_concat()
        self.skip_ws()
        while self.peek() == "&":
            self.pos += 1
            node = Intersect(node, self.parse_concat())
            self.skip_ws()
        return node

    def parse_concat(self) -> Regex:
        parts = [self.parse_postfix()]
        while True:
            self.skip_ws()
            if self.peek() == ".":
                self.pos += 1
                parts.append(self.parse_postfix())
            elif self.peek() in _IDENT_START or self.peek() in {"(", "'", "~"}:
                parts.append(self.parse_postfix())
            else:
                break
        return concat(*parts)

    def parse_postfix(self) -> Regex:
        node = self.parse_atom()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                node = star(node)
            elif self.peek() == "?":
                self.pos += 1
                node = optional(node)
            else:
                return node

    def parse_atom(self) -> Regex:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_union()
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return node
        if ch == "~":
            self.pos += 1
            return Complement(self.parse_atom())
        if ch == "'":
            return Symbol(self._quoted())
        if ch in _IDENT_START:
            name = self._ident()
            return _KEYWORDS.get(name, Symbol(name))
        raise self.error("expected symbol, '(', '~' or quoted name")

    def _quoted(self) -> str:
        self.pos += 1
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated quoted symbol")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == "\\" and self.pos < len(self.text):
                out.append(self.text[self.pos])
                self.pos += 1
            elif ch == "'":
                return "".join(out)
            else:
                out.append(ch)

    def _ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos]


def parse_regex(text: str) -> Regex:
    """Parse the paper-style syntax, e.g. ``"b*.c.e"`` or ``"zero + one"``.

    Note ``+`` is *union* (as in the paper); one-or-more is available as
    the :func:`plus` combinator or by writing ``r.r*``.
    """
    parser = _RegexParser(text)
    node = parser.parse_union()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after regular expression")
    return node
