"""Regular expressions: AST, parser, and Thompson compilation to automata.

Supported syntax (POSIX-flavoured, over a given :class:`Alphabet`):

``a``          a literal symbol
``.``          any single alphabet symbol
``[abc]``      symbol class; ``[^abc]`` negated class
``(r)``        grouping
``rs``         concatenation
``r|s``        alternation
``r*``         Kleene star
``r+``         one or more
``r?``         optional
``\\x``        escaped literal (use for ``| ( ) [ ] * + ? . \\``)

The empty regex denotes the empty *string* (epsilon), not the empty
language.  ``compile_regex`` produces a minimal DFA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.dfa import DFA
from repro.automata.nfa import EPSILON, NFA
from repro.errors import ParseError
from repro.strings.alphabet import Alphabet

_SPECIAL = set("|()[]*+?.\\")


class Regex:
    """Base class of regex AST nodes; use the parser to build instances."""

    def to_nfa(self, alphabet: Alphabet) -> NFA:
        """Thompson construction."""
        builder = _ThompsonBuilder(alphabet)
        start, accept = builder.build(self)
        return NFA(
            alphabet.symbols,
            range(builder.count),
            [start],
            [accept],
            builder.transitions,
        )

    def to_dfa(self, alphabet: Alphabet) -> DFA:
        """Minimal DFA for this regex over ``alphabet``."""
        return self.to_nfa(alphabet).to_min_dfa()


@dataclass(frozen=True)
class Epsilon(Regex):
    """Matches only the empty string."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class Literal(Regex):
    """Matches a single fixed symbol."""

    symbol: str

    def __str__(self) -> str:
        return "\\" + self.symbol if self.symbol in _SPECIAL else self.symbol


@dataclass(frozen=True)
class AnySymbol(Regex):
    """Matches any single alphabet symbol (the ``.`` wildcard)."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class SymbolClass(Regex):
    """Matches one symbol from ``symbols`` (or its complement if negated)."""

    symbols: frozenset[str]
    negated: bool = False

    def __str__(self) -> str:
        inner = "".join(sorted(self.symbols))
        return f"[^{inner}]" if self.negated else f"[{inner}]"


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def __str__(self) -> str:
        return f"{_wrap(self.left)}{_wrap(self.right)}"


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex

    def __str__(self) -> str:
        return f"{self.left}|{self.right}"


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}*"


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}+"


@dataclass(frozen=True)
class Optional_(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{_wrap(self.inner)}?"


def _wrap(node: Regex) -> str:
    if isinstance(node, (Union, Concat)):
        return f"({node})"
    return str(node)


class _ThompsonBuilder:
    """Allocates NFA fragments for each AST node."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.count = 0
        self.transitions: dict[int, dict[object, set[int]]] = {}

    def _new_state(self) -> int:
        state = self.count
        self.count += 1
        return state

    def _add(self, src: int, label: object, dst: int) -> None:
        self.transitions.setdefault(src, {}).setdefault(label, set()).add(dst)

    def build(self, node: Regex) -> tuple[int, int]:
        if isinstance(node, Epsilon):
            s, t = self._new_state(), self._new_state()
            self._add(s, EPSILON, t)
            return s, t
        if isinstance(node, Literal):
            if node.symbol not in self.alphabet:
                # A literal outside the alphabet matches nothing.
                return self._new_state(), self._new_state()
            s, t = self._new_state(), self._new_state()
            self._add(s, node.symbol, t)
            return s, t
        if isinstance(node, AnySymbol):
            s, t = self._new_state(), self._new_state()
            for a in self.alphabet:
                self._add(s, a, t)
            return s, t
        if isinstance(node, SymbolClass):
            s, t = self._new_state(), self._new_state()
            if node.negated:
                symbols = [a for a in self.alphabet if a not in node.symbols]
            else:
                symbols = [a for a in node.symbols if a in self.alphabet]
            for a in symbols:
                self._add(s, a, t)
            return s, t
        if isinstance(node, Concat):
            ls, lt = self.build(node.left)
            rs, rt = self.build(node.right)
            self._add(lt, EPSILON, rs)
            return ls, rt
        if isinstance(node, Union):
            ls, lt = self.build(node.left)
            rs, rt = self.build(node.right)
            s, t = self._new_state(), self._new_state()
            self._add(s, EPSILON, ls)
            self._add(s, EPSILON, rs)
            self._add(lt, EPSILON, t)
            self._add(rt, EPSILON, t)
            return s, t
        if isinstance(node, Star):
            inner_s, inner_t = self.build(node.inner)
            s, t = self._new_state(), self._new_state()
            self._add(s, EPSILON, inner_s)
            self._add(s, EPSILON, t)
            self._add(inner_t, EPSILON, inner_s)
            self._add(inner_t, EPSILON, t)
            return s, t
        if isinstance(node, Plus):
            return self.build(Concat(node.inner, Star(node.inner)))
        if isinstance(node, Optional_):
            return self.build(Union(node.inner, Epsilon()))
        raise TypeError(f"unknown regex node {node!r}")


class _RegexParser:
    """Recursive-descent parser for the syntax documented in the module."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Regex:
        node = self._union()
        if self.pos != len(self.text):
            raise ParseError("trailing input in regex", self.text, self.pos)
        return node

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _union(self) -> Regex:
        node = self._concat()
        while self._peek() == "|":
            self.pos += 1
            node = Union(node, self._concat())
        return node

    def _concat(self) -> Regex:
        parts: list[Regex] = []
        while self._peek() not in ("", "|", ")"):
            parts.append(self._postfix())
        if not parts:
            return Epsilon()
        node = parts[0]
        for p in parts[1:]:
            node = Concat(node, p)
        return node

    def _postfix(self) -> Regex:
        node = self._atom()
        while True:
            c = self._peek()
            if c == "*":
                node = Star(node)
            elif c == "+":
                node = Plus(node)
            elif c == "?":
                node = Optional_(node)
            else:
                return node
            self.pos += 1

    def _atom(self) -> Regex:
        c = self._peek()
        if c == "(":
            self.pos += 1
            node = self._union()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.text, self.pos)
            self.pos += 1
            return node
        if c == "[":
            return self._symbol_class()
        if c == ".":
            self.pos += 1
            return AnySymbol()
        if c == "\\":
            self.pos += 1
            if self.pos >= len(self.text):
                raise ParseError("dangling escape", self.text, self.pos)
            sym = self.text[self.pos]
            self.pos += 1
            return Literal(sym)
        if c in ("", "|", ")", "*", "+", "?", "]"):
            raise ParseError(f"unexpected {c!r}", self.text, self.pos)
        self.pos += 1
        return Literal(c)

    def _symbol_class(self) -> Regex:
        assert self._peek() == "["
        self.pos += 1
        negated = False
        if self._peek() == "^":
            negated = True
            self.pos += 1
        symbols: set[str] = set()
        while self._peek() not in ("]", ""):
            c = self._peek()
            if c == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    raise ParseError("dangling escape in class", self.text, self.pos)
                c = self.text[self.pos]
            self.pos += 1
            symbols.add(c)
        if self._peek() != "]":
            raise ParseError("unterminated symbol class", self.text, self.pos)
        self.pos += 1
        if not symbols and not negated:
            raise ParseError("empty symbol class", self.text, self.pos)
        return SymbolClass(frozenset(symbols), negated)


def parse_regex(text: str) -> Regex:
    """Parse ``text`` into a :class:`Regex` AST."""
    return _RegexParser(text).parse()


def compile_regex(text: str, alphabet: Alphabet) -> DFA:
    """Parse and compile ``text`` to a minimal DFA over ``alphabet``."""
    return parse_regex(text).to_dfa(alphabet)
