"""Parser for a concrete textual query syntax.

Grammar (EBNF; whitespace-insensitive)::

    formula   := iff
    iff       := implies { "<->" implies }
    implies   := or [ "->" implies ]                      (right associative)
    or        := and { "|" and }
    and       := unary { "&" unary }
    unary     := "!" unary | quantifier | primary
    quantifier:= ("exists" | "forall") [kind] var { "," var } ":" unary
    kind      := "adom" | "prefix" | "len"
    primary   := "(" formula ")" | "true" | "false" | atom | comparison
    atom      := NAME "(" [args] ")"        -- predicate or schema relation
    comparison:= term ( "=" | "!=" | "<<=" | "<<" ) term
    term      := NAME | "eps" | STRING | func "(" ... ")"
    func      := add_last | add_first | trim_first | lcp

Interpreted predicates (see :mod:`repro.logic.formulas`): ``eq, prefix,
sprefix, ext1, el, len_le, len_lt, lex_le, lex_lt`` take term arguments;
``last(t, 'a')`` takes a symbol parameter; ``matches(t, "re")`` and
``psuffix(t1, t2, "re")`` take a regex parameter.  Any other
``Name(args)`` is a database relation atom.

Examples::

    exists x: R(x) & last(x, '0') & exists y: (ext1(y, x) & last(y, '1'))
    forall adom x: S(x) -> matches(x, "0(0|1)*")
    exists prefix y: y << x & el(y, z)

A text nested deeper than :data:`MAX_NESTING` levels, or whose formula
has more than :data:`MAX_FORMULA_NODES` nodes once each ``<->`` is
written out, is a :class:`~repro.errors.ParseError`: every pass after
the parser walks the formula recursively, and ``<->`` copies both of
its sides, so a short text could otherwise exhaust the stack or
expand to exponentially many nodes.
"""

from __future__ import annotations

import re

from repro.errors import ArityError, ParseError
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    PRED_ARITIES,
    QuantKind,
    RelAtom,
    TrueF,
    check_atom,
)
from repro.logic.terms import (
    AddFirst,
    AddLast,
    EPS,
    InsertAt,
    Lcp,
    StrConst,
    Term,
    TrimFirst,
    Var,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<squote>'(?:[^'\\]|\\.)*')
  | (?P<dquote>"(?:[^"\\]|\\.)*")
  | (?P<op><->|->|<<=|<<|!=|=|\(|\)|,|:|&|\||!)
    """,
    re.VERBOSE,
)

_QUANT_KINDS = {"adom": QuantKind.ADOM, "prefix": QuantKind.PREFIX, "len": QuantKind.LENGTH}

_TERM_FUNCS = {"add_last", "add_first", "trim_first", "lcp", "insert_at"}

_PARAM_PREDS = {"last", "matches", "psuffix"}

#: Deepest nesting of parentheses, negations, quantifiers, implications
#: and terms a text may have.
MAX_NESTING = 100

#: Most nodes a formula may have once each ``<->`` is written out as
#: ``(!f | g) & (!g | f)``.
MAX_FORMULA_NODES = 4096


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.iffs = 0

    # ------------------------------------------------------------- helpers

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", self.text, tok.pos)
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.peek().pos)

    def descend(self) -> None:
        """Enter one more level of nesting (the caller leaves it)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    # ------------------------------------------------------------- formula

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek().kind != "eof":
            raise self.error(f"trailing input {self.peek().text!r}")
        if self.iffs and _tree_size(f, {}) > MAX_FORMULA_NODES:
            raise ParseError(
                f"formula has more than {MAX_FORMULA_NODES} nodes once "
                "each '<->' is written out", self.text, 0,
            )
        return f

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek().text == "<->":
            self.advance()
            self.iffs += 1
            g = self.implies()
            f = And((Or((Not(f), g)), Or((Not(g), f))))
        return f

    def implies(self) -> Formula:
        parts = [self.or_()]
        while self.peek().text == "->":
            self.advance()
            parts.append(self.or_())
        # Right associative: a -> b -> c is a -> (b -> c), one level of
        # nesting per arrow.
        if self.depth + len(parts) - 1 > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        f = parts.pop()
        while parts:
            f = Or((Not(parts.pop()), f))
        return f

    def or_(self) -> Formula:
        parts = [self.and_()]
        while self.peek().text == "|":
            self.advance()
            parts.append(self.and_())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&":
            self.advance()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        self.descend()
        try:
            tok = self.peek()
            if tok.text == "!":
                self.advance()
                return Not(self.unary())
            if tok.kind == "name" and tok.text in ("exists", "forall"):
                return self.quantifier()
            return self.primary()
        finally:
            self.depth -= 1

    def quantifier(self) -> Formula:
        head = self.advance().text
        kind = QuantKind.NATURAL
        if self.peek().kind == "name" and self.peek().text in _QUANT_KINDS:
            # Lookahead: 'exists prefix x: ...' vs a variable named 'prefix'
            # used as 'exists prefix: ...'. A kind word must be followed by
            # another name token.
            nxt = self.tokens[self.idx + 1]
            if nxt.kind == "name":
                kind = _QUANT_KINDS[self.advance().text]
        names = [self._var_name()]
        while self.peek().text == ",":
            self.advance()
            names.append(self._var_name())
        self.expect(":")
        # Quantifier scope extends as far right as possible (standard
        # logic convention); parenthesize to limit it.
        body = self.iff()
        ctor = Exists if head == "exists" else Forall
        for name in reversed(names):
            body = ctor(name, body, kind)
        return body

    def _var_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.error(f"expected variable name, found {tok.text!r}")
        return self.advance().text

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            # Could be a parenthesised formula OR a parenthesised term used
            # in a comparison. Formulas are far more common; try formula
            # first, fall back to comparison.
            save = self.idx
            try:
                self.advance()
                f = self.iff()
                self.expect(")")
                return f
            except ParseError:
                self.idx = save
                return self.comparison()
        if tok.kind == "name":
            if tok.text == "true":
                self.advance()
                return TrueF()
            if tok.text == "false":
                self.advance()
                return FalseF()
            nxt = self.tokens[self.idx + 1]
            if nxt.text == "(" and tok.text not in _TERM_FUNCS and tok.text != "eps":
                return self.call_atom()
        return self.comparison()

    def call_atom(self) -> Formula:
        name = self.advance().text
        self.expect("(")
        args: list[Term] = []
        param: str | None = None
        if self.peek().text != ")":
            while True:
                if self.peek().kind in ("squote", "dquote") and name in _PARAM_PREDS:
                    # Parameter position (last argument of last/matches/psuffix).
                    param_tok = self.advance()
                    param = _unquote(param_tok.text)
                    break
                args.append(self.term())
                if self.peek().text == ",":
                    self.advance()
                    continue
                break
        self.expect(")")
        if name in PRED_ARITIES:
            try:
                return check_atom(Atom(name, tuple(args), param))
            except ArityError as exc:
                raise ParseError(str(exc), self.text, self.peek().pos) from exc
        if param is not None:
            raise self.error(f"relation {name!r} cannot take a quoted parameter")
        return RelAtom(name, tuple(args))

    def comparison(self) -> Formula:
        left = self.term()
        op = self.peek().text
        if op == "=":
            self.advance()
            return Atom("eq", (left, self.term()))
        if op == "!=":
            self.advance()
            return Not(Atom("eq", (left, self.term())))
        if op == "<<=":
            self.advance()
            return Atom("prefix", (left, self.term()))
        if op == "<<":
            self.advance()
            return Atom("sprefix", (left, self.term()))
        raise self.error(f"expected comparison operator, found {op!r}")

    # ---------------------------------------------------------------- term

    def term(self) -> Term:
        self.descend()
        try:
            tok = self.peek()
            if tok.text == "(":
                self.advance()
                t = self.term()
                self.expect(")")
                return t
            if tok.kind in ("squote", "dquote"):
                self.advance()
                return StrConst(_unquote(tok.text))
            if tok.kind != "name":
                raise self.error(f"expected term, found {tok.text!r}")
            if tok.text == "eps":
                self.advance()
                return EPS
            if tok.text in _TERM_FUNCS:
                return self._func_term()
            self.advance()
            return Var(tok.text)
        finally:
            self.depth -= 1

    def _func_term(self) -> Term:
        name = self.advance().text
        self.expect("(")
        first = self.term()
        self.expect(",")
        if name == "lcp":
            second = self.term()
            self.expect(")")
            return Lcp(first, second)
        if name == "insert_at":
            position = self.term()
            self.expect(",")
            sym_tok = self.peek()
            if sym_tok.kind not in ("squote", "dquote"):
                raise self.error("insert_at expects a quoted symbol as third argument")
            self.advance()
            symbol = _unquote(sym_tok.text)
            if len(symbol) != 1:
                raise self.error(f"insert_at expects a single symbol, got {symbol!r}")
            self.expect(")")
            return InsertAt(first, position, symbol)
        sym_tok = self.peek()
        if sym_tok.kind not in ("squote", "dquote"):
            raise self.error(f"{name} expects a quoted symbol as second argument")
        self.advance()
        symbol = _unquote(sym_tok.text)
        if len(symbol) != 1:
            raise self.error(f"{name} expects a single symbol, got {symbol!r}")
        self.expect(")")
        ctor = {"add_last": AddLast, "add_first": AddFirst, "trim_first": TrimFirst}[name]
        return ctor(first, symbol)


def _tree_size(f: Formula, memo: dict) -> int:
    """Nodes of ``f`` as a tree, shared subformulas counted per use."""
    size = memo.get(id(f))
    if size is None:
        size = memo[id(f)] = 1 + sum(_tree_size(c, memo) for c in f.children())
    return size


def parse_formula(text: str) -> Formula:
    """Parse the textual query syntax into a :class:`Formula`."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        # Within MAX_NESTING only when the caller's stack is already deep.
        raise ParseError("formula nested too deeply to parse", text, 0) from None
