"""SQL ``LIKE`` patterns.

``LIKE`` patterns use ``%`` (any string), ``_`` (any single symbol) and
literal symbols, with an optional escape character.  Every LIKE language
is **star-free** — which is why ``LIKE`` fits inside RC(S) (Section 4 of
the paper: S-definable subsets of ``Sigma*`` are exactly the star-free
languages).  The test suite verifies star-freeness of compiled patterns
through the Schuetzenberger checker.
"""

from __future__ import annotations

import functools

from repro.automata.dfa import DFA
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Literal,
    Regex,
    Star,
)
from repro.engine.cache import register_memo
from repro.errors import ParseError
from repro.logic.dsl import matches
from repro.logic.formulas import Atom
from repro.logic.terms import TermLike
from repro.strings.alphabet import Alphabet

#: Characters that must be escaped when a LIKE pattern is re-rendered as a
#: library regex.
_REGEX_SPECIAL = set("|()[]*+?.\\")


def parse_like(pattern: str, escape: str | None = None) -> Regex:
    """Parse a LIKE pattern into a regex AST.

    ``escape`` is SQL's optional escape character (``LIKE '50\\%' ESCAPE
    '\\'`` matches the literal string ``50%``).
    """
    parts: list[Regex] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= len(pattern):
                raise ParseError("dangling escape in LIKE pattern", pattern, i)
            parts.append(Literal(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            parts.append(Star(AnySymbol()))
        elif ch == "_":
            parts.append(AnySymbol())
        else:
            parts.append(Literal(ch))
        i += 1
    if not parts:
        return Epsilon()
    node = parts[0]
    for p in parts[1:]:
        node = Concat(node, p)
    return node


def like_to_regex_text(pattern: str, escape: str | None = None) -> str:
    """Render a LIKE pattern as library regex text (for ``matches`` atoms)."""
    return str(parse_like(pattern, escape))


@functools.lru_cache(maxsize=256)
def compile_like(pattern: str, alphabet: Alphabet, escape: str | None = None) -> DFA:
    """Minimal DFA of a LIKE pattern over ``alphabet``, cached per pattern
    so a LIKE filter applied row by row never recompiles."""
    return parse_like(pattern, escape).to_dfa(alphabet)


register_memo("sql.like.compile_like", compile_like)


def like_matches(value: str, pattern: str, alphabet: Alphabet, escape: str | None = None) -> bool:
    """Direct LIKE matching on the cached automaton."""
    return compile_like(pattern, alphabet, escape).accepts(value)


def like_atom(term: TermLike, pattern: str, escape: str | None = None) -> Atom:
    """The RC(S) atom expressing ``term LIKE pattern``.

    Because LIKE languages are star-free, the resulting ``matches`` atom is
    accepted by the S signature — the paper's point that LIKE needs no more
    than RC(S).
    """
    return matches(term, like_to_regex_text(pattern, escape))
