"""SQL3 ``SIMILAR TO`` patterns (the standard the paper cites as [21]).

``SIMILAR`` extends LIKE with full regular-expression power: ``|``,
``*``, ``+``, ``?``, grouping, character classes — "essentially grep"
(Section 4).  SIMILAR languages are regular but need not be star-free,
so SIMILAR lives in RC(S_reg)/RC(S_len) but not in RC(S): the library
enforces exactly that through the structures' pattern scopes.

The translation to the library's regex syntax maps ``%`` to ``.*`` and
``_`` to ``.``; everything else is shared syntax.
"""

from __future__ import annotations

import functools

from repro.automata.dfa import DFA
from repro.automata.regex import compile_regex, parse_regex
from repro.errors import ParseError
from repro.logic.dsl import matches
from repro.logic.formulas import Atom
from repro.logic.terms import TermLike
from repro.strings.alphabet import Alphabet


def similar_to_regex_text(pattern: str) -> str:
    """Translate a SIMILAR TO pattern into library regex text."""
    out: list[str] = []
    i = 0
    in_class = False
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= len(pattern):
                raise ParseError("dangling escape in SIMILAR pattern", pattern, i)
            out.append("\\" + pattern[i + 1])
            i += 2
            continue
        if in_class:
            out.append(ch)
            if ch == "]":
                in_class = False
            i += 1
            continue
        if ch == "[":
            in_class = True
            out.append(ch)
        elif ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(ch)
        i += 1
    if in_class:
        raise ParseError("unterminated class in SIMILAR pattern", pattern, len(pattern))
    text = "".join(out)
    parse_regex(text)  # validate eagerly for a better error position
    return text


@functools.lru_cache(maxsize=256)
def compile_similar(pattern: str, alphabet: Alphabet) -> DFA:
    """Minimal DFA of a SIMILAR TO pattern, cached per pattern so
    row-at-a-time predicate evaluation never recompiles."""
    return compile_regex(similar_to_regex_text(pattern), alphabet)


def similar_matches(value: str, pattern: str, alphabet: Alphabet) -> bool:
    """Direct SIMILAR TO matching on the cached automaton."""
    return compile_similar(pattern, alphabet).accepts(value)


def similar_atom(term: TermLike, pattern: str) -> Atom:
    """The RC(S_reg) atom expressing ``term SIMILAR TO pattern``."""
    return matches(term, similar_to_regex_text(pattern))
