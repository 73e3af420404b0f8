"""The string structures of the paper as first-class objects.

A :class:`StringStructure` bundles

* a *signature policy*: which interpreted predicates and term functions a
  formula may use (the paper's languages are *defined* by their signatures,
  so RC(S) queries must not mention ``el``, RC(S_reg) must not mention
  ``f_a``, and pattern predicates over S must be star-free);
* *concrete semantics*: evaluate an atom on actual strings;
* an *automatic presentation*: each atom as a
  :class:`~repro.automatic.relation.RelationAutomaton`;
* the *restricted quantifier kind* licensed by the structure's collapse
  theorem (PREFIX for S/S_left/S_reg via Theorem 1/6, LENGTH for S_len via
  Proposition 4);
* the class of definable subsets of ``Sigma*`` ("star-free" or "regular",
  Sections 4 and 7).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.automata import compile_regex, is_star_free
from repro.automata.dfa import DFA
from repro.automatic import presentations as pres
from repro.automatic.relation import RelationAutomaton
from repro.engine.cache import register_memo
from repro.errors import SignatureError
from repro.logic.formulas import Atom, Exists, Forall, Formula, QuantKind, RelAtom
from repro.logic.terms import (
    AddFirst,
    AddLast,
    Lcp,
    Param,
    StrConst,
    Term,
    TrimFirst,
    Var,
)
from repro.strings import ops as strops
from repro.strings.alphabet import Alphabet

#: Predicates available in the base structure S (and hence everywhere).
_S_PREDS = frozenset(
    ["eq", "prefix", "sprefix", "ext1", "last", "lex_le", "lex_lt"]
)
#: Graph atoms introduced by term flattening, grouped by the function.
_S_GRAPHS = frozenset(["graph_add_last", "graph_lcp", "graph_const"])
_LEFT_GRAPHS = frozenset(["graph_add_first", "graph_trim_first"])


@dataclass(frozen=True)
class StringStructure:
    """One of the paper's structures over ``Sigma*``.

    Use the factories in :mod:`repro.structures.catalog` (:func:`S`,
    :func:`S_len`, :func:`S_left`, :func:`S_reg`) rather than constructing
    directly.
    """

    name: str
    alphabet: Alphabet
    predicates: frozenset[str]
    term_functions: frozenset[type]
    pattern_scope: str  # "star-free", "regular", or "none"
    restricted_kind: QuantKind
    definable_language_class: str  # "star-free" or "regular"

    # ------------------------------------------------------------ signature

    def allows_predicate(self, pred: str) -> bool:
        return pred in self.predicates

    def check_formula(self, formula: Formula) -> Formula:
        """Raise :class:`SignatureError` if the formula leaves the signature.

        Returns the formula unchanged for chaining.
        """
        for sub in formula.walk():
            if isinstance(sub, Atom):
                if not self.allows_predicate(sub.pred):
                    raise SignatureError(
                        f"predicate {sub.pred!r} is not in the signature of {self.name}"
                    )
                if sub.pred in ("matches", "psuffix") and not isinstance(
                    sub.param, Param
                ):
                    # A template's pattern slot is checked per binding.
                    self._check_pattern(sub.param or "")
                for t in sub.args:
                    self._check_term(t)
            elif isinstance(sub, RelAtom):
                for t in sub.args:
                    self._check_term(t)
        return formula

    def _check_term(self, term: Term) -> None:
        if isinstance(term, (Var, StrConst, Param)):
            return
        if type(term) not in self.term_functions:
            raise SignatureError(
                f"term function {type(term).__name__} is not available in {self.name}"
            )
        for child in _term_children(term):
            self._check_term(child)

    def _check_pattern(self, regex: str) -> None:
        if self.pattern_scope == "regular":
            return
        if self.pattern_scope == "none":
            raise SignatureError(f"{self.name} has no pattern predicates")
        if not _pattern_is_star_free(self.alphabet.symbols, regex):
            raise SignatureError(
                f"pattern {regex!r} is not star-free, so it is outside {self.name} "
                "(use S_reg or S_len for general regular patterns)"
            )

    # ------------------------------------------------------------ semantics

    def eval_atom(self, atom: Atom, assignment: dict[str, str]) -> bool:
        """Concrete truth value of an interpreted atom under an assignment."""
        values = [t.evaluate(assignment) for t in atom.args]
        param = atom.param
        if isinstance(param, Param):
            param = param.evaluate(assignment)
        return self._eval_pred(atom.pred, values, param)

    def _eval_pred(self, pred: str, values: list[str], param: Optional[str]) -> bool:
        if pred == "eq":
            return values[0] == values[1]
        if pred == "prefix":
            return strops.is_prefix(values[0], values[1])
        if pred == "sprefix":
            return strops.is_strict_prefix(values[0], values[1])
        if pred == "ext1":
            return strops.extends_by_one(values[0], values[1])
        if pred == "last":
            return strops.last_symbol_is(values[0], param or "")
        if pred == "el":
            return len(values[0]) == len(values[1])
        if pred == "len_le":
            return len(values[0]) <= len(values[1])
        if pred == "len_lt":
            return len(values[0]) < len(values[1])
        if pred == "lex_le":
            return strops.lex_le(values[0], values[1], self.alphabet)
        if pred == "lex_lt":
            return strops.lex_lt(values[0], values[1], self.alphabet)
        if pred == "matches":
            return self.pattern_dfa(param or "").accepts(values[0])
        if pred == "psuffix":
            x, y = values
            return y.startswith(x) and self.pattern_dfa(param or "").accepts(y[len(x):])
        if pred == "graph_add_last":
            return values[1] == values[0] + (param or "")
        if pred == "graph_add_first":
            return values[1] == (param or "") + values[0]
        if pred == "graph_trim_first":
            return values[1] == strops.trim_first(values[0], param or "")
        if pred == "graph_insert_at":
            x, p, y = values
            if x.startswith(p):
                return y == p + (param or "") + x[len(p):]
            return y == ""
        if pred == "graph_lcp":
            return values[2] == strops.lcp(values[0], values[1])
        if pred == "graph_const":
            return values[0] == (param or "")
        raise SignatureError(f"unknown predicate {pred!r}")

    def pattern_dfa(self, regex: str) -> DFA:
        """Compiled (minimal) DFA of a pattern parameter, cached."""
        return _pattern_dfa(self.alphabet.symbols, regex)

    # --------------------------------------------------------- presentation

    def atom_relation(self, atom: Atom) -> RelationAutomaton:
        """The convolution automaton of an interpreted atom.

        Requires all atom arguments to be plain variables (run
        :func:`repro.logic.flatten_terms` first); tracks follow argument
        order, with repeated variables *not* collapsed here (the engine
        handles that).
        """
        pred, param = atom.pred, atom.param
        a = self.alphabet
        if pred == "eq":
            return pres.cached(a, "equality", None)
        if pred == "prefix":
            return pres.cached(a, "prefix", False)
        if pred == "sprefix":
            return pres.cached(a, "prefix", True)
        if pred == "ext1":
            return pres.cached(a, "extends_by_one", None)
        if pred == "last":
            return pres.cached(a, "last_symbol", param)
        if pred == "el":
            return pres.cached(a, "equal_length", None)
        if pred == "len_le":
            return pres.cached(a, "length_le", False)
        if pred == "len_lt":
            return pres.cached(a, "length_le", True)
        if pred == "lex_le":
            return pres.cached(a, "lex_le", False)
        if pred == "lex_lt":
            return pres.cached(a, "lex_le", True)
        if pred == "matches":
            return pres.member(a, self.pattern_dfa(param or ""))
        if pred == "psuffix":
            return pres.pattern_suffix(a, self.pattern_dfa(param or ""))
        if pred == "graph_add_last":
            return pres.cached(a, "add_last_graph", param)
        if pred == "graph_add_first":
            return pres.cached(a, "add_first_graph", param)
        if pred == "graph_trim_first":
            return pres.cached(a, "trim_first_graph", param)
        if pred == "graph_insert_at":
            return pres.cached(a, "insert_at_graph", param)
        if pred == "graph_lcp":
            return pres.cached(a, "lcp_graph", None)
        if pred == "graph_const":
            return pres.cached(a, "constant", param)
        raise SignatureError(f"unknown predicate {pred!r}")

    def __str__(self) -> str:
        return f"{self.name} over {self.alphabet}"


def _term_children(term: Term) -> tuple[Term, ...]:
    if isinstance(term, (AddLast, AddFirst, TrimFirst)):
        return (term.inner,)
    if isinstance(term, Lcp):
        return (term.left, term.right)
    return ()


#: Compiled pattern DFAs and their star-freeness verdicts are cached per
#: (alphabet, regex).  Ad hoc query text brings new patterns without end,
#: so both caches are capped LRUs; ``functools.lru_cache`` keeps them
#: consistent when worker threads evict concurrently.
_PATTERN_CACHE_CAP = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_CAP)
def _pattern_dfa(alphabet_symbols: tuple[str, ...], regex: str) -> DFA:
    return compile_regex(regex, Alphabet(alphabet_symbols))


@functools.lru_cache(maxsize=_PATTERN_CACHE_CAP)
def _pattern_is_star_free(alphabet_symbols: tuple[str, ...], regex: str) -> bool:
    return is_star_free(_pattern_dfa(alphabet_symbols, regex))


register_memo("structures.base._pattern_dfa", _pattern_dfa)
register_memo("structures.base._pattern_is_star_free", _pattern_is_star_free)
