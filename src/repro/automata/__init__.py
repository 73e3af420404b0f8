"""Finite-automata substrate.

Deterministic and nondeterministic finite automata over arbitrary hashable
symbol alphabets (plain characters for ordinary languages, *column tuples*
for the convolution automata of :mod:`repro.automatic`), regular-expression
compilation, and the language analyses the paper relies on:

* emptiness / finiteness / counting / enumeration of languages (used by the
  safety engine: a query is safe on ``D`` iff its output language is finite);
* Schuetzenberger's aperiodicity test for **star-freeness** (Section 4 of the
  paper: subsets of ``Sigma*`` definable over S are exactly the star-free
  languages, and over S_len / S_reg exactly the regular languages).

There is one automaton representation: a :class:`DFA` is built from a
dict transition table but stored as flat integer arrays (interned
symbols, ``array('i')`` delta, acceptance bitmap), and every operation
(minimization, complement, the lazy products of
:mod:`repro.automata.kernel`, the bitmask subset construction of
:meth:`NFA.determinize`) reads and builds those arrays directly.
"""

from repro.automata.dfa import DFA, SymbolTable
from repro.automata.kernel import ProductPipeline
from repro.automata.nfa import NFA, EPSILON
from repro.automata.ops import (
    difference,
    equivalent,
    intersection,
    symmetric_difference_empty,
    union,
)
from repro.automata.builders import (
    contains_factor_dfa,
    dfa_all_strings,
    dfa_empty_language,
    dfa_from_finite_language,
    dfa_length_at_most,
    dfa_length_exactly,
    dfa_single_word,
    ends_with_dfa,
    starts_with_dfa,
)
from repro.automata.regex import Regex, compile_regex, parse_regex
from repro.automata.aperiodic import is_aperiodic, is_star_free, transition_monoid

__all__ = [
    "DFA",
    "EPSILON",
    "NFA",
    "ProductPipeline",
    "Regex",
    "SymbolTable",
    "compile_regex",
    "contains_factor_dfa",
    "dfa_all_strings",
    "dfa_empty_language",
    "dfa_from_finite_language",
    "dfa_length_at_most",
    "dfa_length_exactly",
    "dfa_single_word",
    "difference",
    "ends_with_dfa",
    "equivalent",
    "intersection",
    "is_aperiodic",
    "is_star_free",
    "parse_regex",
    "starts_with_dfa",
    "symmetric_difference_empty",
    "transition_monoid",
    "union",
]
