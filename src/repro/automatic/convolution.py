"""Convolution of string tuples into words over a column alphabet.

The convolution of a tuple ``(s_1, ..., s_k)`` is the word whose ``j``-th
letter is the column ``(s_1[j], ..., s_k[j])``, where exhausted strings
contribute the padding symbol :data:`PAD`.  The word's length is the length
of the longest component; the all-:data:`PAD` column never occurs.

Valid convolutions obey the *padding discipline*: once a track shows
:data:`PAD` it shows :data:`PAD` forever.  :func:`valid_pad_dfa` recognizes
exactly the valid convolution words of a given arity; every
:class:`~repro.automatic.relation.RelationAutomaton` keeps its language
inside that set.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from repro.automata.dfa import DFA
from repro.errors import ArityError
from repro.strings.alphabet import Alphabet


class _Pad:
    """Singleton padding symbol (distinct from every alphabet character)."""

    _instance = None

    def __new__(cls) -> "_Pad":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#"  # compact, sorts before '0'..'9' and letters in repr order

    def __reduce__(self):
        return (_Pad, ())


#: The padding symbol used in convolution columns.
PAD = _Pad()

Column = tuple  # tuple of symbols and/or PAD


def columns(alphabet: Alphabet, arity: int) -> list[Column]:
    """All valid columns of the given arity (every combination except all-PAD)."""
    if arity < 0:
        raise ArityError("arity must be non-negative")
    pool = tuple(alphabet.symbols) + (PAD,)
    return [c for c in itertools.product(pool, repeat=arity) if any(x is not PAD for x in c)]


def convolve(strings: Sequence[str]) -> tuple[Column, ...]:
    """Convolution word of a tuple of strings."""
    if not strings:
        return ()
    n = max(len(s) for s in strings)
    return tuple(
        tuple(s[j] if j < len(s) else PAD for s in strings) for j in range(n)
    )


def deconvolve(word: Sequence[Column], arity: int) -> tuple[str, ...]:
    """Inverse of :func:`convolve`; raises ``ValueError`` on invalid padding."""
    parts: list[list[str]] = [[] for _ in range(arity)]
    ended = [False] * arity
    for col in word:
        if len(col) != arity:
            raise ArityError(f"column {col!r} has arity {len(col)}, expected {arity}")
        if all(x is PAD for x in col):
            raise ValueError("all-PAD column in convolution word")
        for i, x in enumerate(col):
            if x is PAD:
                ended[i] = True
            else:
                if ended[i]:
                    raise ValueError(f"track {i} resumes after padding")
                parts[i].append(x)
    return tuple("".join(p) for p in parts)


@functools.lru_cache(maxsize=64)
def valid_pad_dfa(alphabet: Alphabet, arity: int) -> DFA:
    """DFA over the column alphabet accepting exactly the valid convolutions.

    States are frozensets of already-padded track indices; the all-PAD
    column is simply absent from the alphabet.  Cached per
    ``(alphabet, arity)``: DFAs are immutable and every relation
    normalization intersects with this automaton.
    """
    cols = columns(alphabet, arity)
    all_tracks = frozenset(range(arity))
    states = [frozenset(s) for r in range(arity + 1) for s in itertools.combinations(range(arity), r)]
    transitions: dict[object, dict[object, object]] = {}
    for state in states:
        delta = {}
        for col in cols:
            padded = frozenset(i for i, x in enumerate(col) if x is PAD)
            if state <= padded and padded != all_tracks:
                delta[col] = padded
        if delta:
            transitions[state] = delta
    return DFA(cols, states, frozenset(), states, transitions)
