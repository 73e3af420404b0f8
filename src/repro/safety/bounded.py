"""Range-bounded variable analysis: the domain-independence certificate
behind the RANF translation (:mod:`repro.algebra.ranf`).

The algebra engine's old gate demanded that every free variable be
*anchored* — a bare argument of a positive relation atom, hence taking
active-domain values outright.  That rejects plenty of formulas whose
answers are nonetheless finite, e.g. ``eq(x, y) & R(y)`` (``x`` copies an
anchored value) or ``matches(x, "aa|ab")`` (``x`` ranges over a finite
pattern language).  Following Raszyk et al. (arXiv 2210.09964), the RANF
translation only needs a *semantic bound*: a certificate that every
satisfying value of a variable lies inside the data-independent ball
``gamma_0`` — the slack-0 restriction bound of
:func:`repro.algebra.compile.bound_plan` (prefix closure of
``adom ∪ {ε} ∪ constants``, plus the length ball for S_len).

:func:`range_bounded_variables` computes the certified variable set by a
fixpoint over directional implications read off the atoms:

* a bare variable argument of a positive relation atom is bounded
  (its values are in ``adom``);
* ``eq(a, b)`` bounds each side from the other; a constant side bounds
  the variable side outright;
* ``prefix(a, b)`` / ``sprefix(a, b)`` / ``ext1(a, b)`` /
  ``psuffix(a, b)`` / ``graph_add_last(a, b)`` bound ``a`` from ``b``
  (``a`` is a prefix of ``b``, and ``gamma_0`` is prefix-closed);
* on length-ball structures (S_len), ``el`` / ``len_le`` / ``len_lt``
  bound the shorter side from the longer (``gamma_0`` there is closed
  under taking shorter strings);
* ``matches(x, p)`` with a *finite* pattern language of at most
  :data:`MAX_PATTERN_WORDS` words bounds ``x`` unconditionally — the
  words themselves are reported as ``extra_constants`` so the caller can
  fold them into the bound;
* conjunction joins certificates and runs the implication fixpoint,
  disjunction intersects, negation certifies nothing, quantifiers drop
  their own variable (``forall adom`` is vacuously true on an empty
  domain, so it certifies nothing for its body's other variables).

Soundness invariant (slack-independent: none of the rules mention
quantifier domains): if an assignment ``ν`` satisfies the formula under
the restricted-quantifier semantics and ``v`` is in the certified set,
then ``ν[v]`` lies in ``gamma_0`` built over the formula's constants
plus ``extra_constants``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QuantKind,
    RelAtom,
)
from repro.logic.terms import Param, StrConst, Var
from repro.logic.transform import to_nnf

#: Enumerating a finite ``matches`` pattern language stops paying off past
#: this many words; larger (or infinite) languages leave the variable
#: uncertified and the formula falls back to the automata engine.
MAX_PATTERN_WORDS = 64

#: ``pred(a, b)`` implying "``a`` is a prefix of ``b``" — valid sources of
#: a prefix-closure bound in every structure.
_PREFIX_PREDS = frozenset(["prefix", "sprefix", "ext1", "psuffix", "graph_add_last"])

#: ``pred(a, b)`` implying ``|a| <= |b|`` — a bound only on structures
#: whose restriction ball is length-closed (S_len's down-ball).
_LENGTH_PREDS = frozenset(["el", "len_le", "len_lt"])


@dataclass(frozen=True)
class BoundedReport:
    """The certificate: which variables are range-bounded, and which
    pattern-language words must join the bound's constant set."""

    bounded: frozenset[str]
    extra_constants: frozenset[str]

    def __or__(self, other: "BoundedReport") -> "BoundedReport":
        return BoundedReport(
            self.bounded | other.bounded,
            self.extra_constants | other.extra_constants,
        )


_EMPTY = BoundedReport(frozenset(), frozenset())


def range_bounded_variables(formula: Formula, structure) -> BoundedReport:
    """Certified range-bounded free variables of ``formula`` over
    ``structure`` (see the module docstring for the soundness claim)."""
    return _rb(to_nnf(formula), structure)


def _finite_pattern_words(structure, param) -> tuple[str, ...] | None:
    """The full (small, finite) language of a pattern, or ``None`` — also
    for a template's pattern slot, whose language is not known yet."""
    if isinstance(param, Param):
        return None
    try:
        dfa = structure.pattern_dfa(param or "")
    except Exception:
        return None
    if not dfa.is_finite_language():
        return None
    count = dfa.count_words()
    if count is None or count > MAX_PATTERN_WORDS:
        return None
    return tuple(dfa.iter_strings())


def _atom_facts(atom: Atom, structure):
    """(unconditionally bounded vars, implications, extra constants) of a
    positive interpreted atom.  Implications are ``(src, dst)`` pairs:
    once ``src`` is known bounded, ``dst`` is too."""
    bounded: set[str] = set()
    implications: list[tuple[str, str]] = []
    extras: set[str] = set()
    args = atom.args

    def var(i) -> str | None:
        return args[i].name if isinstance(args[i], Var) else None

    def const(i):
        # A template slot is a constant too: the gamma bound's base holds
        # its run-time value (repro.algebra.compile.adom_plan).
        if isinstance(args[i], Param):
            return args[i]
        return args[i].value if isinstance(args[i], StrConst) else None

    if atom.pred == "eq" and len(args) == 2:
        a, b = var(0), var(1)
        if a and b:
            implications += [(a, b), (b, a)]
        elif a and const(1) is not None:
            bounded.add(a)
            extras.add(const(1))
        elif b and const(0) is not None:
            bounded.add(b)
            extras.add(const(0))
    elif atom.pred in _PREFIX_PREDS and len(args) == 2:
        a, b = var(0), var(1)
        if a and b:
            implications.append((b, a))
        elif a and const(1) is not None:
            bounded.add(a)
            extras.add(const(1))
    elif atom.pred in _LENGTH_PREDS and len(args) == 2:
        if structure.restricted_kind is QuantKind.LENGTH:
            a, b = var(0), var(1)
            if a and b:
                implications.append((b, a))
                if atom.pred == "el":
                    implications.append((a, b))
            elif a and const(1) is not None:
                bounded.add(a)
                extras.add(const(1))
            elif atom.pred == "el" and (v := var(1)) and const(0) is not None:
                bounded.add(v)
                extras.add(const(0))
    elif atom.pred == "matches" and len(args) == 1 and (x := var(0)):
        words = _finite_pattern_words(structure, atom.param or "")
        if words is not None:
            bounded.add(x)
            extras.update(words)
    elif atom.pred == "graph_const" and len(args) == 1 and (x := var(0)):
        bounded.add(x)
        extras.add(atom.param or "")
    return bounded, implications, extras


def _rb(nnf: Formula, structure) -> BoundedReport:
    if isinstance(nnf, RelAtom):
        return BoundedReport(
            frozenset(t.name for t in nnf.args if isinstance(t, Var)),
            frozenset(),
        )
    if isinstance(nnf, Atom):
        bounded, _implications, extras = _atom_facts(nnf, structure)
        return BoundedReport(frozenset(bounded), frozenset(extras))
    if isinstance(nnf, And):
        bounded: set[str] = set()
        implications: list[tuple[str, str]] = []
        extras: set[str] = set()
        for part in nnf.parts:
            if isinstance(part, Atom):
                b, imp, ex = _atom_facts(part, structure)
                bounded |= b
                implications += imp
                extras |= ex
            else:
                report = _rb(part, structure)
                bounded |= report.bounded
                extras |= report.extra_constants
        changed = True
        while changed:
            changed = False
            for src, dst in implications:
                if src in bounded and dst not in bounded:
                    bounded.add(dst)
                    changed = True
        return BoundedReport(frozenset(bounded), frozenset(extras))
    if isinstance(nnf, Or):
        parts = [_rb(p, structure) for p in nnf.parts]
        bounded = parts[0].bounded
        extras = frozenset()
        for p in parts:
            bounded &= p.bounded
            extras |= p.extra_constants
        return BoundedReport(bounded, extras)
    if isinstance(nnf, Exists):
        report = _rb(nnf.body, structure)
        return BoundedReport(report.bounded - {nnf.var}, report.extra_constants)
    if isinstance(nnf, Forall):
        # An ADOM domain can be empty, making the quantifier vacuously
        # true without the body ever holding — its certificate transfers
        # nothing.  PREFIX / LENGTH / NATURAL domains always contain ε.
        if nnf.kind is QuantKind.ADOM:
            return _EMPTY
        report = _rb(nnf.body, structure)
        return BoundedReport(report.bounded - {nnf.var}, report.extra_constants)
    return _EMPTY
