"""The direct evaluation engine: restricted-quantifier semantics.

Evaluates a formula by structural recursion with explicit enumeration of
the restricted quantifier domains (ADOM / PREFIX / LENGTH).  This is the
evaluator whose data complexity matches the paper's claims:

* for a fixed collapsed RC(S) / RC(S_left) / RC(S_reg) query the PREFIX
  domain has polynomially many strings, so evaluation is polynomial in the
  database (Corollaries 2 and 7's operational content);
* for RC(S_len) the LENGTH domain has exponentially many strings in the
  longest database string — and Theorem 2 / Proposition 5 say this cannot
  be avoided in general.

NATURAL quantifiers are rejected: collapse the formula first
(:func:`repro.eval.collapse.collapse`) or use the automata engine, which
handles natural quantification exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from repro.database.instance import Database
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError
from repro.eval.domains import prefix_domain
from repro.logic.transform import to_nnf
from repro.eval.result import QueryResult
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    QuantKind,
    RelAtom,
    TrueF,
)
from repro.structures.base import StringStructure


def _anchored_variables(nnf: Formula) -> frozenset[str]:
    """Variables guaranteed to take active-domain values (polarity-aware).

    The classic range-restriction analysis on an NNF formula: a variable is
    anchored by a positive relation atom; conjunction anchors the union,
    disjunction only the intersection; negated atoms anchor nothing.
    """
    if isinstance(nnf, RelAtom):
        return nnf.free_variables()
    if isinstance(nnf, And):
        out: frozenset[str] = frozenset()
        for p in nnf.parts:
            out |= _anchored_variables(p)
        return out
    if isinstance(nnf, Or):
        parts = [_anchored_variables(p) for p in nnf.parts]
        out = parts[0]
        for p in parts[1:]:
            out &= p
        return out
    if isinstance(nnf, (Exists, Forall)):
        return _anchored_variables(nnf.body) - {nnf.var}
    return frozenset()


class DirectEngine:
    """Enumerative evaluator for restricted-quantifier formulas.

    Shares its domain definitions (and the ``slack`` parameter) with the
    automata engine, so the two agree exactly on restricted formulas; they
    are cross-checked in the test suite.
    """

    def __init__(self, structure: StringStructure, database: Database, slack: int = 0):
        if structure.alphabet != database.alphabet:
            raise EvaluationError("structure and database alphabets differ")
        self.structure = structure
        self.database = database
        self.slack = slack
        # Hot-path caches: quantifier domains are enumerated inside nested
        # loops, so the adom-derived parts are computed once.
        self._adom_sorted = sorted(database.adom)
        self._adom_prefix_part: list[str] | None = None
        self._length_lists: dict[int, list[str]] = {}
        self._context_cache: dict[int, tuple[frozenset[str], object]] = {}
        # Strided deadline checks: per-candidate work is tiny, so checking
        # the clock on every enumeration step would dominate it.
        self._tick = 0

    # -------------------------------------------------------------- public

    def holds(
        self, formula: Formula, assignment: Optional[dict[str, str]] = None
    ) -> bool:
        """Truth of ``formula`` under ``assignment`` (must cover free vars)."""
        assignment = dict(assignment or {})
        missing = formula.free_variables() - set(assignment)
        if missing:
            raise EvaluationError(f"unbound free variables {sorted(missing)}")
        return self._eval(formula, assignment)

    def decide(self, sentence: Formula, check_signature: bool = True) -> bool:
        """Truth value of a sentence."""
        if check_signature:
            self.structure.check_formula(sentence)
        if sentence.free_variables():
            raise EvaluationError("not a sentence")
        return self._eval(sentence, {})

    def run(
        self,
        formula: Formula,
        check_signature: bool = True,
        output_kind: Optional[QuantKind] = None,
    ) -> QueryResult:
        """Evaluate an open formula; output candidates range over the
        structure's restricted domain (PREFIX or LENGTH, per the collapse
        theorems), so the result is finite by construction.

        For queries that are safe on the database this computes exactly
        ``phi(D)`` — the range-restriction theorems (Theorem 3/7) guarantee
        safe outputs stay within the restricted domain; unsafe queries get
        silently truncated to the domain, so callers who need to *detect*
        unsafety should use the automata engine or :mod:`repro.safety`.
        """
        if check_signature:
            self.structure.check_formula(formula)
        free = tuple(sorted(formula.free_variables()))
        kinds = self._output_kinds(formula, free, output_kind)
        tuples = set()
        candidates = 0
        for assignment in self._assignments(free, kinds):
            candidates += 1
            self._checkpoint()
            if self._eval(formula, dict(assignment)):
                tuples.add(tuple(assignment[v] for v in free))
        METRICS.inc("direct.candidates", candidates)
        METRICS.inc("direct.output_tuples", len(tuples))
        return QueryResult(free, tuples)

    def _output_kinds(
        self,
        formula: Formula,
        free: tuple[str, ...],
        output_kind: Optional[QuantKind],
    ) -> dict[str, QuantKind]:
        """Per-variable candidate domains for the output columns.

        Variables *anchored* in a database relation atom only ever take
        active-domain values, so their candidates come from adom; the rest
        use the structure's restricted domain (PREFIX/LENGTH).  An explicit
        ``output_kind`` overrides the choice for every column.
        """
        if output_kind is not None:
            return {v: output_kind for v in free}
        anchored = _anchored_variables(to_nnf(formula))
        default = self.structure.restricted_kind
        return {
            v: (QuantKind.ADOM if v in anchored else default) for v in free
        }

    def _assignments(
        self, free: tuple[str, ...], kinds: dict[str, QuantKind]
    ) -> Iterator[dict[str, str]]:
        if not free:
            yield {}
            return
        domains = {v: list(self._domain(kinds[v], set())) for v in free}

        def rec(i: int, acc: dict[str, str]) -> Iterator[dict[str, str]]:
            if i == len(free):
                yield dict(acc)
                return
            for value in domains[free[i]]:
                acc[free[i]] = value
                yield from rec(i + 1, acc)
            acc.pop(free[i], None)

        yield from rec(0, {})

    # ----------------------------------------------------------- recursion

    def _eval(self, f: Formula, assignment: dict[str, str]) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Atom):
            return self.structure.eval_atom(f, assignment)
        if isinstance(f, RelAtom):
            values = tuple(t.evaluate(assignment) for t in f.args)
            return values in self.database.relation(f.name)
        if isinstance(f, Not):
            return not self._eval(f.inner, assignment)
        if isinstance(f, And):
            return all(self._eval(p, assignment) for p in f.parts)
        if isinstance(f, Or):
            return any(self._eval(p, assignment) for p in f.parts)
        if isinstance(f, Exists):
            # Save/restore rather than pop: the variable may shadow an
            # outer binding of the same name.
            sentinel = object()
            saved = assignment.get(f.var, sentinel)
            try:
                for value in self._quantifier_domain(f, assignment):
                    self._checkpoint()
                    assignment[f.var] = value
                    if self._eval(f.body, assignment):
                        return True
                return False
            finally:
                if saved is sentinel:
                    assignment.pop(f.var, None)
                else:
                    assignment[f.var] = saved
        if isinstance(f, Forall):
            sentinel = object()
            saved = assignment.get(f.var, sentinel)
            try:
                for value in self._quantifier_domain(f, assignment):
                    self._checkpoint()
                    assignment[f.var] = value
                    if not self._eval(f.body, assignment):
                        return False
                return True
            finally:
                if saved is sentinel:
                    assignment.pop(f.var, None)
                else:
                    assignment[f.var] = saved
        raise EvaluationError(f"cannot evaluate formula node {f!r}")

    def _checkpoint(self) -> None:
        """Cooperative deadline check, every 128th enumeration step."""
        self._tick += 1
        if not self._tick & 127:
            checkpoint()

    # ------------------------------------------------------------- domains

    def _quantifier_domain(
        self, quantifier: Exists | Forall, assignment: dict[str, str]
    ) -> Iterator[str]:
        """Domain of one quantifier: relates the bound variable to the
        active domain and to the values of the variables *free in the
        quantified subformula* (the paper's tuple ``a-bar``) — matching the
        automata engine exactly."""
        cached = self._context_cache.get(id(quantifier))
        if cached is not None and cached[1] is quantifier:
            context = cached[0]
        else:
            context = quantifier.body.free_variables() - {quantifier.var}
            self._context_cache[id(quantifier)] = (context, quantifier)
        values = {assignment[v] for v in context if v in assignment}
        return self._domain(quantifier.kind, values)

    def _domain(self, kind: QuantKind, values: set[str]) -> Iterator[str]:
        """Enumerate a domain given the relevant context values."""
        if kind is QuantKind.NATURAL:
            raise EvaluationError(
                "the direct engine cannot evaluate natural quantifiers; "
                "collapse() the formula or use the automata engine"
            )
        if kind is QuantKind.ADOM:
            yield from self._adom_sorted
            return
        if kind is QuantKind.PREFIX:
            if self._adom_prefix_part is None:
                self._adom_prefix_part = list(
                    prefix_domain(self.structure.alphabet, self._adom_sorted, self.slack)
                )
            yield from self._adom_prefix_part
            extra_values = values - self.database.adom
            if extra_values:
                seen = set(self._adom_prefix_part)
                for s in prefix_domain(self.structure.alphabet, extra_values, self.slack):
                    if s not in seen:
                        yield s
            return
        if kind is QuantKind.LENGTH:
            max_len = max(
                max((len(s) for s in self._adom_sorted), default=0),
                max((len(s) for s in values), default=0),
            )
            cached = self._length_lists.get(max_len)
            if cached is None:
                cached = list(
                    self.structure.alphabet.strings_up_to(max_len + self.slack)
                )
                self._length_lists[max_len] = cached
            yield from cached
            return
        raise EvaluationError(f"unknown quantifier kind {kind}")  # pragma: no cover
