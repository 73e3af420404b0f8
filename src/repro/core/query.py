"""The high-level public API: :class:`Query` and helpers.

A :class:`Query` bundles a formula with the structure (language) it is
written in, and exposes the library's capabilities as methods::

    from repro import Query, StringDatabase

    db = StringDatabase("01", {"R": {"0110", "001"}})
    q = Query("R(x) & last(x, '0')", structure="S")
    q.run(db).rows()            # evaluate (exact, automata engine)
    q.is_safe_on(db)            # Proposition 7
    q.range_restricted()        # Theorem 3 / 7
    q.to_algebra(db.schema)     # Theorem 4 / 8
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from repro.algebra.compile import CompiledQuery, compile_query
from repro.automata.aperiodic import is_star_free
from repro.automata.dfa import DFA
from repro.database.instance import Database
from repro.database.schema import Schema
from repro.engine.backend import resolve_engine
from repro.engine.cache import global_cache
from repro.engine.deadline import deadline_scope
from repro.engine.explain import Explain, execute_plan, explain_query
from repro.engine.plan_cache import PlanningForm, plan_cache, with_origin
from repro.engine.planner import Plan, with_values
from repro.errors import EvaluationError
from repro.eval.automata_engine import AutomataEngine
from repro.eval.result import QueryResult
from repro.logic.formulas import Formula
from repro.logic.parser import parse_formula
from repro.safety.range_restriction import RangeRestrictedQuery, range_restrict
from repro.safety.state_safety import SafetyReport, analyze_state_safety
from repro.strings.alphabet import Alphabet, BINARY
from repro.structures.base import StringStructure
from repro.structures.catalog import by_name


class StringDatabase:
    """A database of string relations (thin, friendly wrapper).

    Parameters
    ----------
    alphabet:
        An :class:`Alphabet` or a string of its symbols (``"01"``).
    relations:
        Mapping from relation names to collections of tuples (or bare
        strings for unary relations).
    """

    def __init__(
        self,
        alphabet: Union[Alphabet, str],
        relations: Mapping[str, Iterable],
        schema: Optional[Schema] = None,
    ):
        if isinstance(alphabet, str):
            alphabet = Alphabet(alphabet)
        self.db = Database(alphabet, relations, schema=schema)

    @property
    def alphabet(self) -> Alphabet:
        return self.db.alphabet

    @property
    def schema(self) -> Schema:
        return self.db.schema

    @property
    def adom(self) -> frozenset[str]:
        return self.db.adom

    def width(self) -> int:
        return self.db.width()

    def __repr__(self) -> str:
        return f"StringDatabase({self.db!r})"


@dataclass(frozen=True)
class Table:
    """A finite query answer with named columns."""

    columns: tuple[str, ...]
    rows_set: frozenset[tuple[str, ...]]

    def rows(self) -> list[tuple[str, ...]]:
        return sorted(self.rows_set)

    def __len__(self) -> int:
        return len(self.rows_set)

    def __contains__(self, row) -> bool:
        return tuple(row) in self.rows_set

    def __iter__(self):
        return iter(self.rows())


class Query:
    """A query in one of the paper's calculi.

    Parameters
    ----------
    source:
        Query text (see :mod:`repro.logic.parser` for the syntax) or an
        already-built :class:`~repro.logic.formulas.Formula`.
    structure:
        ``"S"``, ``"S_left"``, ``"S_reg"`` or ``"S_len"`` — or a
        :class:`StringStructure` instance.  The signature is enforced.
    alphabet:
        Alphabet (defaults to binary); ignored when ``structure`` is an
        instance.
    """

    def __init__(
        self,
        source: Union[str, Formula],
        structure: Union[str, StringStructure] = "S",
        alphabet: Union[Alphabet, str] = BINARY,
    ):
        if isinstance(alphabet, str):
            alphabet = Alphabet(alphabet)
        if isinstance(structure, str):
            structure = by_name(structure, alphabet)
        self.structure = structure
        self.formula = parse_formula(source) if isinstance(source, str) else source
        self.structure.check_formula(self.formula)
        self._form: Optional[tuple[Formula, PlanningForm]] = None

    @property
    def template(self) -> PlanningForm:
        """The template the planner decides on, with its slots' values
        (computed once per formula: the plan-cache key)."""
        form = self._form
        if form is None or form[0] is not self.formula:
            form = self._form = (self.formula, PlanningForm.of(self.formula))
        return form[1]

    @property
    def free_variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.formula.free_variables()))

    def __repr__(self) -> str:
        return f"Query({str(self.formula)!r}, structure={self.structure.name})"

    # ------------------------------------------------------------- running

    def run(
        self,
        database: Union[StringDatabase, Database],
        engine: Optional[str] = None,
        slack: Optional[int] = None,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Table:
        """Evaluate and materialize the answer.

        With no ``engine=`` argument (or ``engine="auto"``) the
        cost-based planner (:mod:`repro.engine.planner`) selects the
        engine; ``Query.plan(db)`` / ``Query.explain(db)`` show the
        choice and why.  ``engine="automata"`` forces the exact reference
        engine (handles natural quantifiers, detects infinite outputs);
        ``engine="direct"`` forces collapsed enumeration (polynomial data
        complexity for the PREFIX-collapsing calculi);
        ``engine="algebra"`` forces the set-at-a-time RA(M) executor
        (hash joins, see ``docs/algebra_engine.md``) on the collapsed
        formula.  Raises :class:`~repro.errors.UnsafeQueryError` on
        infinite output unless a ``limit`` is given.

        ``timeout`` is a wall-clock budget in seconds covering evaluation
        *and* materialization; past it the engines cancel cooperatively
        and raise :class:`~repro.errors.EvaluationTimeout` (see
        :mod:`repro.engine.deadline`) instead of disappearing into a
        pathological automata product.
        """
        with deadline_scope(timeout):
            result = self.result(database, engine=engine, slack=slack)
            if limit is not None and not result.is_finite():
                rows = frozenset(result.tuples(limit=limit))
            else:
                rows = result.as_set()
            return Table(result.variables, rows)

    def result(
        self,
        database: Union[StringDatabase, Database],
        engine: Optional[str] = None,
        slack: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Evaluate, returning the (possibly infinite) :class:`QueryResult`.

        ``engine`` is ``None``/``"auto"`` (planner-selected),
        ``"automata"``, ``"direct"``, or ``"algebra"``.  ``slack`` is the
        restricted-quantifier headroom.  The automata engine only uses it
        for explicitly PREFIX/LENGTH-restricted quantifiers (default 0);
        the planner passes the same value to whichever engine it picks,
        and only auto-selects the algebra engine in its provably
        slack-independent regime, so auto-selection never changes the
        answer.  A *forced* direct or algebra engine collapses natural
        quantifiers first and defaults to slack 1 — the enumeration cost
        grows as ``|Sigma|^slack``, so raise it deliberately (the
        theoretically safe bound is ``2^quantifier_rank``; see
        :func:`repro.eval.collapse.default_slack`).

        ``timeout`` bounds planning plus evaluation in wall-clock seconds,
        raising :class:`~repro.errors.EvaluationTimeout` once exceeded.

        The plan comes from the process-wide plan cache
        (:mod:`repro.engine.plan_cache`): a query of the same template —
        any constants — reuses it on any database whose statistics stay
        within a factor of two of those it was costed on.  Compiled
        automata are memoized in the session-wide
        :func:`~repro.engine.cache.global_cache`, so repeated runs (and
        shared subformulas) are cheap; ``Query.explain(db)`` reports the
        hit/miss counters.
        """
        db = database.db if isinstance(database, StringDatabase) else database
        with deadline_scope(timeout):
            plan = plan_cache().plan(
                self.template, self.structure, db, slack=slack, force=engine
            )
            return execute_plan(plan, db, cache=global_cache())

    def plan(
        self,
        database: Union[StringDatabase, Database],
        engine: Optional[str] = None,
        slack: Optional[int] = None,
    ) -> Plan:
        """The planner's decision for this query on ``database`` (no run),
        through the plan cache like :meth:`result`; ``Plan.origin`` says
        whether it was reused or planned, and why."""
        db = database.db if isinstance(database, StringDatabase) else database
        form = self.template
        found = plan_cache().lookup(
            form, self.structure, db, slack=slack, force=engine
        )
        return with_origin(with_values(found.plan, form.values), found, db)

    def explain(
        self,
        database: Union[StringDatabase, Database],
        engine: Optional[str] = None,
        slack: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Explain:
        """Run with tracing and return the annotated EXPLAIN report.

        The report bundles the plan (engine choice, cost estimates), a
        tree annotated with per-node wall time and automaton state /
        transition counts, the metrics-counter delta of this run, and the
        automaton-cache statistics.  See ``docs/explain_and_metrics.md``.
        ``timeout`` bounds the traced run like :meth:`run`'s.
        """
        db = database.db if isinstance(database, StringDatabase) else database
        return explain_query(
            self.formula, self.structure, db, engine=resolve_engine(engine),
            slack=slack, timeout=timeout,
        )

    def decide(
        self,
        database: Union[StringDatabase, Database],
        engine: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> bool:
        """Truth value of a Boolean query (sentence).

        Goes through the planner like :meth:`result` — forced/auto engine
        selection, metrics, caching, and deadline scopes all apply to
        Boolean queries too (historically this constructed the automata
        engine directly, bypassing all of that).
        """
        if self.formula.free_variables():
            raise EvaluationError(
                "decide() needs a Boolean query (sentence); "
                f"{sorted(self.formula.free_variables())} are free — "
                "use run() or result() for queries with output columns"
            )
        return self.result(database, engine=engine, timeout=timeout).as_bool()

    # -------------------------------------------------------------- safety

    def is_safe_on(self, database: Union[StringDatabase, Database]) -> bool:
        """State-safety (Proposition 7)."""
        return self.safety_report(database).safe

    def safety_report(self, database: Union[StringDatabase, Database]) -> SafetyReport:
        db = database.db if isinstance(database, StringDatabase) else database
        return analyze_state_safety(self.formula, self.structure, db)

    def range_restricted(self, slack: Optional[int] = None) -> RangeRestrictedQuery:
        """The Theorem 3/7 range-restricted version ``(gamma, phi)``."""
        return range_restrict(self.formula, self.structure, slack=slack)

    # ------------------------------------------------------------- algebra

    def to_algebra(self, schema: Schema, slack: int = 1) -> CompiledQuery:
        """Compile to the matching relational algebra (Theorem 4/8)."""
        return compile_query(self.formula, self.structure, schema, slack=slack)


def parse_query(
    text: str,
    structure: Union[str, StringStructure] = "S",
    alphabet: Union[Alphabet, str] = BINARY,
) -> Query:
    """Parse query text into a :class:`Query` (convenience alias)."""
    return Query(text, structure=structure, alphabet=alphabet)


def definable_language(
    query: Query, max_probe: int = 0
) -> DFA:
    """The subset of ``Sigma*`` a database-free unary query defines.

    Sections 4 and 7 of the paper: over S and S_left these are exactly the
    star-free languages, over S_reg and S_len exactly the regular ones —
    check with :func:`repro.automata.is_star_free` on the returned DFA.
    """
    if query.formula.relation_names():
        raise EvaluationError("definable_language needs a database-free query")
    free = query.free_variables
    if len(free) != 1:
        raise EvaluationError("definable_language needs exactly one free variable")
    empty_db = Database(query.structure.alphabet, {})
    result = AutomataEngine(query.structure, empty_db).run(query.formula)
    # Convert the unary convolution automaton to a plain character DFA.
    return result.relation.dfa.map_symbols(lambda col: col[0]).minimize()


def language_is_star_free(query: Query) -> bool:
    """Is the language defined by a unary database-free query star-free?"""
    return is_star_free(definable_language(query))
