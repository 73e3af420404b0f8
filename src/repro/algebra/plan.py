"""Relational algebra plans with the paper's string operators.

A plan is a tree of operators; ``evaluate(db, structure)`` materializes the
(finite) result — algebra expressions are safe by construction, which is
the point of Theorems 4 and 8.

Operators (paper Sections 6.2 and 7.1), all positional on columns
``0..arity-1``:

=================  =====================================================
node               semantics
=================  =====================================================
``BaseRel(R)``     a schema relation
``EpsilonRel``     the constant unary relation ``{epsilon}`` (``R_eps``)
``ParamRel(i)``    the one-row relation of a template slot's bound value
``Select``         ``sigma_alpha``: keep tuples satisfying an M-formula
``Project``        projection / column permutation / duplication
``Product``        cartesian product
``Union``          set union (same arity)
``Difference``     set difference (same arity)
``PrefixOp(i)``    append column: every prefix of column ``i``
``AddLastOp``      append column ``s_i . a``  (``add_i^a``)
``AddFirstOp``     append column ``a . s_i``  (``add_i^{l,a}``, RA(S_left))
``TrimFirstOp``    append column ``s_i - a``  (``trim_i^{l,a}``, RA(S_left))
``DownOp(i)``      append column: every string with ``|s| <= |s_i|``
                   (``down_i``, RA(S_len) — exponential, deliberately)
=================  =====================================================

Selection conditions are :class:`~repro.logic.formulas.Formula` objects
whose free variables are the column names ``c0, c1, ...`` (see
:func:`col`); they may quantify over ``Sigma*`` but must not mention the
database (the paper's side condition on ``sigma_alpha``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.database.instance import Database
from repro.engine.cache import registered
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.errors import ArityError, EvaluationError
from repro.logic.formulas import Formula, QuantKind, RelAtom
from repro.logic.literals import bind, template_slots
from repro.logic.terms import Param, Var
from repro.logic.transform import has_natural_quantifier
from repro.structures.base import StringStructure

Row = tuple[str, ...]
Rows = frozenset[Row]
#: The values bound to a query template's slots (``Param(i)`` reads
#: ``params[i]``); empty for a concrete query.
Params = tuple[str, ...]

#: Deadline-check stride for row loops: per-row work is tiny, so the
#: clock is only consulted every 256th row (matching the direct engine).
_TICK_MASK = 255


def col(i: int) -> Var:
    """The variable naming column ``i`` in a selection condition."""
    return Var(f"c{i}")


def _column_index(name: str) -> int:
    if not name.startswith("c") or not name[1:].isdigit():
        raise EvaluationError(
            f"selection conditions must use column variables c0, c1, ...; got {name!r}"
        )
    return int(name[1:])


class Plan:
    """Base class of algebra plan nodes."""

    arity: int

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        raise NotImplementedError

    def children(self) -> tuple["Plan", ...]:
        return ()

    def walk(self):
        yield self
        for c in self.children():
            yield from c.walk()

    # -- combinator sugar ---------------------------------------------------

    def select(self, condition: Formula) -> "Select":
        return Select(self, condition)

    def project(self, indices: tuple[int, ...]) -> "Project":
        return Project(self, indices)

    def product(self, other: "Plan") -> "Product":
        return Product(self, other)

    def union(self, other: "Plan") -> "Union":
        return Union(self, other)

    def difference(self, other: "Plan") -> "Difference":
        return Difference(self, other)


@dataclass(frozen=True)
class BaseRel(Plan):
    """A database relation (arity resolved at evaluation)."""

    name: str
    arity: int

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        rows = db.relation(self.name)
        if db.schema.arity(self.name) != self.arity:
            raise ArityError(
                f"plan expects {self.name}/{self.arity}, database has "
                f"{self.name}/{db.schema.arity(self.name)}"
            )
        return rows

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class EpsilonRel(Plan):
    """The paper's ``R_eps``: the constant unary relation ``{epsilon}``."""

    arity: int = 1

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        return frozenset({("",)})

    def __str__(self) -> str:
        return "R_eps"


@dataclass(frozen=True)
class ParamRel(Plan):
    """The one-row unary relation ``{params[index]}``: a template slot's
    run-time value where the plan needs it as a relation — in the base of
    the ``gamma`` bound.  A value outside the alphabet is rejected like
    a literal the ``add`` operators would spell out."""

    index: int
    arity: int = 1

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        value = structure.alphabet.check_string(params[self.index])
        return frozenset({(value,)})

    def __str__(self) -> str:
        return f"R[{Param(self.index)}]"


#: Checkers per (condition text, structure name, alphabet, slack): the
#: conditions are database-free, and a quantified one compiles an automaton.
_CHECKERS = registered("algebra.checkers", 512)

#: The automata of quantified template conditions, one per binding of
#: the slots, keyed (checker key, slot values).
_BOUND_CONDITIONS = registered("algebra.bound_conditions", 1024)


class _ConditionChecker:
    """Evaluates a database-free condition on concrete rows.

    Quantifier-free conditions are evaluated directly; quantified ones are
    compiled once into a relation automaton over the empty database (legal
    because ``sigma_alpha`` conditions may not mention the database).  A
    template condition reads its slots from the ``params`` it is bound to
    (:meth:`bind`, once per evaluation); quantified, it compiles one
    automaton per binding.
    """

    def __init__(self, condition: Formula, structure: StringStructure,
                 slack: int, key: tuple):
        if condition.relation_names():
            raise EvaluationError(
                "sigma_alpha conditions must not mention database relations"
            )
        self.condition = condition
        self.structure = structure
        self.slack = slack
        self.key = key
        self.columns = sorted(_column_index(v) for v in condition.free_variables())
        self.slots = sorted(template_slots(condition))
        self._slot_keys = [(Param(i).key, i) for i in self.slots]
        self._automaton = None
        self._quantified = any(
            f.__class__.__name__ in ("Exists", "Forall") for f in condition.walk()
        )
        if self._quantified and not self.slots:
            self._automaton, self._auto_vars = self._compile(condition)

    def _compile(self, condition: Formula) -> tuple:
        from repro.eval.automata_engine import AutomataEngine

        empty_db = Database(self.structure.alphabet, {})
        engine = AutomataEngine(self.structure, empty_db, slack=self.slack)
        result = engine.run(condition, check_signature=False)
        return result.relation, result.variables

    def _automaton_for(self, params: Params) -> tuple:
        if not self.slots:
            return self._automaton, self._auto_vars
        return _BOUND_CONDITIONS.get_or_build(
            (self.key, tuple(params[i] for i in self.slots)),
            lambda: self._compile(bind(self.condition, params)),
        )

    def bind(self, params: Params = ()) -> Callable[[Row], bool]:
        """The condition as a one-row predicate for one binding of its
        slots: a quantified condition's automaton is looked up here, once,
        not per row."""
        if self._quantified:
            automaton, variables = self._automaton_for(params)
            columns = [_column_index(v) for v in variables]
            contains = automaton.contains
            return lambda row: contains(tuple(row[i] for i in columns))
        slots = [(key, params[i]) for key, i in self._slot_keys]
        columns = self.columns
        condition, structure = self.condition, self.structure

        def check(row: Row) -> bool:
            assignment = {f"c{i}": row[i] for i in columns}
            assignment.update(slots)
            return _eval_quantifier_free(condition, assignment, structure)

        return check

    def max_column(self) -> int:
        return max(self.columns, default=-1)


def _eval_quantifier_free(
    f: Formula, assignment: dict[str, str], structure: StringStructure
) -> bool:
    from repro.logic.formulas import And, Atom, FalseF, Not, Or, TrueF

    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return structure.eval_atom(f, assignment)
    if isinstance(f, Not):
        return not _eval_quantifier_free(f.inner, assignment, structure)
    if isinstance(f, And):
        return all(_eval_quantifier_free(p, assignment, structure) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_quantifier_free(p, assignment, structure) for p in f.parts)
    raise EvaluationError(f"unexpected node in quantifier-free condition: {f!r}")


def _get_checker(
    condition: Formula, structure: StringStructure, slack: int = 0
) -> "_ConditionChecker":
    key = (str(condition), structure.name, structure.alphabet.symbols, slack)
    return _CHECKERS.get_or_build(
        key, lambda: _ConditionChecker(condition, structure, slack, key)
    )


@dataclass(frozen=True)
class Select(Plan):
    """``sigma_alpha``: filter rows by a database-free M-formula."""

    child: Plan
    condition: Formula

    @property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        checker = _get_checker(self.condition, structure)
        if checker.max_column() >= self.child.arity:
            raise ArityError(
                f"condition uses column c{checker.max_column()}, child arity "
                f"is {self.child.arity}"
            )
        check = checker.bind(params)
        if isinstance(self.child, Product):
            # Stream the cross product through the filter pair by pair:
            # only the (usually much smaller) selected set is ever
            # materialized, never the O(|L|*|R|) intermediate relation.
            lrows = self.child.left.evaluate(db, structure, params)
            rrows = self.child.right.evaluate(db, structure, params)
            out = set()
            tick = 0
            for l in lrows:
                for r in rrows:
                    tick += 1
                    if not tick & _TICK_MASK:
                        checkpoint()
                    row = l + r
                    if check(row):
                        out.add(row)
            return frozenset(out)
        rows = self.child.evaluate(db, structure, params)
        return frozenset(r for r in rows if check(r))

    def __str__(self) -> str:
        return f"select[{self.condition}]({self.child})"


@dataclass(frozen=True)
class Project(Plan):
    """Projection; ``indices`` may permute and duplicate columns."""

    child: Plan
    indices: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.indices)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if any(i < 0 or i >= self.child.arity for i in self.indices):
            raise ArityError(f"projection {self.indices} out of range")
        rows = self.child.evaluate(db, structure, params)
        return frozenset(tuple(r[i] for i in self.indices) for r in rows)

    def __str__(self) -> str:
        return f"project[{','.join(map(str, self.indices))}]({self.child})"


@dataclass(frozen=True)
class Product(Plan):
    left: Plan
    right: Plan

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        lrows = self.left.evaluate(db, structure, params)
        rrows = self.right.evaluate(db, structure, params)
        return frozenset(self._stream(lrows, rrows))

    @staticmethod
    def _stream(lrows: Rows, rrows: Rows):
        tick = 0
        for l in lrows:
            for r in rrows:
                tick += 1
                if not tick & _TICK_MASK:
                    checkpoint()
                yield l + r

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


@dataclass(frozen=True)
class Join(Plan):
    """Fused equi-join: ``sigma[AND c_l=c_r](left x right)``, set-at-a-time.

    Not one of the paper's algebra operators — the optimizer's
    :func:`~repro.algebra.optimize.optimize_for_execution` fuses a
    ``Select`` whose condition conjoins cross-side column equalities over
    a ``Product`` into this node, and evaluation hash-partitions on the
    join keys instead of enumerating the cross product.  ``pairs`` holds
    ``(left column, right column)`` key pairs; ``residual`` is the part
    of the original condition that is not a cross-side column equality
    (checked per joined row), in the *concatenated* column space.

    Dialect validation deliberately rejects this node: fused plans are an
    execution-layer form, not RA(M) syntax (``to_calculus`` translates it
    back to the conjunction it came from).
    """

    left: Plan
    right: Plan
    pairs: tuple[tuple[int, int], ...]
    residual: Optional[Formula] = None

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        lrows = self.left.evaluate(db, structure, params)
        rrows = self.right.evaluate(db, structure, params)
        check = (
            _get_checker(self.residual, structure).bind(params)
            if self.residual is not None
            else None
        )
        METRICS.inc("algebra.joins")
        table: dict[Row, list[Row]] = {}
        tick = 0
        for r in rrows:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            key = tuple(r[j] for _, j in self.pairs)
            table.setdefault(key, []).append(r)
        out = set()
        for l in lrows:
            tick += 1
            if not tick & _TICK_MASK:
                checkpoint()
            matches = table.get(tuple(l[i] for i, _ in self.pairs))
            if not matches:
                continue
            for r in matches:
                row = l + r
                if check is None or check(row):
                    out.add(row)
        METRICS.inc("algebra.rows_probed", len(lrows))
        return frozenset(out)

    def __str__(self) -> str:
        keys = " & ".join(
            f"c{i}=c{self.left.arity + j}" for i, j in self.pairs
        )
        sigma = f"; {self.residual}" if self.residual is not None else ""
        return f"hashjoin[{keys}{sigma}]({self.left}, {self.right})"


@dataclass(frozen=True)
class Union(Plan):
    left: Plan
    right: Plan

    @property
    def arity(self) -> int:
        if self.left.arity != self.right.arity:
            raise ArityError("union of different arities")
        return self.left.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        _ = self.arity
        left = self.left.evaluate(db, structure, params)
        return left | self.right.evaluate(db, structure, params)

    def __str__(self) -> str:
        return f"({self.left} u {self.right})"


@dataclass(frozen=True)
class Difference(Plan):
    left: Plan
    right: Plan

    @property
    def arity(self) -> int:
        if self.left.arity != self.right.arity:
            raise ArityError("difference of different arities")
        return self.left.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        _ = self.arity
        left = self.left.evaluate(db, structure, params)
        return left - self.right.evaluate(db, structure, params)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class PrefixOp(Plan):
    """``prefix_i``: append a column ranging over prefixes of column ``i``."""

    child: Plan
    index: int

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"prefix_{self.index} out of range")
        out = set()
        for r in self.child.evaluate(db, structure, params):
            s = r[self.index]
            for k in range(len(s) + 1):
                out.add(r + (s[:k],))
        return frozenset(out)

    def __str__(self) -> str:
        return f"prefix_{self.index}({self.child})"


@dataclass(frozen=True)
class AddLastOp(Plan):
    """``add_i^a``: append the column ``s_i . a``."""

    child: Plan
    index: int
    symbol: str

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"add_{self.index} out of range")
        structure.alphabet.check_string(self.symbol)
        return frozenset(
            r + (r[self.index] + self.symbol,)
            for r in self.child.evaluate(db, structure, params)
        )

    def __str__(self) -> str:
        return f"add_{self.index}^{self.symbol}({self.child})"


@dataclass(frozen=True)
class AddFirstOp(Plan):
    """``add_i^{l,a}``: append the column ``a . s_i`` (RA(S_left))."""

    child: Plan
    index: int
    symbol: str

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"add_first_{self.index} out of range")
        structure.alphabet.check_string(self.symbol)
        return frozenset(
            r + (self.symbol + r[self.index],)
            for r in self.child.evaluate(db, structure, params)
        )

    def __str__(self) -> str:
        return f"add_first_{self.index}^{self.symbol}({self.child})"


@dataclass(frozen=True)
class TrimFirstOp(Plan):
    """``trim_i^{l,a}``: append the column ``s_i - a`` (RA(S_left))."""

    child: Plan
    index: int
    symbol: str

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"trim_first_{self.index} out of range")
        out = set()
        for r in self.child.evaluate(db, structure, params):
            s = r[self.index]
            trimmed = s[1:] if s.startswith(self.symbol) and s else ""
            out.add(r + (trimmed,))
        return frozenset(out)

    def __str__(self) -> str:
        return f"trim_first_{self.index}^{self.symbol}({self.child})"


@dataclass(frozen=True)
class InsertAtOp(Plan):
    """``insert_{i,j}^a``: append the column ``insert_a(s_i, s_j)``.

    The algebra operator of the Section 8 extension (RA(S_insert)): the
    new column is ``s_j . a . (s_i - s_j)`` when ``s_j`` is a prefix of
    ``s_i``, and epsilon otherwise.
    """

    child: Plan
    index: int
    prefix_index: int
    symbol: str

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"insert_{self.index} out of range")
        if not 0 <= self.prefix_index < self.child.arity:
            raise ArityError(f"insert prefix index {self.prefix_index} out of range")
        structure.alphabet.check_string(self.symbol)
        out = set()
        for r in self.child.evaluate(db, structure, params):
            s, p = r[self.index], r[self.prefix_index]
            if s.startswith(p):
                value = p + self.symbol + s[len(p):]
            else:
                value = ""
            out.add(r + (value,))
        return frozenset(out)

    def __str__(self) -> str:
        return f"insert_{self.index},{self.prefix_index}^{self.symbol}({self.child})"


@dataclass(frozen=True)
class DownOp(Plan):
    """``down_i``: append a column over all strings of length <= |s_i|.

    The paper (Section 6.2): "very expensive, as it may create sets whose
    size is exponential in the size of the input. It is, however,
    unavoidable" — RA(S_len) contains NP-complete safe queries.
    """

    child: Plan
    index: int

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def evaluate(
        self, db: Database, structure: StringStructure, params: Params = ()
    ) -> Rows:
        if not 0 <= self.index < self.child.arity:
            raise ArityError(f"down_{self.index} out of range")
        out = set()
        for r in self.child.evaluate(db, structure, params):
            for s in structure.alphabet.strings_up_to(len(r[self.index])):
                out.add(r + (s,))
        return frozenset(out)

    def __str__(self) -> str:
        return f"down_{self.index}({self.child})"
