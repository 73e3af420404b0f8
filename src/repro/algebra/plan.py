"""Relational algebra plans with the paper's string operators.

A plan is a tree of operators, and each node is data: its fields, its
``arity``, its ``children`` and its ``__str__``.  Algebra expressions are
safe by construction, which is the point of Theorems 4 and 8, and the
one thing that runs them is the fused closure of
:mod:`repro.algebra.codegen`: a dialect's
:meth:`~repro.algebra.dialects.AlgebraDialect.evaluate` validates a plan
and runs its closure.

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
database (the paper's side condition on ``sigma_alpha``).  The closure
inlines a quantifier-free condition; a quantified one compiles into an
automaton once (:func:`_get_checker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from repro.database.instance import Database
from repro.engine.cache import registered
from repro.errors import ArityError, EvaluationError
from repro.logic.formulas import Formula
from repro.logic.literals import bind, template_slots
from repro.logic.terms import Param, Var
from repro.structures.base import StringStructure

Row = tuple[str, ...]
Rows = frozenset[Row]
#: The values bound to a query template's slots (``Param(i)`` reads
#: ``params[i]``); empty for a concrete query.
Params = tuple[str, ...]


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

    def children(self) -> tuple["Plan", ...]:
        return ()

    def walk(self):
        """Every node, once per occurrence: a subtree the plan repeats
        is walked each time it appears."""
        yield self
        for c in self.children():
            yield from c.walk()

    def nodes(self):
        """Every node object once, parents first: a subtree the plan
        shares (the translator reuses its bound, domain and body
        subplans) is visited once, not once per occurrence."""
        seen: set[int] = set()
        stack: list[Plan] = [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                yield node
                stack.extend(reversed(node.children()))

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

    # -- hashing -------------------------------------------------------------

    def _cached_hash(self) -> int:
        """The dataclass field hash, computed once per node: a plan is a
        tree of frozen nodes, and the field hash of one hashes its whole
        subtree (conditions included) again."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = self._field_hash()
            return value

    def __getstate__(self) -> dict:
        # String hashes differ between processes (a shard worker unpickles
        # plans), so the stored hash is recomputed, never shipped.
        state = self.__dict__
        if "_hash" in state:
            state = {k: v for k, v in state.items() if k != "_hash"}
        return state


def _node(cls):
    """``@dataclass(frozen=True)`` with :meth:`Plan._cached_hash` in place
    of the generated ``__hash__``, which would override one inherited
    from :class:`Plan`."""
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = Plan._cached_hash
    return cls


@_node
class BaseRel(Plan):
    """A database relation (its arity checked against the schema when a
    dialect evaluates the plan)."""

    name: str
    arity: int

    def __str__(self) -> str:
        return self.name


@_node
class EpsilonRel(Plan):
    """The paper's ``R_eps``: the constant unary relation ``{epsilon}``."""

    arity: int = 1

    def __str__(self) -> str:
        return "R_eps"


@_node
class ParamRel(Plan):
    """The one-row unary relation ``{params[index]}``: a template slot's
    run-time value where the plan needs it as a relation — in the base of
    the ``gamma`` bound.  A value outside the alphabet is rejected like
    a literal the ``add`` operators would spell out."""

    index: int
    arity: int = 1

    def __str__(self) -> str:
        return f"R[{Param(self.index)}]"


#: Checkers per (condition text, structure name, alphabet, slack): the
#: conditions are database-free, and each compiles an automaton.
_CHECKERS = registered("algebra.checkers", 512)

#: The automata of quantified template conditions, one per binding of
#: the slots, keyed (checker key, slot values).
_BOUND_CONDITIONS = registered("algebra.bound_conditions", 1024)


class _ConditionChecker:
    """A quantified database-free condition, compiled once into a relation
    automaton over the empty database (legal because ``sigma_alpha``
    conditions may not mention the database).  A template condition
    compiles one automaton per binding of its slots, looked up once per
    run (:meth:`bind`).  The closure inlines every quantifier-free
    condition whose terms are columns, slots and literals — all the
    compiler emits, since it flattens term functions into graph atoms.
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
        self.slots = sorted(template_slots(condition))
        self._automaton = None
        if not self.slots:
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
        slots: the automaton is looked up here, once, not per row."""
        automaton, variables = self._automaton_for(params)
        columns = [_column_index(v) for v in variables]
        contains = automaton.contains
        return lambda row: contains(tuple(row[i] for i in columns))


def _get_checker(
    condition: Formula, structure: StringStructure, slack: int = 0
) -> "_ConditionChecker":
    key = (str(condition), structure.name, structure.alphabet.symbols, slack)
    return _CHECKERS.get_or_build(
        key, lambda: _ConditionChecker(condition, structure, slack, key)
    )


@_node
class Select(Plan):
    """``sigma_alpha``: filter rows by a database-free M-formula."""

    child: Plan
    condition: Formula

    @cached_property
    def arity(self) -> int:
        return self.child.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"select[{self.condition}]({self.child})"


@_node
class Project(Plan):
    """Projection; ``indices`` may permute and duplicate columns."""

    child: Plan
    indices: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.indices)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"project[{','.join(map(str, self.indices))}]({self.child})"


@_node
class Product(Plan):
    left: Plan
    right: Plan

    @cached_property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


@_node
class Join(Plan):
    """Fused equi-join: ``sigma[AND c_l=c_r](left x right)``, set-at-a-time.

    Not one of the paper's algebra operators — the optimizer's
    :func:`~repro.algebra.optimize.optimize_for_execution` fuses a
    ``Select`` whose condition conjoins cross-side column equalities over
    a ``Product`` into this node, and the closure hash-partitions on the
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

    @cached_property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        keys = " & ".join(
            f"c{i}=c{self.left.arity + j}" for i, j in self.pairs
        )
        sigma = f"; {self.residual}" if self.residual is not None else ""
        return f"hashjoin[{keys}{sigma}]({self.left}, {self.right})"


@_node
class Union(Plan):
    left: Plan
    right: Plan

    @cached_property
    def arity(self) -> int:
        if self.left.arity != self.right.arity:
            raise ArityError("union of different arities")
        return self.left.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} u {self.right})"


@_node
class Difference(Plan):
    left: Plan
    right: Plan

    @cached_property
    def arity(self) -> int:
        if self.left.arity != self.right.arity:
            raise ArityError("difference of different arities")
        return self.left.arity

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


@_node
class PrefixOp(Plan):
    """``prefix_i``: append a column ranging over prefixes of column ``i``."""

    child: Plan
    index: int

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"prefix_{self.index}({self.child})"


@_node
class AddLastOp(Plan):
    """``add_i^a``: append the column ``s_i . a``."""

    child: Plan
    index: int
    symbol: str

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"add_{self.index}^{self.symbol}({self.child})"


@_node
class AddFirstOp(Plan):
    """``add_i^{l,a}``: append the column ``a . s_i`` (RA(S_left))."""

    child: Plan
    index: int
    symbol: str

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"add_first_{self.index}^{self.symbol}({self.child})"


@_node
class TrimFirstOp(Plan):
    """``trim_i^{l,a}``: append the column ``s_i - a`` (RA(S_left))."""

    child: Plan
    index: int
    symbol: str

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"trim_first_{self.index}^{self.symbol}({self.child})"


@_node
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

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"insert_{self.index},{self.prefix_index}^{self.symbol}({self.child})"


@_node
class DownOp(Plan):
    """``down_i``: append a column over all strings of length <= |s_i|.

    The paper (Section 6.2): "very expensive, as it may create sets whose
    size is exponential in the size of the input. It is, however,
    unavoidable" — RA(S_len) contains NP-complete safe queries.
    """

    child: Plan
    index: int

    @cached_property
    def arity(self) -> int:
        return self.child.arity + 1

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"down_{self.index}({self.child})"


#: The column-appending operators: each appends a column computed from
#: column ``index`` of its child (``InsertAtOp`` also reads column
#: ``prefix_index``).  ``PrefixOp`` and ``DownOp`` are one-to-many (one
#: row expands to ``|s|+1`` prefixes, resp. every string of length at
#: most ``|s|``); the rest are per-row transforms.
_APPENDERS = (PrefixOp, DownOp, AddLastOp, AddFirstOp, TrimFirstOp, InsertAtOp)
