"""Calculus -> algebra compilation (Theorems 4 and 8, constructively).

The paper proves ``safe RC(M) = RA(M)`` by (a) the range-restriction
theorems — every safe query's output lies within an algebraic bound
``gamma`` applied to the active domain (Theorem 3/7, via Lemmas 1-2) — and
(b) the restricted quantifier collapse — every query can be put in a form
where database relations occur only under active-domain quantifiers
(Theorem 1/6), at which point the classical calculus->algebra translation
goes through with ``sigma_alpha`` absorbing all pure-M subformulas.

:func:`compile_query` implements exactly that pipeline.  Its input must be
in **collapsed form**: every quantifier whose scope mentions a database
relation must be an ADOM quantifier (the form the collapse theorems
guarantee exists; the automata engine of :mod:`repro.eval` computes natural
semantics directly if you don't have one).  Database-free subformulas of
any quantifier structure become selection conditions, which the algebra
evaluates exactly.

The compiled plan computes the *range-restricted semantics* ``(gamma,
phi)`` of the paper's Section 6.1::

    Q(D) = gamma(adom(D) u {eps} u query constants) intersect phi(D)

where ``gamma`` is the structure-appropriate bound (prefix-extensions for
S/S_reg, two-sided extensions for S_left, the ``down`` length bound for
S_len), with ``slack`` playing the role of the paper's ``k``.  For queries
safe on ``D`` (and adequate slack) this equals ``phi(D)``; for unsafe
queries it is the canonical finite under-approximation the paper defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.dialects import FOR_STRUCTURE, AlgebraDialect
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    ParamRel,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    Union,
    col,
)
from repro.database.schema import Schema
from repro.errors import EvaluationError, SignatureError
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
from repro.logic.terms import Param, StrConst, Var
from repro.logic.transform import flatten_terms, fold_literal_graphs
from repro.structures.base import StringStructure


class CompileError(EvaluationError):
    """The formula is not in collapsed form (see module docstring)."""


def is_database_free(formula: Formula) -> bool:
    """True iff evaluating the formula never consults the database.

    Schema relations obviously do; so does *every* restricted quantifier
    kind (ADOM ranges over the active domain, PREFIX/LENGTH domains are
    anchored to it).  Only NATURAL quantification is database-free.
    """
    for sub in formula.walk():
        if isinstance(sub, RelAtom):
            return False
        if isinstance(sub, (Exists, Forall)) and sub.kind is not QuantKind.NATURAL:
            return False
    return True


def is_collapsed_form(formula: Formula) -> bool:
    """True iff every quantifier over a database-dependent scope is ADOM."""
    for sub in formula.walk():
        if isinstance(sub, (Exists, Forall)) and sub.kind is not QuantKind.ADOM:
            if not is_database_free(sub.body):
                return False
    return True


def query_constants(formula: Formula) -> frozenset:
    """String literals occurring in the formula (incl. graph_const params);
    a template's slots count as constants too, as :class:`Param` items."""
    consts: set = {""}
    for sub in formula.walk():
        if isinstance(sub, Atom) and sub.pred == "graph_const":
            consts.add(sub.param or "")
        if isinstance(sub, (Atom, RelAtom)):
            for t in sub.args:
                for node in _term_walk(t):
                    if isinstance(node, StrConst):
                        consts.add(node.value)
                    elif isinstance(node, Param):
                        consts.add(node)
    return frozenset(consts)


def _term_walk(term):
    yield term
    from repro.logic.terms import AddFirst, AddLast, Lcp, TrimFirst

    if isinstance(term, (AddFirst, AddLast, TrimFirst)):
        yield from _term_walk(term.inner)
    elif isinstance(term, Lcp):
        yield from _term_walk(term.left)
        yield from _term_walk(term.right)


def is_adom_exists(f: Formula) -> bool:
    """An ``exists adom`` quantifier: the one generator kind a
    conjunction can seed with the join of the generators before it."""
    return isinstance(f, Exists) and f.kind is QuantKind.ADOM


def equated_variable(f: Formula, bound) -> Optional[tuple[str, str]]:
    """``(new, old)`` when ``f`` is ``new = old`` between variables with
    only ``old`` in ``bound``: the equality binds ``new``."""
    if not (isinstance(f, Atom) and f.pred == "eq"):
        return None
    if not all(isinstance(t, Var) for t in f.args):
        return None
    a, b = (t.name for t in f.args)
    if a in bound and b not in bound:
        return b, a
    if b in bound and a not in bound:
        return a, b
    return None


# --------------------------------------------------------------- bound plans


def adom_plan(schema: Schema, extra_constants: frozenset) -> Plan:
    """Unary plan computing ``adom(D) u {eps} u constants``.

    This is the *base of the gamma bound* (the paper's Section 6.1), which
    includes ``eps`` by definition.  The domain an ADOM *quantifier* ranges
    over is :func:`strict_adom_plan` — exactly ``adom(D)``, matching the
    direct and automata engines.  A template slot among the constants
    contributes the one-row :class:`ParamRel` of its run-time value, so
    one plan serves every binding.
    """
    plan: Plan = EpsilonRel()
    for name in schema.relation_names:
        arity = schema.arity(name)
        for i in range(arity):
            plan = Union(plan, Project(BaseRel(name, arity), (i,)))
    for const in sorted(extra_constants, key=repr):
        if isinstance(const, Param):
            plan = Union(plan, ParamRel(const.index))
        else:
            plan = Union(plan, _constant_plan(const))
    return plan


def strict_adom_plan(schema: Schema) -> Plan:
    """Unary plan computing exactly ``adom(D)`` — no implicit ``eps``."""
    plan: Plan | None = None
    for name in schema.relation_names:
        arity = schema.arity(name)
        for i in range(arity):
            proj = Project(BaseRel(name, arity), (i,))
            plan = proj if plan is None else Union(plan, proj)
    if plan is None:  # no relations: the active domain is empty
        return Difference(EpsilonRel(), EpsilonRel())
    return plan


def _constant_plan(value: str) -> Plan:
    """Unary plan for ``{value}`` built from ``R_eps`` and ``add`` ops.

    The closed form of Theorem 4's translation, for a concrete formula
    compiled directly (:func:`compile_query`, ``Query.to_algebra``); the
    engines run templates, whose constants are :class:`ParamRel` leaves.
    """
    plan: Plan = EpsilonRel()
    for i, ch in enumerate(value):
        plan = Project(AddLastOp(plan, 0, ch), (1,))
    return plan


def bound_plan(
    structure: StringStructure,
    schema: Schema,
    slack: int,
    constants: frozenset[str],
) -> Plan:
    """The paper's ``gamma``-bound as an algebra plan (unary).

    * S / S_reg: prefixes of the base, extended right by <= ``slack``;
    * S_left: prefixes extended by <= ``slack`` symbols on either side;
    * S_len: all strings no longer than the longest base string plus
      ``slack`` (via ``down``).
    """
    base = adom_plan(schema, constants)
    closure = Project(PrefixOp(base, 0), (1,))
    if structure.name == "S_len":
        bounded: Plan = Union(closure, Project(DownOp(base, 0), (1,)))
        extenders = ["last"]
    elif structure.name == "S_left":
        bounded = closure
        extenders = ["last", "first"]
    else:
        bounded = closure
        extenders = ["last"]
    plan = bounded
    for _ in range(slack):
        round_plan = plan
        for a in structure.alphabet.symbols:
            if "last" in extenders:
                round_plan = Union(round_plan, Project(AddLastOp(plan, 0, a), (1,)))
            if "first" in extenders:
                round_plan = Union(round_plan, Project(AddFirstOp(plan, 0, a), (1,)))
        plan = round_plan
    return plan


# ----------------------------------------------------------------- compiler


@dataclass(frozen=True)
class CompiledQuery:
    """A compiled plan plus its output column names (sorted free vars)."""

    plan: Plan
    columns: tuple[str, ...]
    dialect: AlgebraDialect

    def evaluate(self, db) -> frozenset[tuple[str, ...]]:
        return self.dialect.evaluate(self.plan, db)


class _Compiler:
    """Translates a flattened, literal-folded formula into a plan.

    Invariant: every plan :meth:`translate` returns has all its values
    inside the ``gamma``-bound (relation atoms yield active-domain
    strings, everything else is built from the bound).  Conjunctions
    rely on it to apply database-free conditions and negations directly
    to the relations they constrain instead of to powers of the bound.
    """

    def __init__(self, structure: StringStructure, schema: Schema, slack: int, bound: Plan):
        self.structure = structure
        self.schema = schema
        self.slack = slack
        self.bound = bound
        self.adom = strict_adom_plan(schema)

    # Translation: returns (plan, vars) with vars = sorted(free(f)).

    def translate(self, f: Formula) -> tuple[Plan, tuple[str, ...]]:
        if is_database_free(f):
            return self._condition_plan(f)
        if isinstance(f, RelAtom):
            return self._rel_atom(f)
        if isinstance(f, Not):
            inner, variables = self.translate(f.inner)
            full = self._bound_power(variables)
            return Difference(full, inner), variables
        if isinstance(f, And):
            return self._conjunction(f.parts)
        if isinstance(f, Or):
            target = tuple(sorted(f.free_variables()))
            acc = None
            for part in f.parts:
                plan, variables = self.translate(part)
                plan = self._pad_to(plan, variables, target)
                acc = plan if acc is None else Union(acc, plan)
            assert acc is not None
            return acc, target
        if isinstance(f, Exists):
            if f.kind is not QuantKind.ADOM:
                raise CompileError(
                    "quantifier over a database-dependent scope must be ADOM "
                    f"(found {f.kind.value!r}); rewrite via the collapse first"
                )
            return self._adom_exists(f)
        if isinstance(f, Forall):
            return self.translate(Not(Exists(f.var, Not(f.body), f.kind)))
        if isinstance(f, (TrueF, FalseF)):  # database-free; unreachable
            return self._condition_plan(f)
        raise CompileError(f"cannot compile node {f!r}")

    # -- helpers -------------------------------------------------------------

    def _adom_exists(
        self, f: Exists, seed: Optional[tuple[Plan, tuple[str, ...]]] = None
    ) -> tuple[Plan, tuple[str, ...]]:
        """``exists adom``: restrict the variable to adom, project it away.

        A ``seed`` (a plan over variables that share some of ``f``'s free
        variables, not ``f.var``) joins into the body as one more
        generator, so the result is ``seed join (exists adom v: body)``
        and the body's filters meet the seed's rows instead of the bound.
        """
        if seed is None:
            body_plan, body_vars = self.translate(f.body)
        else:
            parts = f.body.parts if isinstance(f.body, And) else (f.body,)
            body_plan, body_vars = self._conjunction(parts, seed)
        if f.var not in body_vars:
            # exists adom x: phi (x unused) -- true iff adom nonempty.
            nonempty = Project(self.adom, ())
            return Product(body_plan, nonempty), body_vars
        restricted, _ = self._join(body_plan, body_vars, self.adom, (f.var,))
        out_vars = tuple(v for v in body_vars if v != f.var)
        indices = tuple(i for i, v in enumerate(body_vars) if v != f.var)
        return Project(restricted, indices), out_vars

    def _conjunction(
        self,
        parts: tuple[Formula, ...],
        seed: Optional[tuple[Plan, tuple[str, ...]]] = None,
    ) -> tuple[Plan, tuple[str, ...]]:
        """Generator-first conjunction.

        The positive database-dependent conjuncts (the generators) are
        joined in turn, ``exists adom`` ones last: a quantifier sharing
        variables with the join so far takes it as its body's seed.
        After each join, the database-free conjuncts whose variables are
        bound become selections, and the bound negated conjuncts become
        differences ``P - pi_P(P join Q)``.  An equality with a bound
        variable binds the other one; only the variables still unbound
        are padded with the bound, for the conjuncts left over.  By the
        class invariant, ``P join sigma_phi(gamma^k) = sigma_phi(P)`` and
        ``P join (gamma^k - Q) = P - pi_P(P join Q)``.
        """
        generators: list[Formula] = []
        filters: list[Formula] = []
        negations: list[Formula] = []
        for part in parts:
            if is_database_free(part):
                filters.append(part)
            elif isinstance(part, Not):
                negations.append(part.inner)
            elif isinstance(part, Forall):
                negations.append(Exists(part.var, Not(part.body), part.kind))
            else:
                generators.append(part)
        generators.sort(key=is_adom_exists)
        plan, variables = seed if seed is not None else (None, ())
        for part in generators:
            if plan is None:
                plan, variables = self.translate(part)
            elif is_adom_exists(part) and part.var not in variables and (
                part.free_variables() & set(variables)
            ):
                plan, variables = self._adom_exists(part, (plan, variables))
            else:
                plan, variables = self._join(plan, variables, *self.translate(part))
            plan, filters, negations = self._constrain(
                plan, variables, filters, negations
            )
        if plan is None:
            plan = Project(EpsilonRel(), ())
        while True:
            plan, filters, negations = self._constrain(
                plan, variables, filters, negations
            )
            bound = self._bind_equality(plan, variables, filters)
            if bound is None:
                break
            plan, variables, filters = bound
        if filters or negations:
            unbound = set().union(*(c.free_variables() for c in filters + negations))
            target = tuple(sorted(set(variables) | unbound))
            plan, variables = self._pad_to(plan, variables, target), target
            plan, _, _ = self._constrain(plan, variables, filters, negations)
        return plan, variables

    def _bind_equality(
        self, plan: Plan, variables: tuple[str, ...], filters: list[Formula]
    ) -> Optional[tuple[Plan, tuple[str, ...], list[Formula]]]:
        """Consume one filter ``new = old`` with ``old`` bound: ``new``
        becomes a copy of ``old``'s column, inside the bound by the
        invariant, so it needs no padding.  ``None`` when no filter does."""
        for f in filters:
            equated = equated_variable(f, variables)
            if equated is not None:
                new, old = equated
                target = tuple(sorted(variables + (new,)))
                source = [old if v == new else v for v in target]
                plan = Project(plan, tuple(variables.index(v) for v in source))
                return plan, target, [g for g in filters if g is not f]
        return None

    def _constrain(
        self,
        plan: Plan,
        variables: tuple[str, ...],
        filters: list[Formula],
        negations: list[Formula],
    ) -> tuple[Plan, list[Formula], list[Formula]]:
        """Apply the filters (as selections) and negated conjuncts (as
        differences) whose variables ``variables`` binds; return the plan
        and the filters and negations still unbound."""
        bound = set(variables)
        mapping = {v: col(i) for i, v in enumerate(variables)}
        for f in filters:
            if f.free_variables() <= bound:
                plan = Select(plan, f.substitute(mapping))
        for f in negations:
            if f.free_variables() <= bound:
                sub_plan, sub_vars = self.translate(f)
                if sub_vars != variables:
                    sub_plan, _ = self._join(plan, variables, sub_plan, sub_vars)
                plan = Difference(plan, sub_plan)
        return (
            plan,
            [f for f in filters if not f.free_variables() <= bound],
            [f for f in negations if not f.free_variables() <= bound],
        )

    def _condition_plan(self, f: Formula) -> tuple[Plan, tuple[str, ...]]:
        """A database-free subformula: candidates from the bound, sigma filter."""
        variables = tuple(sorted(f.free_variables()))
        base = self._bound_power(variables)
        mapping = {v: col(i) for i, v in enumerate(variables)}
        condition = f.substitute(mapping)
        return Select(base, condition), variables

    def _bound_power(self, variables: tuple[str, ...]) -> Plan:
        if not variables:
            return Project(EpsilonRel(), ())
        plan: Plan = self.bound
        for _ in variables[1:]:
            plan = Product(plan, self.bound)
        return plan

    def _rel_atom(self, f: RelAtom) -> tuple[Plan, tuple[str, ...]]:
        arity = self.schema.arity(f.name)
        if arity != len(f.args):
            raise CompileError(f"arity mismatch on {f.name}")
        plan: Plan = BaseRel(f.name, arity)
        names: list[str] = []
        for t in f.args:
            if not isinstance(t, Var):
                raise CompileError("flatten_terms must run before compilation")
            names.append(t.name)
        # Repeated variables: select equality on the repeated columns.
        for j in range(len(names)):
            for i in range(j):
                if names[i] == names[j]:
                    plan = Select(plan, Atom("eq", (col(i), col(j))))
        variables = tuple(sorted(set(names)))
        indices = tuple(names.index(v) for v in variables)
        return Project(plan, indices), variables

    def _join(
        self,
        left: Plan,
        left_vars: tuple[str, ...],
        right: Plan,
        right_vars: tuple[str, ...],
    ) -> tuple[Plan, tuple[str, ...]]:
        """Natural join on shared variable names."""
        product = Product(left, right)
        n = len(left_vars)
        conditions = []
        for j, v in enumerate(right_vars):
            if v in left_vars:
                conditions.append(Atom("eq", (col(left_vars.index(v)), col(n + j))))
        plan: Plan = product
        for c in conditions:
            plan = Select(plan, c)
        target = tuple(sorted(set(left_vars) | set(right_vars)))
        indices = []
        for v in target:
            if v in left_vars:
                indices.append(left_vars.index(v))
            else:
                indices.append(n + right_vars.index(v))
        return Project(plan, tuple(indices)), target

    def _pad_to(
        self, plan: Plan, variables: tuple[str, ...], target: tuple[str, ...]
    ) -> Plan:
        """Extend columns to ``target`` (sorted superset) with bound columns."""
        if variables == target:
            return plan
        missing = [v for v in target if v not in variables]
        padded: Plan = plan
        for _ in missing:
            padded = Product(padded, self.bound)
        current = list(variables) + missing
        indices = tuple(current.index(v) for v in target)
        return Project(padded, indices)


def compile_query(
    formula: Formula,
    structure: StringStructure,
    schema: Schema,
    slack: int = 1,
) -> CompiledQuery:
    """Compile a collapsed-form RC(M) query into an RA(M) plan.

    Raises :class:`CompileError` when a non-ADOM quantifier scopes over a
    database relation — put the query in collapsed form first (Theorem 1/6
    guarantees one exists; in practice write database quantifiers as
    ``exists adom`` / ``forall adom``).
    """
    structure.check_formula(formula)
    flat = fold_literal_graphs(flatten_terms(formula))
    if not is_collapsed_form(flat):
        raise CompileError(
            "query is not in collapsed form: database relations occur under "
            "non-ADOM quantifiers"
        )
    constants = query_constants(flat)
    bound = bound_plan(structure, schema, slack, constants)
    compiler = _Compiler(structure, schema, slack, bound)
    plan, variables = compiler.translate(flat)
    target = tuple(sorted(formula.free_variables()))
    plan = compiler._pad_to(plan, variables, target)
    dialect = FOR_STRUCTURE[structure.name](structure.alphabet)
    dialect.validate(plan)
    return CompiledQuery(plan, target, dialect)
