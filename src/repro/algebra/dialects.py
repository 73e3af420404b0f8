"""The four algebras RA(S), RA(S_len), RA(S_left), RA(S_reg) as dialects.

A dialect pairs the structure whose formulas may appear in ``sigma_alpha``
with the set of string operators allowed (paper Sections 6.2 and 7.1):

============  ==========================================================
RA(S)         sigma over FO(S); ``R_eps``, ``prefix_i``, ``add_i^a``
RA(S_len)     sigma over FO(S_len); + ``down_i``
RA(S_left)    sigma over FO(S_left); + ``add_i^{l,a}``, ``trim_i^{l,a}``
RA(S_reg)     sigma over FO(S_reg); same operators as RA(S)
============  ==========================================================

Theorems 4 and 8: each dialect expresses exactly the safe queries of the
corresponding calculus.  A dialect validates a plan's operators and its
conditions' signature; evaluating it also checks its column indices and
arities against the database, then runs the plan's compiled closure
(:mod:`repro.algebra.codegen`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    InsertAtOp,
    ParamRel,
    Params,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    _APPENDERS,
    _column_index,
)
from repro.errors import ArityError, EvaluationError, SignatureError
from repro.strings.alphabet import Alphabet
from repro.structures import S, S_insert, S_left, S_len, S_reg
from repro.structures.base import StringStructure

_CORE = (
    BaseRel, EpsilonRel, ParamRel, Select, Project, Product, Union, Difference,
    PrefixOp, AddLastOp,
)


@dataclass(frozen=True)
class AlgebraDialect:
    """One of the paper's relational algebras."""

    name: str
    structure: StringStructure
    allowed_nodes: tuple[type, ...]

    def validate(self, plan: Plan) -> Plan:
        """Check every node and every selection condition; return the plan."""
        for node in plan.nodes():
            if not isinstance(node, self.allowed_nodes):
                raise SignatureError(
                    f"operator {type(node).__name__} is not part of {self.name}"
                )
            if isinstance(node, Select):
                self.structure.check_formula(node.condition)
        return plan

    def evaluate(self, plan: Plan, db, params: Params = ()) -> frozenset:
        """Validate a plan against this dialect and ``db``'s schema, then
        run its compiled closure with its slots bound to ``params``."""
        from repro.algebra.codegen import plan_pipeline

        self.validate(plan)
        for node in plan.nodes():
            _check_columns(node, db.schema)
        return plan_pipeline(plan, self.structure).run(db, params)[0]


def _check_columns(node: Plan, schema) -> None:
    """Raise when ``node`` reads a column its input lacks, combines inputs
    of two arities, filters by a condition that is not database-free, or
    reads a relation whose arity differs from ``schema``'s."""
    if isinstance(node, BaseRel):
        arity = schema.arity(node.name)
        if arity != node.arity:
            raise ArityError(
                f"plan expects {node.name}/{node.arity}, database has "
                f"{node.name}/{arity}"
            )
    elif isinstance(node, Select):
        condition = node.condition
        if condition.relation_names():
            raise EvaluationError(
                "sigma_alpha conditions must not mention database relations"
            )
        top = max(map(_column_index, condition.free_variables()), default=-1)
        if top >= node.child.arity:
            raise ArityError(
                f"condition uses column c{top}, child arity is {node.child.arity}"
            )
    elif isinstance(node, Project):
        if any(i < 0 or i >= node.child.arity for i in node.indices):
            raise ArityError(f"projection {node.indices} out of range")
    elif isinstance(node, (Union, Difference)):
        _ = node.arity  # raises ArityError on two arities
    elif isinstance(node, _APPENDERS):
        for i in (node.index, getattr(node, "prefix_index", node.index)):
            if not 0 <= i < node.child.arity:
                raise ArityError(
                    f"{type(node).__name__} column {i} out of range"
                )


def RA_S(alphabet: Alphabet) -> AlgebraDialect:
    """RA(S): captures the safe queries of RC(S) (Theorem 4)."""
    return AlgebraDialect("RA(S)", S(alphabet), _CORE)


def RA_S_len(alphabet: Alphabet) -> AlgebraDialect:
    """RA(S_len): RA(S) plus ``down_i`` (Theorem 4).

    The paper's operator set is exactly ``R_eps, sigma, prefix_i, add_i,
    down_i`` — add/trim-first are *derivable* (via ``down_i`` and an
    ``el``-selection), so they are deliberately not primitive here.
    """
    return AlgebraDialect("RA(S_len)", S_len(alphabet), _CORE + (DownOp,))


def RA_S_left(alphabet: Alphabet) -> AlgebraDialect:
    """RA(S_left): RA(S) plus add/trim-first (Theorem 8)."""
    return AlgebraDialect("RA(S_left)", S_left(alphabet), _CORE + (AddFirstOp, TrimFirstOp))


def RA_S_reg(alphabet: Alphabet) -> AlgebraDialect:
    """RA(S_reg): RA(S) operators with S_reg selection conditions (Theorem 8)."""
    return AlgebraDialect("RA(S_reg)", S_reg(alphabet), _CORE)


def RA_S_insert(alphabet: Alphabet) -> AlgebraDialect:
    """RA(S_insert): the Section 8 extension's algebra (not in the paper).

    RA(S_left) plus the positional-insertion operator ``insert_{i,j}^a``;
    validated against the calculus empirically (the safe RC(S_insert) =
    RA(S_insert) analogue of Theorem 8 is conjectural).
    """
    return AlgebraDialect(
        "RA(S_insert)",
        S_insert(alphabet),
        _CORE + (AddFirstOp, TrimFirstOp, InsertAtOp),
    )


DIALECTS = {
    "RA(S)": RA_S,
    "RA(S_len)": RA_S_len,
    "RA(S_left)": RA_S_left,
    "RA(S_reg)": RA_S_reg,
    "RA(S_insert)": RA_S_insert,
}

#: Structure name -> dialect factory (used by the compiler).
FOR_STRUCTURE = {
    "S": RA_S,
    "S_len": RA_S_len,
    "S_left": RA_S_left,
    "S_reg": RA_S_reg,
    "S_insert": RA_S_insert,
}
