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
corresponding calculus.
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
)
from repro.errors import SignatureError
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
        for node in plan.walk():
            if not isinstance(node, self.allowed_nodes):
                raise SignatureError(
                    f"operator {type(node).__name__} is not part of {self.name}"
                )
            if isinstance(node, Select):
                self.structure.check_formula(node.condition)
        return plan

    def evaluate(self, plan: Plan, db, params: Params = ()) -> frozenset:
        """Validate then evaluate a plan, its slots bound to ``params``."""
        self.validate(plan)
        return plan.evaluate(db, self.structure, params)


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
